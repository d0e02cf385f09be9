(* The answer oracle. References never come from the path being timed: the
   TPC-H digests were derived from the row interpreter (see [tpch_refresh]),
   and the bi_replay / etl_roundtrip references are replayed in this
   process on a pipeline whose backend runs in [Backend.Row] mode. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Backend = Hyperq_engine.Backend
module Tdf = Hyperq_tdf.Tdf
module Message = Hyperq_wire.Message
module Result_converter = Hyperq_core.Result_converter

(* A cell as the WP-A record format carries it: DECIMAL at the column's
   declared scale (the record codec truncates to it), everything else as
   is. *)
let cell ty (v : Value.t) =
  match (ty, v) with
  | Dtype.Decimal { scale; _ }, (Value.Decimal _ | Value.Int _) ->
      Value.to_sql_literal (Value.Decimal (Decimal.rescale (Value.to_decimal_exn v) scale))
  | _ -> Value.to_sql_literal v

(* Order-insensitive row digest: cells rendered as SQL literals, rows
   sorted, then hashed. *)
let digest_rows (types : Dtype.t list) (rows : Value.t array list) =
  let types = Array.of_list types in
  let line (r : Value.t array) =
    String.concat "|" (Array.to_list (Array.mapi (fun i v -> cell types.(i) v) r))
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare (List.map line rows))))

let wire_digest (reply : Wire.reply) =
  let cols =
    List.map
      (fun (c : Message.column) ->
        { Tdf.cd_name = c.Message.col_name; cd_type = c.Message.col_type })
      reply.Wire.columns
  in
  let rows = Result_converter.decode_records cols reply.Wire.records in
  digest_rows (List.map (fun (c : Message.column) -> c.Message.col_type) reply.Wire.columns) rows

(* What is compared for one statement: failure class or row count, activity
   count and (when rows are checked) the row digest. *)
type answer = { failed : bool; count : int; rows : int; digest : string }

let of_wire ?(check_rows = true) = function
  | Wire.Failed _ -> { failed = true; count = 0; rows = 0; digest = "" }
  | Wire.Answer r ->
      {
        failed = false;
        count = r.Wire.activity_count;
        rows = List.length r.Wire.records;
        digest = (if check_rows && r.Wire.records <> [] then wire_digest r else "");
      }

let of_outcome ?(check_rows = true) (o : Pipeline.outcome) =
  {
    failed = false;
    count = o.Pipeline.out_count;
    rows = List.length o.Pipeline.out_rows;
    digest =
      (if check_rows && o.Pipeline.out_rows <> [] then
         digest_rows (List.map snd o.Pipeline.out_schema) o.Pipeline.out_rows
       else "");
  }

(* A reference pipeline: shipped defaults except the row interpreter. *)
let row_pipeline () =
  let p = Pipeline.create () in
  p.Pipeline.backend.Backend.exec_mode <- Backend.Row;
  p

let reference_run ?check_rows p session sql =
  match Pipeline.run_sql p ~session sql with
  | o -> of_outcome ?check_rows o
  | exception Sql_error.Error _ -> { failed = true; count = 0; rows = 0; digest = "" }

(* --- tpch_olap: stored digests ---------------------------------------- *)

let tpch_file = Filename.concat "perfbench" "expected_tpch.txt"

(* name -> (rows, digest) *)
let tpch_expected () =
  let ic = open_in tpch_file in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %d %s" (fun q rows d -> Hashtbl.replace tbl q (rows, d))
     done
   with End_of_file -> close_in ic);
  tbl

let tpch_check expected name (a : answer) =
  match Hashtbl.find_opt expected name with
  | Some (rows, d) -> (not a.failed) && a.rows = rows && a.digest = (if rows = 0 then "" else d)
  | None -> false

(* Regenerate [tpch_file] from the row interpreter. *)
let tpch_refresh () =
  let p = row_pipeline () in
  ignore (Hyperq_workload.Tpch.setup ~sf:Gen.tpch_sf p);
  let session = Session.create () in
  let oc = open_out tpch_file in
  Printf.fprintf oc
    "# TPC-H SF %g answers from the row interpreter (Backend.exec_mode = Row):\n\
     # query, row count, order-insensitive row digest. Regenerate with\n\
     # _build/default/perfbench/hqbench.exe oracle\n"
    Gen.tpch_sf;
  Array.iter
    (fun (name, sql) ->
      let a = reference_run p session sql in
      if a.failed then failwith (name ^ " fails on the row interpreter");
      Printf.fprintf oc "%s %d %s\n" name a.rows (if a.rows = 0 then "-" else a.digest))
    Gen.tpch_queries;
  close_out oc

(* --- bi_replay: multiset of (statement, class, activity count) ----------- *)

(* [executed] holds (statement index, answer) for the first N statements of
   the stream, in any order. Returns the number of answers that find no
   match in the reference replay. *)
let bi_mismatches ~seed (stream : Gen.bi_stream) (executed : (int * answer) list) =
  let p = row_pipeline () in
  let session = Session.create () in
  List.iter (fun sql -> ignore (Pipeline.run_sql p ~session sql)) (Gen.bi_setup ~seed);
  let n = List.length executed in
  let bag = Hashtbl.create 4096 in
  let bump k d = Hashtbl.replace bag k (d + Option.value ~default:0 (Hashtbl.find_opt bag k)) in
  for i = 0 to n - 1 do
    let idx = stream.Gen.order.(i) in
    let a = reference_run ~check_rows:false p session stream.Gen.distinct.(idx) in
    bump (idx, a.failed, a.count) (-1)
  done;
  List.iter (fun (idx, (a : answer)) -> bump (idx, a.failed, a.count) 1) executed;
  Hashtbl.fold (fun _ d acc -> if d > 0 then acc + d else acc) bag 0

(* --- etl_roundtrip: per statement, per cycle ----------------------------- *)

let tpch_row_pipeline () =
  let p = row_pipeline () in
  ignore (Hyperq_workload.Tpch.setup ~sf:Gen.tpch_sf p);
  p

(* [cycles] holds, per executed cycle, the answers in statement order.
   Returns the number of statements whose answer differs from the
   reference (the full read of the merged table is the table digest). The
   reference replays each cycle variant once. *)
let etl_mismatches ~seed (cycles : answer array list) =
  let p = tpch_row_pipeline () in
  let session = Session.create () in
  let reference = Hashtbl.create Gen.etl_variants in
  let expected k =
    let v = k mod Gen.etl_variants in
    match Hashtbl.find_opt reference v with
    | Some r -> r
    | None ->
        let r = Array.of_list (List.map (reference_run p session) (Gen.etl_cycle ~seed v)) in
        Hashtbl.replace reference v r;
        r
  in
  List.fold_left
    (fun (k, bad) answers ->
      let exp = expected k in
      let bad = ref bad in
      Array.iteri (fun i r -> if i >= Array.length answers || r <> answers.(i) then incr bad) exp;
      (k + 1, !bad))
    (0, 0) cycles
  |> snd
