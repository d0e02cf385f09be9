(* The end-to-end pass: the shipped front door in its own process, driven
   over TCP in closed loop from this one, measured with tracing off. *)

open Workload

type record = {
  pos : int;
  start_s : float;  (** send time, from the start of the drive *)
  lat_s : float;
  answer : Oracle.answer;
}

let fail fmt = Printf.ksprintf failwith fmt

let connect (srv : Server.t) =
  match Wire.connect ~port:srv.Server.port with
  | Ok c -> c
  | Error e -> fail "logon failed: %s" e

(* Spawn the server and bring it to the point where the workload can start:
   data loaded, a session logged on. Returns the set-up time with it. *)
let bring_up ~exe (s : stream) =
  let t0 = Metrics.now () in
  let srv = Server.start ~exe ~tpch:(needs_tpch s.kind) in
  let conn = connect srv in
  if s.kind = Bi_replay then
    List.iter
      (fun sql ->
        match Wire.run conn sql with
        | Wire.Answer _ -> ()
        | Wire.Failed (code, msg) -> fail "set-up statement failed (%d %s): %s" code msg sql)
      (Gen.bi_setup ~seed:s.seed);
  (srv, conn, Metrics.now () -. t0)

let setup_statements (s : stream) =
  if s.kind = Bi_replay then List.length (Gen.bi_setup ~seed:s.seed) else 0

(* Bring the server up [reps] times and keep the last one running. *)
let setup ~exe ~reps s =
  let rec go i acc =
    let srv, conn, dt = bring_up ~exe s in
    if i >= reps then (srv, conn, Array.of_list (dt :: acc))
    else begin
      Wire.close conn;
      ignore (Server.stop srv);
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

(* Closed loop over [conns]: each connection takes the next stream position
   while [more pos elapsed] holds, sends it and waits for the answer. *)
let drive (s : stream) conns ~more =
  let check_rows = s.kind <> Bi_replay in
  let cursor = ref 0 and m = Mutex.create () in
  let t0 = Metrics.now () in
  let take () =
    Mutex.lock m;
    let pos = !cursor in
    let r = if more pos (Metrics.now () -. t0) then (incr cursor; Some pos) else None in
    Mutex.unlock m;
    r
  in
  let worker conn =
    let rec loop acc =
      match take () with
      | None -> acc
      | Some pos ->
          let sql = s.sql pos in
          let t = Metrics.now () in
          let o = Wire.run conn sql in
          let lat_s = Metrics.now () -. t in
          loop ({ pos; start_s = t -. t0; lat_s; answer = Oracle.of_wire ~check_rows o } :: acc)
    in
    loop []
  in
  let records =
    match conns with
    | [ c ] -> worker c
    | cs ->
        let results = List.map (fun c -> (c, ref [])) cs in
        let threads =
          List.map (fun (c, r) -> Thread.create (fun () -> r := worker c) ()) results
        in
        List.iter Thread.join threads;
        List.concat_map (fun (_, r) -> !r) results
  in
  (records, Metrics.now () -. t0)

(* Timed runs stop taking new rounds once [seconds] have passed and at
   least [min_rounds] whole rounds are done. *)
let timed_more kind ~seconds ~min_rounds pos elapsed =
  let size = round_size kind in
  pos mod size <> 0 || pos / size < min_rounds + warmup_rounds kind || elapsed < seconds

(* Wrong or failed answers among [records], by the workload's oracle. *)
let wrong_answers (s : stream) records =
  let failures = List.length (List.filter (fun r -> r.answer.Oracle.failed) records) in
  let mismatches =
    match s.kind with
    | Tpch_olap ->
        let expected = Oracle.tpch_expected () in
        List.length
          (List.filter
             (fun r -> (not r.answer.Oracle.failed) && not (Oracle.tpch_check expected (s.label r.pos) r.answer))
             records)
    | Bi_replay ->
        let bi = Option.get s.bi in
        let executed = List.map (fun r -> (bi.Gen.order.(r.pos), r.answer)) records in
        Oracle.bi_mismatches ~seed:s.seed bi executed
    | Etl_roundtrip ->
        let sorted = List.sort (fun a b -> compare a.pos b.pos) records in
        let arr = Array.of_list (List.map (fun r -> r.answer) sorted) in
        let n = etl_cycle_len in
        let cycles = List.init (Array.length arr / n) (fun k -> Array.sub arr (k * n) n) in
        Oracle.etl_mismatches ~seed:s.seed cycles
  in
  min (List.length records) (failures + mismatches)

type outcome = {
  kind : kind;
  label : int -> string;
  records : record list;
  wall_s : float;
  setup_s : float array;
  rss_mb : float;
  failed : int;
}

(* One session of the server: set up, drive, check. [more] decides how
   much of the stream is sent. *)
let run ~exe ~reps (s : stream) ~more =
  let srv, conn, setup_s = setup ~exe ~reps s in
  let extra = List.init (connections s.kind - 1) (fun _ -> connect srv) in
  let conns = conn :: extra in
  let records, wall_s = drive s conns ~more in
  let rss_mb = Server.peak_rss_mb srv in
  List.iter Wire.close conns;
  let server =
    match Server.stop srv with
    | Some st -> st
    | None -> failwith "server exited without its drain report"
  in
  let failed = wrong_answers s records in
  let sent = List.length records + setup_statements s in
  (* the server's own counters must agree with what the client saw *)
  let server_ok =
    server.Server.statements = sent && server.Server.shed = 0
    && server.Server.protocol_errors = 0
  in
  if not server_ok then
    Printf.eprintf
      "server counters disagree: %d statements (client sent %d), %d shed, %d protocol errors\n%!"
      server.Server.statements sent server.Server.shed server.Server.protocol_errors;
  let failed = if server_ok then failed else max failed 1 in
  { kind = s.kind; label = s.label; records; wall_s; setup_s; rss_mb; failed }

(* Answered records grouped by [pos / size]; only whole groups count. *)
let whole_blocks size records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if not r.answer.Oracle.failed then
        Hashtbl.replace tbl (r.pos / size) (r :: Option.value ~default:[] (Hashtbl.find_opt tbl (r.pos / size))))
    records;
  Hashtbl.fold (fun _ rs acc -> if List.length rs = size then rs :: acc else acc) tbl []

let ms r = r.lat_s *. 1000.

let metrics (o : outcome) =
  let attempted = List.length o.records in
  let measured = List.filter (fun r -> r.pos / round_size o.kind >= warmup_rounds o.kind) o.records in
  let lat =
    Metrics.sorted_copy
      (Array.of_list (List.filter_map (fun r -> if r.answer.Oracle.failed then None else Some (ms r)) measured))
  in
  (* The tail is taken per block of 2000 consecutive statements and the
     median over blocks is reported: the 11th-slowest of a whole BI run
     (p99.97 of ~35,000) is a single scheduler hiccup, not the server's
     tail. Shorter runs are one block. *)
  let tails =
    match whole_blocks 2000 measured with
    | _ :: _ :: _ as blocks ->
        List.map (fun rs -> Metrics.tail (Metrics.sorted_copy (Array.of_list (List.map ms rs)))) blocks
    | _ -> [ Metrics.tail lat ]
  in
  let tail = Metrics.median (Array.of_list (List.map snd tails)) in
  Printf.printf "latency_tail_ms is p%.3f of %d statements (median over %d block(s); %d answered)\n"
    (fst (List.hd tails)) (min 2000 (Array.length lat)) (List.length tails) (Array.length lat);
  (* throughput over the whole windows (TPC-H passes, ETL cycles, blocks of
     2000 BI statements): their statements over the sum of their times, each
     from its first send to its last answer. Window rates on etl_roundtrip
     fall into clusters up to ~1.5x apart within one run, so a median over
     windows jumps between clusters from run to run; the total does not. *)
  let window = if round_size o.kind > 1 then round_size o.kind else 2000 in
  let spans =
    List.map
      (fun rs ->
        let first = List.fold_left (fun a r -> Float.min a r.start_s) infinity rs in
        let last = List.fold_left (fun a r -> Float.max a (r.start_s +. r.lat_s)) neg_infinity rs in
        last -. first)
      (whole_blocks window measured)
  in
  let rates = Array.of_list (List.map (fun dt -> float_of_int window /. dt) spans) in
  (* On tpch_olap the median is taken over the 22 queries' own medians:
     with a few samples of each query, the median of the pooled samples
     falls on the boundary between two queries (Q19 and Q04), where it
     reads the slowest run of one and the fastest of the other. The other
     workloads have hundreds of samples around their median. *)
  let by_statement =
    if o.kind = Bi_replay then []
    else begin
      let by_label = Hashtbl.create 64 in
      List.iter
        (fun r ->
          if not r.answer.Oracle.failed then
            let l = o.label r.pos in
            Hashtbl.replace by_label l (ms r :: Option.value ~default:[] (Hashtbl.find_opt by_label l)))
        measured;
      let medians =
        List.map
          (fun (l, xs) -> (l, Metrics.median (Array.of_list xs)))
          (List.sort compare (Hashtbl.fold (fun l xs acc -> (l, xs) :: acc) by_label []))
      in
      Printf.printf "median ms by statement: %s\n"
        (String.concat " " (List.map (fun (l, m) -> Printf.sprintf "%s=%.2f" l m) medians));
      medians
    end
  in
  let p50 =
    if o.kind = Tpch_olap then Metrics.median (Array.of_list (List.map snd by_statement))
    else Metrics.percentile lat 50.
  in
  Printf.printf "window rates (1/s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (Metrics.sorted_copy rates))));
  Printf.printf "setup samples (s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") o.setup_s)));
  let ok = attempted - o.failed in
  [
    Metrics.m "setup_s" "s" (Metrics.median o.setup_s);
    Metrics.m "latency_p50_ms" "ms" p50;
    Metrics.m "latency_tail_ms" "ms" tail;
    Metrics.m "stmts_per_s" "1/s"
      (if spans = [] then float_of_int (List.length measured) /. o.wall_s
       else float_of_int (window * List.length spans) /. List.fold_left ( +. ) 0. spans);
    Metrics.m "correct_ratio" "ratio" (float_of_int ok /. float_of_int (max 1 attempted));
    Metrics.m "server_peak_rss_mb" "MiB" o.rss_mb;
  ]
