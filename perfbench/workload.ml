(* The three workloads as seeded statement streams. A stream is consumed in
   rounds: a TPC-H pass (22 queries), an ETL cycle, or one BI statement. *)

type kind = Tpch_olap | Bi_replay | Etl_roundtrip

let all = [ Tpch_olap; Bi_replay; Etl_roundtrip ]

let name = function
  | Tpch_olap -> "tpch_olap"
  | Bi_replay -> "bi_replay"
  | Etl_roundtrip -> "etl_roundtrip"

let of_string s = List.find_opt (fun k -> name k = s) all

(* Closed-loop client connections (never more than the host's 2 cores). *)
let connections = function Bi_replay -> 2 | Tpch_olap | Etl_roundtrip -> 1

let etl_cycle_len = List.length (Gen.etl_cycle ~seed:0 0)

let round_size = function
  | Tpch_olap -> Array.length Gen.tpch_queries
  | Etl_roundtrip -> etl_cycle_len
  | Bi_replay -> 1

(* Whole timed rounds a run completes at least. The tail sample is the
   11th slowest: 6 TPC-H passes put it among the 6 samples of the
   second-slowest query (Q20, behind Q9) rather than on a boundary between
   queries; 8 ETL cycles give 16 UPDATE ... FROM samples to hold it. *)
let min_rounds = function Tpch_olap -> 6 | Etl_roundtrip -> 8 | Bi_replay -> 1

(* Rounds sent before measuring starts, so the server's heap and caches
   reach their working size: they are checked but not timed. *)
let warmup_rounds = function Tpch_olap | Etl_roundtrip -> 1 | Bi_replay -> 0

(* Does the server load TPC-H before listening? *)
let needs_tpch = function Bi_replay -> false | Tpch_olap | Etl_roundtrip -> true

type stream = {
  kind : kind;
  seed : int;
  sql : int -> string;  (** statement at a stream position *)
  label : int -> string;  (** TPC-H query name or statement class *)
  bi : Gen.bi_stream option;
}

let stream kind ~seed =
  match kind with
  | Tpch_olap ->
      let passes = Hashtbl.create 16 in
      let q pos =
        let k = pos / 22 in
        let order =
          match Hashtbl.find_opt passes k with
          | Some o -> o
          | None ->
              let o = Gen.tpch_pass ~seed k in
              Hashtbl.replace passes k o;
              o
        in
        Gen.tpch_queries.(order.(pos mod 22))
      in
      { kind; seed; sql = (fun pos -> snd (q pos)); label = (fun pos -> fst (q pos)); bi = None }
  | Bi_replay ->
      let s = Gen.bi_stream ~seed in
      let sql pos = s.Gen.distinct.(s.Gen.order.(pos)) in
      { kind; seed; sql; label = (fun _ -> "bi"); bi = Some s }
  | Etl_roundtrip ->
      let cycles = Hashtbl.create 16 in
      let sql pos =
        let k = pos / etl_cycle_len in
        let c =
          match Hashtbl.find_opt cycles k with
          | Some c -> c
          | None ->
              let c = Array.of_list (Gen.etl_cycle ~seed k) in
              Hashtbl.replace cycles k c;
              c
        in
        c.(pos mod etl_cycle_len)
      in
      { kind; seed; sql; label = (fun pos -> Printf.sprintf "etl%02d" (pos mod etl_cycle_len)); bi = None }
