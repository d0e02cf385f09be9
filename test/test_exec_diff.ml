(* Differential tests for the vectorized executor: every query of the TPC-H
   and customer corpora runs through BOTH executors (row interpreter and
   batch path) and must produce the same multiset of rows — and the batch
   path at 2 and 4 morsel domains must reproduce the 1-domain result
   EXACTLY, row order included (morsel-driven execution is designed to be
   bit-identical to sequential). Plus targeted unit tests for the semantic
   corners the batch path must preserve: NULL join keys never match while
   GROUP BY coalesces NULLs, [compare_with_key] totality over NaN and mixed
   Int/Decimal keys, and the Morsel domain-pool scheduler itself (barrier,
   exception propagation, pool survival, counters). *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Backend = Hyperq_engine.Backend
module Executor = Hyperq_engine.Executor
module Batch_exec = Hyperq_engine.Batch_exec
module Xtra = Hyperq_xtra.Xtra
module Tpch = Hyperq_workload.Tpch
module Q = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer

let check = Alcotest.check
let ib = Alcotest.int
let bb = Alcotest.bool

(* Render every cell as a SQL literal, keeping row order. Both executors
   evaluate scalar expressions in the same per-row order, so even
   float-valued aggregates match exactly. *)
let lit (rows : Value.t array list) =
  List.map
    (fun (r : Value.t array) ->
      Array.to_list (Array.map Value.to_sql_literal r))
    rows

type outcome = Rows of string list list | Err of string

(* Orderless multiset fingerprint, for the row-vs-batch comparison (the two
   executors may legitimately order unsorted results differently). *)
let canon = function Rows rows -> Rows (List.sort compare rows) | e -> e

let run_mode p ?(domains = 1) mode sql =
  p.Pipeline.backend.Backend.exec_mode <- mode;
  Pipeline.set_exec_domains p domains;
  match
    Sql_error.protect (fun () -> (Pipeline.run_sql p sql).Pipeline.out_rows)
  with
  | Ok rows -> Rows (lit rows)
  | Error e -> Err (Sql_error.to_string e)

(* Returns the number of mismatching queries, failing the test on the first
   one with a readable diagnostic. Row vs batch@1 compares multisets;
   batch@2 and batch@4 must equal batch@1 exactly (row order and errors
   included). *)
let diff_corpus p (queries : (string * string) list) =
  let mismatches = ref 0 in
  List.iter
    (fun (name, sql) ->
      let row = canon (run_mode p Backend.Row sql) in
      let batch1 = run_mode p ~domains:1 Backend.Batch sql in
      List.iter
        (fun d ->
          let bd = run_mode p ~domains:d Backend.Batch sql in
          if bd <> batch1 then begin
            incr mismatches;
            let count = function Rows r -> List.length r | Err _ -> -1 in
            Alcotest.failf
              "%s: batch@%d diverges from batch@1 (%d vs %d rows)" name d
              (count bd) (count batch1)
          end)
        [ 2; 4 ];
      Pipeline.set_exec_domains p 1;
      let batch = canon batch1 in
      (match (row, batch) with
      | Rows a, Rows b ->
          if a <> b then begin
            incr mismatches;
            let show rows only =
              List.filter (fun r -> not (List.mem r only)) rows
              |> List.map (String.concat ", ")
              |> String.concat " | "
            in
            Alcotest.failf
              "%s: row/batch mismatch (%d vs %d rows); row-only: [%s] \
               batch-only: [%s]"
              name (List.length a) (List.length b) (show a b) (show b a)
          end
      | Err a, Err b ->
          if a <> b then begin
            incr mismatches;
            Alcotest.failf "%s: different errors: %s / %s" name a b
          end
      | Rows _, Err e ->
          incr mismatches;
          Alcotest.failf "%s: batch path failed where row path succeeded: %s"
            name e
      | Err e, Rows _ ->
          incr mismatches;
          Alcotest.failf "%s: row path failed where batch path succeeded: %s"
            name e);
      ())
    queries;
  !mismatches

let tpch_pipeline =
  lazy
    (let p = Pipeline.create () in
     let _ = Tpch.setup ~sf:0.002 p in
     p)

let test_tpch_differential () =
  let p = Lazy.force tpch_pipeline in
  check ib "tpch mismatches" 0 (diff_corpus p Q.all)

let test_customer_differential () =
  List.iter
    (fun (wl : Customer.workload) ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let queries =
        List.mapi
          (fun i (sql, _) ->
            (Printf.sprintf "%s#%d" wl.Customer.wl_sector i, sql))
          wl.Customer.wl_queries
        (* HELP SESSION & co. are emulated without touching the executor and
           answer with volatile session state — nothing to differentiate *)
        |> List.filter (fun (_, sql) ->
               not (String.length sql >= 4 && String.sub sql 0 4 = "HELP"))
      in
      check ib
        (wl.Customer.wl_sector ^ " mismatches")
        0 (diff_corpus p queries))
    (Customer.all ())

(* --- every operator shape through the one region implementation -------- *)

(* Joins whose left input has no morsel region (an aggregate, DISTINCT, TOP)
   probe in the region tail, and outer joins add the unmatched-right sweep
   after it; FLOAT sums and DISTINCT aggregates fold as one partial in row
   order; a global aggregate over no rows still returns its one row. FT has
   5000 rows, so its scans span three morsels. F is 1e16 in the first row of
   each G group and -1e16 in the last, small in between: folded in row order
   the small values vanish into the large one, so a sum folded in any other
   order differs in the printed digits. *)
let shapes_setup =
  let values rows = String.concat ", " rows in
  [
    "CREATE TABLE FT (ID INTEGER, K INTEGER, G INTEGER, F FLOAT, Z INTEGER)";
    "CREATE TABLE DT (K INTEGER, W VARCHAR(5))";
    "INSERT INTO FT (ID, K, G, F, Z) VALUES "
    ^ values
        (List.init 5000 (fun i ->
             Printf.sprintf "(%d, %d, %d, %s, %d)" i (i mod 700) (i mod 7)
               (if i < 7 then "1.0E16"
                else if i >= 4993 then "-1.0E16"
                else Printf.sprintf "%d.25" (i mod 3))
               (1 + (i mod 5))));
    "INSERT INTO DT (K, W) VALUES "
    ^ values
        (List.init 900 (fun i ->
             Printf.sprintf "(%s, 'w%d')"
               (if i mod 41 = 0 then "NULL" else string_of_int (i * 3 mod 1000))
               (i mod 5)));
  ]

let shapes_queries =
  [
    ( "left is an aggregate",
      "SEL D.K, D.S, T.W FROM (SEL K, SUM(Z) AS S FROM FT GROUP BY K) D JOIN \
       DT T ON D.K = T.K" );
    ( "left is DISTINCT",
      "SEL D.K, T.W FROM (SEL DISTINCT K FROM FT) D JOIN DT T ON D.K = T.K" );
    ( "left is TOP",
      "SEL D.ID, T.W FROM (SEL TOP 300 ID, K FROM FT ORDER BY ID DESC) D JOIN \
       DT T ON D.K = T.K" );
    ( "right outer, left an aggregate",
      "SEL D.K, D.C, T.K, T.W FROM (SEL K, COUNT(*) AS C FROM FT WHERE G = 1 \
       GROUP BY K) D RIGHT OUTER JOIN DT T ON D.K = T.K" );
    ( "full outer with residual, left an aggregate",
      "SEL D.K, D.C, T.K, T.W FROM (SEL K, COUNT(*) AS C FROM FT GROUP BY K) \
       D FULL OUTER JOIN DT T ON D.K = T.K AND D.C > 7" );
    ( "full outer, left a scan",
      "SEL F1.ID, T.K, T.W FROM FT F1 FULL OUTER JOIN DT T ON F1.K = T.K AND \
       F1.G = 2" );
    ( "right outer, left TOP",
      "SEL D.ID, T.W FROM (SEL TOP 40 ID, K FROM FT ORDER BY ID) D RIGHT \
       OUTER JOIN DT T ON D.K = T.K" );
    ( "FLOAT sum/avg over a scan",
      "SEL G, SUM(F), AVG(F), COUNT(*) FROM FT GROUP BY G" );
    ("global FLOAT sum/avg", "SEL SUM(F), AVG(F) FROM FT");
    ( "FLOAT sum/avg over a join",
      "SEL T.W, SUM(F1.F), AVG(F1.F) FROM FT F1 JOIN DT T ON F1.K = T.K GROUP \
       BY T.W" );
    ( "COUNT(DISTINCT) over a scan",
      "SEL G, COUNT(DISTINCT K), COUNT(DISTINCT ID / 4) FROM FT GROUP BY G" );
    ( "global COUNT(DISTINCT)",
      "SEL COUNT(DISTINCT K), COUNT(DISTINCT ID / 4) FROM FT" );
    ( "COUNT(DISTINCT) over a join",
      "SEL T.W, COUNT(DISTINCT F1.ID / 4), SUM(F1.Z) FROM FT F1 JOIN DT T ON \
       F1.K = T.K GROUP BY T.W" );
    ( "global aggregate over no rows",
      "SEL COUNT(*), SUM(F), MIN(K) FROM FT WHERE K < 0" );
    ( "grouped aggregate over no rows",
      "SEL G, COUNT(*) FROM FT WHERE K < 0 GROUP BY G" );
    ( "filter over an aggregate",
      "SEL G, SUM(Z) FROM FT GROUP BY G HAVING SUM(Z) > 2140" );
    ( "division by zero in a build-side key",
      "SEL T.W FROM DT T JOIN FT F1 ON T.K = 10 / (F1.Z - 1)" );
  ]

let test_shapes_differential () =
  let p = Pipeline.create () in
  List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) shapes_setup;
  check ib "shape mismatches" 0 (diff_corpus p shapes_queries)

(* --- NULL semantics: join keys vs grouping ----------------------------- *)

let null_fixture () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE JL (K INTEGER, V INTEGER)";
      "CREATE TABLE JR (K INTEGER, V INTEGER)";
      "INSERT INTO JL (K, V) VALUES (1, 10), (NULL, 20), (2, 30)";
      "INSERT INTO JR (K, V) VALUES (1, 100), (NULL, 200), (3, 300)";
    ];
  (be, run)

let rowcount_both be run sql =
  be.Backend.exec_mode <- Backend.Batch;
  let batch = (run sql).Backend.res_rowcount in
  be.Backend.exec_mode <- Backend.Row;
  let row = (run sql).Backend.res_rowcount in
  check ib ("row/batch agree: " ^ sql) row batch;
  batch

let test_null_join_keys_never_match () =
  let be, run = null_fixture () in
  (* NULL = NULL is unknown: the NULL-keyed rows must not pair up *)
  check ib "inner join drops NULL keys" 1
    (rowcount_both be run
       "SELECT L.V FROM JL AS L INNER JOIN JR AS R ON L.K = R.K");
  (* ... but outer joins still emit the NULL-keyed rows, null-extended *)
  check ib "left outer keeps them on the left" 3
    (rowcount_both be run
       "SELECT L.V FROM JL AS L LEFT OUTER JOIN JR AS R ON L.K = R.K");
  check ib "full outer keeps both sides" 5
    (rowcount_both be run
       "SELECT L.V, R.V FROM JL AS L FULL OUTER JOIN JR AS R ON L.K = R.K")

let test_null_group_keys_coalesce () =
  let be, run = null_fixture () in
  ignore (run "INSERT INTO JL (K, V) VALUES (NULL, 40)");
  (* GROUP BY: the two NULL keys form ONE group *)
  check ib "null group coalesces" 3
    (rowcount_both be run "SELECT L.K, COUNT(*) FROM JL AS L GROUP BY L.K");
  check ib "distinct coalesces nulls too" 3
    (rowcount_both be run "SELECT DISTINCT L.K FROM JL AS L")

(* --- DML: set-based matching, row vs batch ------------------------------ *)

(* ETL-shaped tables: SRC has ~2500 rows with (K, LN) unique and some NULL
   keys, TGT a few hundred rows with duplicates and NULL keys, DK decimal
   keys (some fractional, so they never equal an INTEGER), RNG disjoint
   ranges for a join with no equality conjunct. *)
let dml_setup =
  let values rows = String.concat ", " rows in
  [
    "CREATE TABLE TGT (K INTEGER, LN INTEGER, V DECIMAL(12,2), S VARCHAR(5))";
    "CREATE TABLE SRC (K INTEGER, LN INTEGER, V DECIMAL(12,2), FLAG VARCHAR(1))";
    "CREATE TABLE DK (K DECIMAL(10,2), W INTEGER)";
    "CREATE TABLE RNG (LO INTEGER, HI INTEGER, TAG VARCHAR(5))";
    "INSERT INTO SRC (K, LN, V, FLAG) VALUES "
    ^ values
        (List.init 2500 (fun i ->
             let k = i + 1 in
             Printf.sprintf "(%s, %d, %d.25, '%s')"
               (if k mod 97 = 0 then "NULL" else string_of_int (k mod 1200))
               (k / 1200) (k mod 50)
               (match k mod 3 with 0 -> "Y" | 1 -> "N" | _ -> "D")));
    "INSERT INTO TGT (K, LN, V, S) VALUES "
    ^ values
        (List.init 600 (fun i ->
             let k = i + 1 in
             Printf.sprintf "(%s, %d, %d, 'orig')"
               (if k mod 53 = 0 then "NULL" else string_of_int (k * 2 mod 1300))
               (k mod 3) (k mod 20)));
    "INSERT INTO DK (K, W) VALUES "
    ^ values
        (List.init 100 (fun i ->
             Printf.sprintf "(%d.%s, %d)" (3 * i)
               (if i mod 4 = 0 then "50" else "00")
               (i + 7)));
    "INSERT INTO RNG (LO, HI, TAG) VALUES (0, 99, 'A'), (200, 299, 'B'), \
     (1000, 1100, 'C')";
  ]

let dml_statements =
  [
    (* INSERT ... SELECT *)
    "INSERT INTO TGT (K, LN, V, S) SEL K, LN, V, 'I' FROM SRC WHERE FLAG = \
     'Y' AND K < 300";
    (* equality key plus a residual conjunct; NULL keys never match *)
    "UPD TGT FROM SRC SET V = TGT.V + SRC.V, S = 'U' WHERE TGT.K = SRC.K AND \
     TGT.LN = SRC.LN AND SRC.FLAG <> 'N'";
    (* no equality conjunct: every target row is a candidate *)
    "UPD TGT FROM RNG SET S = RNG.TAG WHERE TGT.K BETWEEN RNG.LO AND RNG.HI";
    (* INTEGER target key against DECIMAL FROM keys *)
    "UPD TGT FROM DK SET LN = DK.W WHERE TGT.K = DK.K";
    (* MERGE, matched and unmatched *)
    "MERGE INTO TGT AS T USING (SEL K, LN, V FROM SRC WHERE FLAG = 'D') S ON \
     (T.K = S.K AND T.LN = S.LN) WHEN MATCHED THEN UPDATE SET V = T.V + S.V \
     WHEN NOT MATCHED THEN INSERT (K, LN, V, S) VALUES (S.K, S.LN, S.V, 'M')";
    (* DELETE ... FROM, then a plain DELETE *)
    "DEL TGT FROM SRC WHERE TGT.K = SRC.K AND TGT.LN = SRC.LN AND SRC.FLAG = \
     'Y' AND TGT.V > 20";
    "DELETE FROM TGT WHERE V < 3";
  ]

(* Activity count (or error) of every statement, then TGT's rows in scan
   order, on a fresh pipeline in [mode] at [domains]. *)
let run_dml ?(domains = 1) mode =
  let p = Pipeline.create () in
  List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) dml_setup;
  p.Pipeline.backend.Backend.exec_mode <- mode;
  Pipeline.set_exec_domains p domains;
  let counts =
    List.map
      (fun sql ->
        match
          Sql_error.protect (fun () -> (Pipeline.run_sql p sql).Pipeline.out_count)
        with
        | Ok n -> string_of_int n
        | Error e -> Sql_error.to_string e)
      dml_statements
  in
  let rows = lit (Pipeline.run_sql p "SEL * FROM TGT").Pipeline.out_rows in
  let untouched_nulls =
    (Pipeline.run_sql p
       "SEL * FROM TGT WHERE K IS NULL AND S = 'orig'")
      .Pipeline.out_count
  in
  (counts, rows, untouched_nulls)

let test_dml_differential () =
  let counts, rows, nulls = run_dml Backend.Row in
  let sl = Alcotest.(list string) in
  List.iter
    (fun d ->
      let bcounts, brows, bnulls = run_dml ~domains:d Backend.Batch in
      let tag = Printf.sprintf "batch@%d" d in
      check sl (tag ^ " activity counts = row") counts bcounts;
      check ib (tag ^ " row count") (List.length rows) (List.length brows);
      check bb (tag ^ " table multiset = row") true
        (List.sort compare rows = List.sort compare brows);
      check ib (tag ^ " NULL-keyed rows untouched") nulls bnulls;
      if d > 1 then begin
        let _, b1rows, _ = run_dml ~domains:1 Backend.Batch in
        check bb (tag ^ " table order = batch@1") true (b1rows = brows)
      end)
    [ 1; 2; 4 ];
  (* every statement did something, and none failed *)
  List.iteri
    (fun i c ->
      check bb
        (Printf.sprintf "statement %d affected rows (%s)" i c)
        true
        (match int_of_string_opt c with Some n -> n > 0 | None -> false))
    counts;
  (* TGT's 11 NULL-keyed rows all have V >= 3: no statement may touch them *)
  check ib "NULL-keyed rows untouched" 11 nulls

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Teradata raises 7547 when one target row is matched by two source rows,
   in UPDATE ... FROM and in MERGE's WHEN MATCHED UPDATE; the target is left
   as it was. *)
let test_dml_multi_match_raises () =
  List.iter
    (fun mode ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) dml_setup;
      p.Pipeline.backend.Backend.exec_mode <- mode;
      let before = lit (Pipeline.run_sql p "SEL * FROM TGT").Pipeline.out_rows in
      List.iter
        (fun sql ->
          match Sql_error.protect (fun () -> Pipeline.run_sql p sql) with
          | Ok o ->
              Alcotest.failf "expected error 7547, got %d row(s): %s"
                o.Pipeline.out_count sql
          | Error e ->
              check bb ("7547 text: " ^ e.Sql_error.message) true
                (contains e.Sql_error.message
                   "Target row updated by multiple source rows"))
        [
          (* SRC holds up to three rows per K (one per LN) *)
          "UPD TGT FROM SRC SET V = SRC.V WHERE TGT.K = SRC.K";
          "MERGE INTO TGT AS T USING (SEL K, V FROM SRC) S ON (T.K = S.K) \
           WHEN MATCHED THEN UPDATE SET V = S.V";
        ];
      check bb "target unchanged" true
        (lit (Pipeline.run_sql p "SEL * FROM TGT").Pipeline.out_rows = before))
    [ Backend.Row; Backend.Batch ]

(* Equality keys across representations: a DATE equals the TIMESTAMP at its
   midnight, a fractional DECIMAL the FLOAT of the same value. The binder
   casts neither side, so the hash matcher and the hash joins see the raw
   values; [Value.hash] must agree with [=] for them. Expected activity
   counts and rows, in Row mode and in Batch mode at 1/2/4 domains. *)
let test_cross_type_keys () =
  let setup =
    [
      "CREATE TABLE HD (D DATE, P DECIMAL(6,2), N INTEGER)";
      "CREATE TABLE HS (TS TIMESTAMP(0), F FLOAT, M INTEGER)";
      "INSERT INTO HD (D, P, N) VALUES (DATE '2020-01-02', 1.50, 0), \
       (DATE '2020-01-03', 2.25, 0), (DATE '2020-01-04', 3.10, 0)";
      "INSERT INTO HS (TS, F, M) VALUES (TIMESTAMP '2020-01-02 00:00:00', \
       1.5, 7), (TIMESTAMP '2020-01-03 10:00:00', 2.25, 8), (TIMESTAMP \
       '2020-01-04 00:00:00', 3.2, 9)";
    ]
  in
  let statements =
    [
      ("UPD HD FROM HS SET N = HS.M WHERE HD.D = HS.TS", 2);
      ("SEL HD.N, HS.M FROM HD JOIN HS ON HD.D = HS.TS", 2);
      ("UPD HD FROM HS SET N = HS.M + 100 WHERE HD.P = HS.F", 2);
      ("SEL HD.N, HS.M FROM HD JOIN HS ON HD.P = HS.F", 2);
      ("DEL HD FROM HS WHERE HD.D = HS.TS AND HD.P = HS.F", 1);
    ]
  in
  let run ?(domains = 1) mode =
    let p = Pipeline.create () in
    List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) setup;
    p.Pipeline.backend.Backend.exec_mode <- mode;
    Pipeline.set_exec_domains p domains;
    let tag =
      match mode with
      | Backend.Row -> "row"
      | Backend.Batch -> Printf.sprintf "batch@%d" domains
    in
    List.iter
      (fun (sql, n) ->
        check ib (tag ^ ": " ^ sql) n (Pipeline.run_sql p sql).Pipeline.out_count)
      statements;
    check
      Alcotest.(list (list string))
      (tag ^ ": HD after the DML")
      [ [ "DATE '2020-01-03'"; "2.25"; "108" ]; [ "DATE '2020-01-04'"; "3.10"; "9" ] ]
      (List.sort compare (lit (Pipeline.run_sql p "SEL * FROM HD").Pipeline.out_rows))
  in
  run Backend.Row;
  List.iter (fun d -> run ~domains:d Backend.Batch) [ 1; 2; 4 ]

(* A join equality whose one side is a subquery correlated on the same
   input as the other side: as a hash key it would be evaluated with the
   other input's row in scope, not the one it reads, so the split must
   leave it in the residual. *)
let test_join_key_with_correlated_subquery () =
  let setup =
    [
      "CREATE TABLE JA (K INTEGER, X INTEGER)";
      "CREATE TABLE JB (G INTEGER, Y INTEGER)";
      "CREATE TABLE JC (G INTEGER, K INTEGER)";
      "INSERT INTO JA (K, X) VALUES (1, 10), (2, 20), (3, 30), (4, 40)";
      "INSERT INTO JB (G, Y) VALUES (1, 100), (2, 200), (3, 300)";
      "INSERT INTO JC (G, K) VALUES (1, 1), (1, 2), (2, 3), (3, 4), (3, 1), (4, 4)";
    ]
  in
  let p = Pipeline.create () in
  List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) setup;
  List.iter
    (fun (sql, expected) ->
      let want = Rows expected in
      check bb ("row: " ^ sql) true (canon (run_mode p Backend.Row sql) = canon want);
      List.iter
        (fun d ->
          check bb
            (Printf.sprintf "batch@%d: %s" d sql)
            true
            (canon (run_mode p ~domains:d Backend.Batch sql) = canon want))
        [ 1; 2 ])
    [
      ( "SEL A.X, B.Y FROM JA A JOIN JB B ON A.K = B.G AND A.K = (SEL \
         MIN(C.K) FROM JC C WHERE C.G = A.X / 10)",
        [ [ "10"; "100" ] ] );
      ( "SEL A.X, B.Y FROM JA A LEFT JOIN JB B ON A.K = B.G AND A.K = (SEL \
         MIN(C.K) FROM JC C WHERE C.G = A.X / 10)",
        [ [ "10"; "100" ]; [ "20"; "NULL" ]; [ "30"; "NULL" ]; [ "40"; "NULL" ] ] );
      ( "SEL A.X, B.Y FROM JA A JOIN JB B ON B.G = (SEL MIN(C.K) FROM JC C \
         WHERE C.G = B.Y / 100) AND A.K = B.G",
        [ [ "10"; "100" ] ] );
    ]

(* Scans fold a table's newly inserted rows in on first use. A correlated
   subquery in a parallel filter scans its table on every morsel domain at
   once, right after an INSERT: every domain must see each row once, and
   the table must keep each row once. *)
let test_scan_after_insert_parallel () =
  List.iter
    (fun d ->
      let p = Pipeline.create () in
      p.Pipeline.backend.Backend.exec_mode <- Backend.Batch;
      Pipeline.set_exec_domains p d;
      let run sql = Pipeline.run_sql p sql in
      let count sql =
        match (run sql).Pipeline.out_rows with
        | [ [| v |] ] -> Value.to_string v
        | _ -> Alcotest.failf "one count expected: %s" sql
      in
      ignore (run "CREATE TABLE DIG (N INTEGER)");
      ignore
        (run
           ("INSERT INTO DIG (N) VALUES "
           ^ String.concat ", " (List.init 100 (fun i -> Printf.sprintf "(%d)" i))));
      ignore (run "CREATE TABLE OUTR (K INTEGER)");
      ignore (run "INSERT INTO OUTR (K) SEL A.N * 100 + B.N FROM DIG A CROSS JOIN DIG B WHERE A.N < 60");
      ignore (run "CREATE TABLE INR (K INTEGER)");
      for round = 1 to 4 do
        let tag = Printf.sprintf "batch@%d round %d" d round in
        ignore (run "DELETE FROM INR");
        ignore (run "INSERT INTO INR (K) SEL K FROM OUTR WHERE K MOD 50 = 0");
        (* nothing has scanned INR since the INSERT *)
        check Alcotest.string (tag ^ ": semi-join count") "239"
          (count
             "SEL COUNT(*) FROM OUTR O WHERE EXISTS (SEL 1 FROM INR I WHERE \
              I.K = O.K OR I.K = O.K + 1)");
        check Alcotest.string (tag ^ ": INR rows") "120" (count "SEL COUNT(*) FROM INR")
      done)
    [ 2; 4 ]

(* --- compare_with_key totality ----------------------------------------- *)

let sk dir nulls = { Xtra.key = Xtra.Const Value.Null; dir; nulls }

let test_compare_with_key_nan () =
  let k = sk Xtra.Asc Xtra.Nulls_last in
  let nan = Value.Float Float.nan and one = Value.Float 1.0 in
  let c1 = Executor.compare_with_key k nan one in
  let c2 = Executor.compare_with_key k one nan in
  (* NaN must participate in a total order: antisymmetric, reflexive *)
  check ib "nan vs x antisymmetric" 0 (compare c1 (-c2));
  check ib "nan = nan" 0 (Executor.compare_with_key k nan nan);
  check bb "nan ordered somewhere" true (c1 <> 0);
  (* and NULL ordering still dominates the value comparison *)
  check ib "null after nan under NULLS LAST" 1
    (Executor.compare_with_key k Value.Null nan)

let test_compare_with_key_int_vs_decimal () =
  let k = sk Xtra.Asc Xtra.Nulls_first in
  let d s = Value.Decimal (Decimal.of_string s) in
  (* numerically equal across representations *)
  check ib "1 = 1.0" 0 (Executor.compare_with_key k (Value.Int 1L) (d "1.0"));
  check ib "1.5 between 1 and 2" 1
    (Executor.compare_with_key k (d "1.5") (Value.Int 1L));
  check ib "1.5 < 2" (-1)
    (Executor.compare_with_key k (d "1.5") (Value.Int 2L));
  (* DESC flips the value comparison *)
  let kd = sk Xtra.Desc Xtra.Nulls_first in
  check ib "desc flips" 1
    (Executor.compare_with_key kd (Value.Int 1L) (Value.Int 2L))

(* --- batch executor bookkeeping ---------------------------------------- *)

let test_batch_counters_move () =
  Batch_exec.reset_counters ();
  let be, run = null_fixture () in
  be.Backend.exec_mode <- Backend.Batch;
  ignore (run "SELECT L.K, COUNT(*) FROM JL AS L GROUP BY L.K");
  let c = Batch_exec.counters () in
  check bb "scan rows counted" true (List.assoc "scan_rows" c > 0);
  check bb "groups counted" true (List.assoc "agg_groups" c > 0);
  ignore (run "SELECT L.V FROM JL AS L INNER JOIN JR AS R ON L.K = R.K");
  let c = Batch_exec.counters () in
  check bb "probe rows counted" true (List.assoc "join_probe_rows" c > 0);
  check bb "build rows counted" true (List.assoc "join_build_rows" c > 0)

(* --- morsel-driven parallel execution ---------------------------------- *)

(* The per-op debug instrumentation (HYPERQ_EXEC_DEBUG) wraps operators in
   timing closures; parallel regions must stay bit-identical under it. *)
let test_parallel_debug_determinism () =
  let p = Lazy.force tpch_pipeline in
  Unix.putenv "HYPERQ_EXEC_DEBUG" "1";
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; the executor treats empty as off *)
      Unix.putenv "HYPERQ_EXEC_DEBUG" "";
      Pipeline.set_exec_domains p 1)
    (fun () ->
      List.iteri
        (fun i (name, sql) ->
          if i < 3 then begin
            let b1 = run_mode p ~domains:1 Backend.Batch sql in
            let b4 = run_mode p ~domains:4 Backend.Batch sql in
            check bb (name ^ ": debug batch@4 = batch@1") true (b1 = b4)
          end)
        Q.all)

(* An expression raising inside a morsel must surface as the same Sql_error
   the sequential path reports (earliest-morsel error wins), and the domain
   pool must survive to run the next statement. *)
let test_morsel_error_propagation () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE BIG (ID INTEGER, V INTEGER)");
  (* ~5000 rows = several 2048-row morsels; a single zero near the middle *)
  let values =
    String.concat ", "
      (List.init 5000 (fun i ->
           Printf.sprintf "(%d, %d)" i (if i = 3000 then 0 else 1)))
  in
  ignore (run ("INSERT INTO BIG (ID, V) VALUES " ^ values));
  be.Backend.exec_mode <- Backend.Batch;
  let err sql d =
    be.Backend.exec_domains <- d;
    match Sql_error.protect (fun () -> run sql) with
    | Ok _ -> Alcotest.fail "expected a division-by-zero error"
    | Error e -> Sql_error.to_string e
  in
  let e1 = err "SELECT 10 / B.V FROM BIG AS B" 1 in
  let e4 = err "SELECT 10 / B.V FROM BIG AS B" 4 in
  Alcotest.(check string) "same error at 1 and 4 domains" e1 e4;
  (* a failing join key, on the build side (evaluated on the caller as the
     build drains) and on the probe side (in the probe morsels) *)
  ignore (run "CREATE TABLE SMALL (ID INTEGER)");
  ignore (run "INSERT INTO SMALL (ID) VALUES (1), (2), (10)");
  List.iter
    (fun sql ->
      let e1 = err sql 1 in
      Alcotest.(check string) ("division by zero: " ^ sql) "division by zero"
        (String.sub e1 (String.length e1 - 16) 16);
      Alcotest.(check string) ("same error at 1 and 4 domains: " ^ sql) e1
        (err sql 4))
    [
      "SELECT S.ID FROM SMALL AS S JOIN BIG AS B ON S.ID = 10 / B.V";
      "SELECT S.ID FROM BIG AS B JOIN SMALL AS S ON 10 / B.V = S.ID";
    ];
  (* pool survived the in-morsel exception: the next parallel statement
     runs to completion with correct results *)
  be.Backend.exec_domains <- 4;
  check ib "pool survives for the next statement" 5000
    (run "SELECT B.ID FROM BIG AS B").Backend.res_rowcount

let test_morsel_pool_runs_all_bodies () =
  let n = 4 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Hyperq_engine.Morsel.run ~domains:n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i h ->
      check ib (Printf.sprintf "body %d ran exactly once" i) 1 (Atomic.get h))
    hits

let test_morsel_pool_survives_exception () =
  (try
     Hyperq_engine.Morsel.run ~domains:3 (fun i ->
         if i > 0 then failwith "boom");
     Alcotest.fail "expected the body exception to propagate"
   with Failure msg -> Alcotest.(check string) "propagated" "boom" msg);
  (* pool usable again after the failed run *)
  let total = Atomic.make 0 in
  Hyperq_engine.Morsel.run ~domains:4 (fun _ -> Atomic.incr total);
  check ib "pool reusable after a raising body" 4 (Atomic.get total)

let test_morsel_stats_move () =
  let module Morsel = Hyperq_engine.Morsel in
  Morsel.reset_stats ();
  Morsel.run ~domains:2 (fun i ->
      Morsel.note_morsel i;
      Morsel.note_morsel i);
  let s = Morsel.stats () in
  check bb "parallel_runs moved" true (List.assoc "parallel_runs" s >= 1.);
  check bb "bodies_run counts both bodies" true
    (List.assoc "bodies_run" s >= 2.);
  check bb "per-domain morsel counters present" true
    (List.exists
       (fun (k, v) ->
         String.length k > 15
         && String.sub k 0 15 = "morsels_domain_"
         && v >= 1.)
       s);
  Morsel.reset_stats ();
  check bb "reset clears run counters" true
    (List.assoc "parallel_runs" (Morsel.stats ()) = 0.)

let suite =
  [
    ("tpch row/batch differential", `Slow, test_tpch_differential);
    ("customer row/batch differential", `Slow, test_customer_differential);
    ("operator shapes row/batch differential", `Quick, test_shapes_differential);
    ("null join keys never match", `Quick, test_null_join_keys_never_match);
    ("null group keys coalesce", `Quick, test_null_group_keys_coalesce);
    ("dml row/batch differential", `Quick, test_dml_differential);
    ("dml multi-match raises 7547", `Quick, test_dml_multi_match_raises);
    ("dml and joins on cross-type keys", `Quick, test_cross_type_keys);
    ( "join key holding a correlated subquery",
      `Quick,
      test_join_key_with_correlated_subquery );
    ("scan after insert, parallel subquery", `Quick, test_scan_after_insert_parallel);
    ("compare_with_key: NaN total order", `Quick, test_compare_with_key_nan);
    ( "compare_with_key: Int vs Decimal",
      `Quick,
      test_compare_with_key_int_vs_decimal );
    ("batch counters move", `Quick, test_batch_counters_move);
    ( "parallel determinism under exec debug",
      `Slow,
      test_parallel_debug_determinism );
    ("morsel error propagation + pool survival", `Quick, test_morsel_error_propagation);
    ("morsel pool runs all bodies", `Quick, test_morsel_pool_runs_all_bodies);
    ( "morsel pool survives exceptions",
      `Quick,
      test_morsel_pool_survives_exception );
    ("morsel stats move", `Quick, test_morsel_stats_move);
  ]
