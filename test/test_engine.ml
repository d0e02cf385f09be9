(* Engine tests: the backend substrate executing ANSI SQL — operators, NULL
   semantics, window functions, recursion, DML, transactions — plus qcheck
   properties on sorting/distinct/set operations. *)

open Hyperq_sqlvalue
module Backend = Hyperq_engine.Backend
module Storage = Hyperq_engine.Storage

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int
let sb = Alcotest.string

let fresh () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE NUMS (N INTEGER, GRP VARCHAR(5), W DECIMAL(8,2))";
      "INSERT INTO NUMS (N, GRP, W) VALUES (1,'a',1.50),(2,'a',2.50),(3,'b',0.25),(4,'b',NULL),(NULL,'c',9.00)";
    ];
  (be, run)

let cell run sql =
  let r = run sql in
  match r.Backend.res_rows with
  | [ row ] when Array.length row = 1 -> Value.to_string row.(0)
  | rows -> Alcotest.failf "expected one cell, got %d rows" (List.length rows)

let col run sql =
  List.map (fun (r : Value.t array) -> Value.to_string r.(0)) (run sql).Backend.res_rows

let rows_of run sql = (run sql).Backend.res_rows

(* ------------------------------------------------------------------ *)

let test_scan_filter_project () =
  let _, run = fresh () in
  check ib "all rows" 5 (run "SELECT N.N FROM NUMS AS N").Backend.res_rowcount;
  check (Alcotest.list sb) "filter + project"
    [ "2"; "3" ]
    (col run "SELECT N.N FROM NUMS AS N WHERE N.N > 1 AND N.N < 4 ORDER BY N.N");
  check (Alcotest.list sb) "expressions" [ "11"; "12" ]
    (col run "SELECT N.N + 10 FROM NUMS AS N WHERE N.N <= 2 ORDER BY 1")

let test_null_semantics () =
  let _, run = fresh () in
  (* NULL never satisfies a comparison *)
  check ib "N > 0 excludes NULL" 4
    (run "SELECT N.N FROM NUMS AS N WHERE N.N > 0").Backend.res_rowcount;
  check ib "NOT (N > 0) also excludes NULL" 0
    (run "SELECT N.N FROM NUMS AS N WHERE NOT (N.N > 0)").Backend.res_rowcount;
  check ib "IS NULL" 1
    (run "SELECT N.N FROM NUMS AS N WHERE N.N IS NULL").Backend.res_rowcount;
  (* IN with NULLs is three-valued *)
  check ib "x IN (...) skips null rows" 2
    (run "SELECT N.N FROM NUMS AS N WHERE N.N IN (1, 2)").Backend.res_rowcount;
  (* COALESCE / NULLIF *)
  check sb "coalesce" "0" (cell run "SELECT COALESCE(NULL, 0) FROM NUMS AS N WHERE N.N = 1");
  check sb "nullif" "NULL" (cell run "SELECT NULLIF(3, 3) FROM NUMS AS N WHERE N.N = 1")

let test_aggregates () =
  let _, run = fresh () in
  check sb "count(*) counts nulls" "5" (cell run "SELECT COUNT(*) FROM NUMS AS N");
  check sb "count(col) skips nulls" "4" (cell run "SELECT COUNT(N.N) FROM NUMS AS N");
  check sb "sum" "10" (cell run "SELECT SUM(N.N) FROM NUMS AS N");
  check sb "avg of ints is exact" "2.5" (cell run "SELECT AVG(N.N) FROM NUMS AS N");
  check sb "min/max skip nulls" "0.25"
    (cell run "SELECT MIN(N.W) FROM NUMS AS N");
  check sb "sum over empty set is NULL" "NULL"
    (cell run "SELECT SUM(N.N) FROM NUMS AS N WHERE N.N > 100");
  check sb "count over empty set is 0" "0"
    (cell run "SELECT COUNT(*) FROM NUMS AS N WHERE N.N > 100");
  check sb "count distinct" "2"
    (cell run "SELECT COUNT(DISTINCT N.GRP) FROM NUMS AS N WHERE N.N IS NOT NULL")

let test_group_by () =
  let _, run = fresh () in
  let r =
    rows_of run
      "SELECT N.GRP, COUNT(*), SUM(N.N) FROM NUMS AS N GROUP BY N.GRP ORDER BY N.GRP"
  in
  check ib "three groups" 3 (List.length r);
  (match r with
  | [ a; b; c ] ->
      check sb "group a" "a,2,3" (String.concat "," (Array.to_list (Array.map Value.to_string a)));
      check sb "group b" "b,2,7" (String.concat "," (Array.to_list (Array.map Value.to_string b)));
      check sb "group c sum null" "c,1,NULL"
        (String.concat "," (Array.to_list (Array.map Value.to_string c)))
  | _ -> Alcotest.fail "groups");
  check (Alcotest.list sb) "having" [ "a"; "b" ]
    (col run "SELECT N.GRP FROM NUMS AS N GROUP BY N.GRP HAVING COUNT(N.N) >= 2 ORDER BY 1")

let test_joins () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE L (K INTEGER, V VARCHAR(5))");
  ignore (run "CREATE TABLE R (K INTEGER, W VARCHAR(5))");
  ignore (run "INSERT INTO L (K, V) VALUES (1,'l1'),(2,'l2'),(3,'l3'),(NULL,'ln')");
  ignore (run "INSERT INTO R (K, W) VALUES (2,'r2'),(3,'r3'),(4,'r4'),(NULL,'rn')");
  check ib "inner (hash) join" 2
    (run "SELECT L.V FROM L AS L INNER JOIN R AS R ON L.K = R.K").Backend.res_rowcount;
  check ib "null keys never match" 2
    (run "SELECT L.V FROM L AS L, R AS R WHERE L.K = R.K").Backend.res_rowcount;
  check ib "left outer keeps all left" 4
    (run "SELECT L.V FROM L AS L LEFT OUTER JOIN R AS R ON L.K = R.K").Backend.res_rowcount;
  check ib "right outer keeps all right" 4
    (run "SELECT R.W FROM L AS L RIGHT OUTER JOIN R AS R ON L.K = R.K").Backend.res_rowcount;
  check ib "full outer" 6
    (run "SELECT L.V FROM L AS L FULL OUTER JOIN R AS R ON L.K = R.K").Backend.res_rowcount;
  check ib "cross join" 16
    (run "SELECT L.V FROM L AS L CROSS JOIN R AS R").Backend.res_rowcount;
  (* non-equi join falls back to nested loop: only (3,2) satisfies K>K *)
  check ib "theta join" 1
    (run "SELECT L.V FROM L AS L INNER JOIN R AS R ON L.K > R.K").Backend.res_rowcount;
  (* join with residual predicate on top of the hash keys *)
  check ib "hash join with residual" 1
    (run "SELECT L.V FROM L AS L INNER JOIN R AS R ON L.K = R.K AND R.W = 'r3'").Backend.res_rowcount

let test_window_functions () =
  let _, run = fresh () in
  check (Alcotest.list sb) "rank with ties"
    [ "1"; "1"; "3" ]
    (col run
       "SELECT RANK() OVER (ORDER BY X.T ASC) FROM (SELECT CASE WHEN N.N <= 2 \
        THEN 0 ELSE 1 END AS T FROM NUMS AS N WHERE N.N <= 3) AS X ORDER BY 1");
  check (Alcotest.list sb) "dense_rank"
    [ "1"; "1"; "2" ]
    (col run
       "SELECT DENSE_RANK() OVER (ORDER BY X.T ASC) FROM (SELECT CASE WHEN N.N \
        <= 2 THEN 0 ELSE 1 END AS T FROM NUMS AS N WHERE N.N <= 3) AS X ORDER BY 1");
  check (Alcotest.list sb) "row_number is dense"
    [ "1"; "2"; "3"; "4"; "5" ]
    (col run "SELECT ROW_NUMBER() OVER (ORDER BY N.N ASC NULLS LAST) FROM NUMS AS N ORDER BY 1");
  (* running sum: default frame = unbounded preceding .. current row *)
  check (Alcotest.list sb) "running sum"
    [ "1"; "3"; "6" ]
    (col run
       "SELECT SUM(N.N) OVER (ORDER BY N.N ASC) FROM NUMS AS N WHERE N.N <= 3 ORDER BY 1");
  (* partitioned aggregate without order = whole partition *)
  check (Alcotest.list sb) "partitioned count"
    [ "2"; "2"; "2"; "2" ]
    (col run
       "SELECT COUNT(*) OVER (PARTITION BY N.GRP) FROM NUMS AS N WHERE N.GRP \
        IN ('a','b') ORDER BY 1");
  (* explicit ROWS frame *)
  check (Alcotest.list sb) "moving sum of 2"
    [ "1"; "3"; "5" ]
    (col run
       "SELECT SUM(N.N) OVER (ORDER BY N.N ASC ROWS BETWEEN 1 PRECEDING AND \
        CURRENT ROW) FROM NUMS AS N WHERE N.N <= 3 ORDER BY 1")

let test_navigation_window_functions () =
  let _, run = fresh () in
  check (Alcotest.list sb) "lag"
    [ "NULL"; "1"; "2" ]
    (col run
       "SELECT LAG(N.N) OVER (ORDER BY N.N ASC) FROM NUMS AS N WHERE N.N <= 3 \
        ORDER BY 1 ASC NULLS FIRST");
  check (Alcotest.list sb) "lead with offset and default"
    [ "3"; "99"; "99" ]
    (col run
       "SELECT LEAD(N.N, 2, 99) OVER (ORDER BY N.N ASC) FROM NUMS AS N WHERE \
        N.N <= 3 ORDER BY 1");
  check (Alcotest.list sb) "first_value per partition"
    [ "1"; "1"; "3"; "3" ]
    (col run
       "SELECT FIRST_VALUE(N.N) OVER (PARTITION BY N.GRP ORDER BY N.N ASC) \
        FROM NUMS AS N WHERE N.N IS NOT NULL ORDER BY 1");
  check (Alcotest.list sb) "last_value = partition max"
    [ "2"; "2"; "4"; "4" ]
    (col run
       "SELECT LAST_VALUE(N.N) OVER (PARTITION BY N.GRP ORDER BY N.N ASC) \
        FROM NUMS AS N WHERE N.N IS NOT NULL ORDER BY 1")

let test_range_frames_and_peers () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE P (G VARCHAR(2), V INTEGER)");
  ignore (run "INSERT INTO P (G, V) VALUES ('a',1),('a',1),('a',2),('b',5)");
  (* RANGE ... CURRENT ROW includes all peers of the current row *)
  check (Alcotest.list sb) "peers share the running sum"
    [ "2"; "2"; "4" ]
    (col run
       "SELECT SUM(P.V) OVER (PARTITION BY P.G ORDER BY P.V ASC RANGE BETWEEN \
        UNBOUNDED PRECEDING AND CURRENT ROW) FROM P AS P WHERE P.G = 'a' ORDER BY 1");
  (* whole-partition RANGE *)
  check (Alcotest.list sb) "unbounded both ways"
    [ "4"; "4"; "4" ]
    (col run
       "SELECT SUM(P.V) OVER (PARTITION BY P.G ORDER BY P.V ASC RANGE BETWEEN \
        UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) FROM P AS P WHERE P.G = 'a' ORDER BY 1")

let test_window_partition_hash_collision () =
  (* Adversarial keys: group_key_hash [Int 1; Int 0] = group_key_hash
     [Int 0; Int 31] = 16368, so partitions (1,0) and (0,31) collide at the
     hash level.  The bucketing must still keep them distinct. *)
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE COLL (A INTEGER, B INTEGER)");
  ignore (run "INSERT INTO COLL (A, B) VALUES (1,0),(0,31),(1,0)");
  let rows =
    rows_of run
      "SELECT C.A, C.B, COUNT(*) OVER (PARTITION BY C.A, C.B) FROM COLL AS C"
  in
  check ib "three rows" 3 (List.length rows);
  List.iter
    (fun (r : Value.t array) ->
      let a = Value.to_string r.(0) and cnt = Value.to_string r.(2) in
      let expect = if a = "1" then "2" else "1" in
      check sb ("partition count for A=" ^ a) expect cnt)
    rows;
  (* Same collision through SUM with a RANGE frame (peer detection also
     relies on correct partition identity). *)
  let rows2 =
    rows_of run
      "SELECT C.A, SUM(C.B) OVER (PARTITION BY C.A, C.B) FROM COLL AS C"
  in
  List.iter
    (fun (r : Value.t array) ->
      let a = Value.to_string r.(0) and s = Value.to_string r.(1) in
      let expect = if a = "1" then "0" else "31" in
      check sb ("partition sum for A=" ^ a) expect s)
    rows2

let test_full_outer_non_equi () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE L (X INTEGER)");
  ignore (run "CREATE TABLE R (Y INTEGER)");
  ignore (run "INSERT INTO L (X) VALUES (1),(5)");
  ignore (run "INSERT INTO R (Y) VALUES (3),(9)");
  (* non-equi full outer runs on the nested-loop path with matched tracking:
     (5,3) matches; 1 and 9 are null-extended *)
  let rows =
    (run
       "SELECT L.X, R.Y FROM L AS L FULL OUTER JOIN R AS R ON L.X > R.Y")
      .Backend.res_rows
  in
  check ib "match + two unmatched" 3 (List.length rows)

let test_sort_and_limit () =
  let _, run = fresh () in
  check (Alcotest.list sb) "desc with nulls last"
    [ "4"; "3"; "2"; "1"; "NULL" ]
    (col run "SELECT N.N FROM NUMS AS N ORDER BY N.N DESC NULLS LAST");
  check (Alcotest.list sb) "nulls first"
    [ "NULL"; "1"; "2"; "3"; "4" ]
    (col run "SELECT N.N FROM NUMS AS N ORDER BY N.N ASC NULLS FIRST");
  check (Alcotest.list sb) "limit offset"
    [ "2"; "3" ]
    (col run "SELECT N.N FROM NUMS AS N ORDER BY N.N ASC NULLS LAST LIMIT 2 OFFSET 1")

let test_set_operations () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE A (X INTEGER)");
  ignore (run "CREATE TABLE B (X INTEGER)");
  ignore (run "INSERT INTO A (X) VALUES (1),(2),(2),(3)");
  ignore (run "INSERT INTO B (X) VALUES (2),(3),(3),(4)");
  let q op = Printf.sprintf "SELECT T.X FROM ((SELECT A.X FROM A AS A) %s (SELECT B.X FROM B AS B)) AS T ORDER BY T.X" op in
  check (Alcotest.list sb) "union dedups" [ "1"; "2"; "3"; "4" ] (col run (q "UNION"));
  check ib "union all keeps bags" 8 (run (q "UNION ALL")).Backend.res_rowcount;
  check (Alcotest.list sb) "intersect" [ "2"; "3" ] (col run (q "INTERSECT"));
  check (Alcotest.list sb) "intersect all = min multiplicity" [ "2"; "3" ]
    (col run (q "INTERSECT ALL"));
  check (Alcotest.list sb) "except" [ "1" ] (col run (q "EXCEPT"));
  check (Alcotest.list sb) "except all subtracts multiplicity" [ "1"; "2" ]
    (col run (q "EXCEPT ALL"))

let test_subqueries () =
  let _, run = fresh () in
  check (Alcotest.list sb) "scalar subquery" [ "3"; "4" ]
    (col run
       "SELECT N.N FROM NUMS AS N WHERE N.N > (SELECT AVG(M.N) FROM NUMS AS M) ORDER BY 1");
  (* groups a={1,2} and b={3,4} each have a distinct sibling *)
  check (Alcotest.list sb) "correlated exists" [ "1"; "2"; "3"; "4" ]
    (col run
       "SELECT N.N FROM NUMS AS N WHERE EXISTS (SELECT 1 FROM NUMS AS M WHERE \
        M.GRP = N.GRP AND M.N <> N.N) ORDER BY 1");
  check (Alcotest.list sb) "quantified ANY" [ "2"; "3"; "4" ]
    (col run
       "SELECT N.N FROM NUMS AS N WHERE N.N > ANY (SELECT M.N FROM NUMS AS M \
        WHERE M.GRP = 'a') ORDER BY 1");
  check (Alcotest.list sb) "quantified ALL" [ "3"; "4" ]
    (col run
       "SELECT N.N FROM NUMS AS N WHERE N.N > ALL (SELECT M.N FROM NUMS AS M \
        WHERE M.GRP = 'a') ORDER BY 1");
  check (Alcotest.list sb) "row IN subquery" [ "1" ]
    (col run
       "SELECT N.N FROM NUMS AS N WHERE (N.N, N.GRP) IN (SELECT M.N, M.GRP \
        FROM NUMS AS M WHERE M.N = 1) ORDER BY 1")

let test_recursion_native () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE EDGE (SRC INTEGER, DST INTEGER)");
  ignore (run "INSERT INTO EDGE (SRC, DST) VALUES (1,2),(2,3),(3,4),(10,11)");
  check (Alcotest.list sb) "transitive closure from 1"
    [ "2"; "3"; "4" ]
    (col run
       "WITH RECURSIVE REACH (V) AS (SELECT E.DST FROM EDGE AS E WHERE E.SRC = \
        1 UNION ALL SELECT E.DST FROM EDGE AS E, REACH AS R WHERE E.SRC = R.V) \
        SELECT R2.V FROM REACH AS R2 ORDER BY R2.V")

let test_recursion_subquery_memo_invalidation () =
  (* The uncorrelated subquery (SELECT MIN(R2.N) FROM R) references the
     recursive CTE, so its memoized result must be invalidated on every
     iteration.  Fresh evaluation doubles N each step: 1,2,4,8,16,32.
     A stale memo (MIN pinned at 1) would instead count up by one. *)
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE ONE (X INTEGER)");
  ignore (run "INSERT INTO ONE (X) VALUES (1)");
  check (Alcotest.list sb) "doubling via CTE-referencing subquery"
    [ "1"; "2"; "4"; "8"; "16"; "32" ]
    (col run
       "WITH RECURSIVE R (N) AS (SELECT O.X FROM ONE AS O UNION ALL SELECT \
        R.N + (SELECT MIN(R2.N) FROM R AS R2) FROM R AS R WHERE R.N < 20) \
        SELECT R3.N FROM R AS R3 ORDER BY R3.N")

let test_dml_and_transactions () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE T (A INTEGER, B VARCHAR(5))");
  check ib "insert count" 3
    (run "INSERT INTO T (A, B) VALUES (1,'x'),(2,'y'),(3,'z')").Backend.res_rowcount;
  check ib "update count" 2
    (run "UPDATE T AS T SET B = 'u' WHERE T.A >= 2").Backend.res_rowcount;
  check ib "delete count" 1 (run "DELETE FROM T AS T WHERE T.A = 1").Backend.res_rowcount;
  ignore (run "BEGIN TRANSACTION");
  ignore (run "DELETE FROM T AS T");
  check sb "deleted inside tx" "0" (cell run "SELECT COUNT(*) FROM T AS T");
  ignore (run "ROLLBACK");
  check sb "rollback restores" "2" (cell run "SELECT COUNT(*) FROM T AS T");
  ignore (run "BEGIN TRANSACTION");
  ignore (run "DELETE FROM T AS T WHERE T.A = 2");
  ignore (run "COMMIT");
  check sb "commit persists" "1" (cell run "SELECT COUNT(*) FROM T AS T")

let test_not_null_and_set_semantics () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE NN (A INTEGER NOT NULL)");
  check bb "NOT NULL enforced" true
    (match Sql_error.protect (fun () -> run "INSERT INTO NN (A) VALUES (NULL)") with
    | Error e -> e.Sql_error.kind = Sql_error.Execution_error
    | Ok _ -> false);
  (* SET semantics at the storage layer *)
  let storage = be.Backend.storage in
  Storage.create_table storage ~dedup:true "S";
  check ib "dedup insert" 2
    (Storage.insert storage "S"
       [ [| Value.Int 1L |]; [| Value.Int 1L |]; [| Value.Int 2L |] ])

(* Scans are copy-free: an unchanged table hands out the physically same
   list and array, and every kind of write makes the next scan see the
   current contents. *)
let test_scan_copy_free () =
  let be, run = fresh () in
  let st = be.Backend.storage in
  let l1 = Storage.scan st "NUMS" in
  let a1 = Storage.scan_array st "NUMS" in
  ignore (run "SELECT N FROM NUMS");
  check bb "unchanged table: same list" true (Storage.scan st "NUMS" == l1);
  check bb "unchanged table: same array" true (Storage.scan_array st "NUMS" == a1);
  let ns name =
    let l = Storage.scan st name in
    check bb (name ^ ": array agrees with list") true
      (List.for_all2 ( == ) l (Array.to_list (Storage.scan_array st name)));
    List.map (fun (r : Value.t array) -> Value.to_string r.(0)) l
  in
  let sl = Alcotest.(list string) in
  check sl "initial" [ "1"; "2"; "3"; "4"; "NULL" ] (ns "NUMS");
  ignore (run "INSERT INTO NUMS (N, GRP, W) VALUES (5, 'd', 1.00)");
  check sl "after INSERT" [ "1"; "2"; "3"; "4"; "NULL"; "5" ] (ns "NUMS");
  ignore (run "UPDATE NUMS SET N = 6 WHERE N = 1");
  check sl "after UPDATE" [ "6"; "2"; "3"; "4"; "NULL"; "5" ] (ns "NUMS");
  ignore (run "DELETE FROM NUMS WHERE N = 2");
  check sl "after DELETE" [ "6"; "3"; "4"; "NULL"; "5" ] (ns "NUMS");
  ignore (run "BEGIN TRANSACTION");
  ignore (run "INSERT INTO NUMS (N, GRP, W) VALUES (7, 'e', 1.00)");
  ignore (run "DELETE FROM NUMS WHERE N = 3");
  check sl "inside the transaction" [ "6"; "4"; "NULL"; "5"; "7" ] (ns "NUMS");
  ignore (run "ROLLBACK");
  check sl "after ROLLBACK" [ "6"; "3"; "4"; "NULL"; "5" ] (ns "NUMS");
  ignore (run "ALTER TABLE NUMS RENAME TO NUMS2");
  check sl "after RENAME" [ "6"; "3"; "4"; "NULL"; "5" ] (ns "NUMS2");
  ignore (run "DROP TABLE NUMS2");
  ignore (run "CREATE TABLE NUMS2 (N INTEGER)");
  check sl "after DROP + CREATE" [] (ns "NUMS2");
  ignore (run "INSERT INTO NUMS2 (N) VALUES (8)");
  check sl "re-created table written" [ "8" ] (ns "NUMS2")

(* The first scan after an INSERT folds the new rows in. Morsel workers on
   several domains may make that first scan at the same moment: each must
   see every row once, and the table must keep every row once. *)
let test_concurrent_first_scans () =
  let st = Storage.create () in
  Storage.create_table st "T";
  let domains = 4 and rows = 50_000 in
  for round = 1 to 5 do
    Storage.replace_rows st "T" [||];
    for i = 1 to rows do
      ignore (Storage.insert st "T" [ [| Value.Int (Int64.of_int i) |] ])
    done;
    let ready = Atomic.make 0 in
    let scan () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      (Array.length (Storage.scan_array st "T"), List.length (Storage.scan st "T"))
    in
    let seen = List.map Domain.join (List.init domains (fun _ -> Domain.spawn scan)) in
    List.iter
      (fun (a, l) ->
        check ib (Printf.sprintf "round %d: array length" round) rows a;
        check ib (Printf.sprintf "round %d: list length" round) rows l)
      seen;
    check ib
      (Printf.sprintf "round %d: table length" round)
      rows
      (Array.length (Storage.scan_array st "T"))
  done

let test_ddl_lifecycle () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE X (A INTEGER)");
  ignore (run "INSERT INTO X (A) VALUES (7)");
  ignore (run "ALTER TABLE X RENAME TO Y");
  check sb "renamed" "7" (cell run "SELECT Y.A FROM Y AS Y");
  check bb "old name gone" true
    (match Sql_error.protect (fun () -> run "SELECT X.A FROM X AS X") with
    | Error _ -> true
    | Ok _ -> false);
  ignore (run "DROP TABLE Y");
  check bb "dropped" true
    (match Sql_error.protect (fun () -> run "SELECT Y.A FROM Y AS Y") with
    | Error _ -> true
    | Ok _ -> false);
  ignore (run "DROP TABLE IF EXISTS Y");
  ignore (run "CREATE TABLE IF NOT EXISTS Z (A INTEGER)");
  ignore (run "CREATE TABLE IF NOT EXISTS Z (A INTEGER)");
  ignore (run "CREATE TEMPORARY TABLE TMP AS (SELECT Z.A FROM Z AS Z) WITH NO DATA");
  check sb "ctas no data" "0" (cell run "SELECT COUNT(*) FROM TMP AS T")

let test_scalar_functions () =
  let _, run = fresh () in
  let one sql = cell run (sql ^ " FROM NUMS AS N WHERE N.N = 1") in
  check sb "char_length" "5" (one "SELECT CHAR_LENGTH('hello')");
  check sb "substring" "ell" (one "SELECT SUBSTRING('hello', 2, 3)");
  check sb "substring out of range" "" (one "SELECT SUBSTRING('hi', 5, 3)");
  check sb "position" "3" (one "SELECT POSITION('l' IN 'hello')");
  check sb "replace" "heLLo" (one "SELECT REPLACE('hello', 'll', 'LL')");
  check sb "upper/lower" "HELLO" (one "SELECT UPPER('hello')");
  check sb "trim" "x" (one "SELECT TRIM('  x  ')");
  check sb "abs" "5" (one "SELECT ABS(0 - 5)");
  check sb "round decimal" "2.35" (one "SELECT ROUND(CAST('2.345' AS DECIMAL(8,3)), 2)");
  check sb "extract year" "2014" (one "SELECT EXTRACT(YEAR FROM DATE '2014-05-04')");
  check sb "add_months" "2014-03-31" (one "SELECT ADD_MONTHS(DATE '2014-01-31', 2)");
  check sb "like" "true" (one "SELECT ('hello' LIKE 'h%o')");
  check sb "like underscore" "true" (one "SELECT ('hello' LIKE 'h_llo')");
  check sb "like escape" "true" (one "SELECT ('50%' LIKE '50#%' ESCAPE '#')");
  check sb "case" "small" (one "SELECT CASE WHEN 1 < 2 THEN 'small' ELSE 'big' END");
  check sb "concat" "ab" (one "SELECT 'a' || 'b'");
  check sb "concat null" "NULL" (one "SELECT 'a' || NULL")

(* --- properties ------------------------------------------------------ *)

let int_list_gen = QCheck.(list_of_size (QCheck.Gen.int_range 0 30) small_signed_int)

let with_values f =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE V (X INTEGER)");
  f be run

let insert_ints run xs =
  if xs <> [] then
    ignore
      (run
         (Printf.sprintf "INSERT INTO V (X) VALUES %s"
            (String.concat "," (List.map (Printf.sprintf "(%d)") xs))))

let prop_sort_is_sorted_permutation =
  QCheck.Test.make ~name:"engine ORDER BY sorts a permutation" ~count:50
    int_list_gen
    (fun xs ->
      with_values (fun _ run ->
          insert_ints run xs;
          let got =
            List.map
              (fun (r : Value.t array) -> Int64.to_int (Value.to_int64_exn r.(0)))
              (run "SELECT V.X FROM V AS V ORDER BY V.X ASC").Backend.res_rows
          in
          got = List.sort compare xs))

let prop_distinct_matches_sort_uniq =
  QCheck.Test.make ~name:"engine DISTINCT = sort_uniq" ~count:50 int_list_gen
    (fun xs ->
      with_values (fun _ run ->
          insert_ints run xs;
          let got =
            List.map
              (fun (r : Value.t array) -> Int64.to_int (Value.to_int64_exn r.(0)))
              (run "SELECT DISTINCT V.X FROM V AS V ORDER BY V.X ASC").Backend.res_rows
          in
          got = List.sort_uniq compare xs))

let prop_sum_matches_fold =
  QCheck.Test.make ~name:"engine SUM = fold" ~count:50 int_list_gen (fun xs ->
      with_values (fun _ run ->
          insert_ints run xs;
          let r = run "SELECT SUM(V.X) FROM V AS V" in
          match (List.hd r.Backend.res_rows).(0) with
          | Value.Null -> xs = []
          | v -> Value.to_int64_exn v = Int64.of_int (List.fold_left ( + ) 0 xs)))

let prop_group_sums_partition_total =
  QCheck.Test.make ~name:"sum of group sums = total sum" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (pair (int_range 0 4) small_signed_int))
    (fun pairs ->
      let be = Backend.create () in
      let run sql = Backend.execute_sql be sql in
      ignore (run "CREATE TABLE G (K INTEGER, V INTEGER)");
      if pairs <> [] then
        ignore
          (run
             (Printf.sprintf "INSERT INTO G (K, V) VALUES %s"
                (String.concat ","
                   (List.map (fun (k, v) -> Printf.sprintf "(%d,%d)" k v) pairs))));
      let total =
        match (run "SELECT SUM(G.V) FROM G AS G").Backend.res_rows with
        | [ [| Value.Null |] ] -> 0
        | [ [| v |] ] -> Int64.to_int (Value.to_int64_exn v)
        | _ -> -1
      in
      let group_total =
        List.fold_left
          (fun acc (row : Value.t array) ->
            acc + Int64.to_int (Value.to_int64_exn row.(0)))
          0
          (run "SELECT SUM(G.V) FROM G AS G GROUP BY G.K").Backend.res_rows
      in
      total = group_total)

let prop_limit_is_prefix =
  QCheck.Test.make ~name:"LIMIT n returns a prefix of the sorted output" ~count:50
    (QCheck.pair int_list_gen (QCheck.int_range 0 10))
    (fun (xs, n) ->
      with_values (fun _ run ->
          insert_ints run xs;
          let all =
            List.map
              (fun (r : Value.t array) -> Value.to_string r.(0))
              (run "SELECT V.X FROM V AS V ORDER BY V.X ASC").Backend.res_rows
          in
          let limited =
            List.map
              (fun (r : Value.t array) -> Value.to_string r.(0))
              (run
                 (Printf.sprintf "SELECT V.X FROM V AS V ORDER BY V.X ASC LIMIT %d" n))
                .Backend.res_rows
          in
          List.length limited = min n (List.length all)
          && List.for_all2 ( = ) limited
               (List.filteri (fun i _ -> i < List.length limited) all)))

let suite =
  [
    ("scan / filter / project", `Quick, test_scan_filter_project);
    ("storage scans are copy-free", `Quick, test_scan_copy_free);
    ("concurrent first scans", `Quick, test_concurrent_first_scans);
    ("NULL semantics", `Quick, test_null_semantics);
    ("aggregates", `Quick, test_aggregates);
    ("GROUP BY / HAVING", `Quick, test_group_by);
    ("joins", `Quick, test_joins);
    ("window functions", `Quick, test_window_functions);
    ("navigation window functions", `Quick, test_navigation_window_functions);
    ("RANGE frames and peers", `Quick, test_range_frames_and_peers);
    ("window partition hash collision", `Quick, test_window_partition_hash_collision);
    ("full outer non-equi join", `Quick, test_full_outer_non_equi);
    ("sort and limit", `Quick, test_sort_and_limit);
    ("set operations", `Quick, test_set_operations);
    ("subqueries", `Quick, test_subqueries);
    ("native recursion", `Quick, test_recursion_native);
    ("recursive CTE subquery memo invalidation", `Quick, test_recursion_subquery_memo_invalidation);
    ("DML and transactions", `Quick, test_dml_and_transactions);
    ("NOT NULL and SET semantics", `Quick, test_not_null_and_set_semantics);
    ("DDL lifecycle", `Quick, test_ddl_lifecycle);
    ("scalar functions", `Quick, test_scalar_functions);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_sort_is_sorted_permutation;
        prop_distinct_matches_sort_uniq;
        prop_sum_matches_fold;
        prop_group_sums_partition_total;
        prop_limit_is_prefix;
      ]
