(* Serializer tests: golden SQL output per target, function/type renaming,
   and the crucial round-trip property — everything serialized for the
   ansi-engine profile must be re-parseable, bindable and executable by the
   engine itself. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Capability = Hyperq_transform.Capability
module Transformer = Hyperq_transform.Transformer
module Serializer = Hyperq_serialize.Serializer
module Backend = Hyperq_engine.Backend

let check = Alcotest.check
let bb = Alcotest.bool
let sb = Alcotest.string

let contains hay needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let backend () =
  let be = Backend.create () in
  List.iter
    (fun sql -> ignore (Backend.execute_sql be sql))
    [
      "CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE, STORE INTEGER, REGION VARCHAR(10))";
      "CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))";
      "INSERT INTO SALES (AMOUNT, SALES_DATE, STORE, REGION) VALUES \
       (100.00, DATE '2014-02-01', 1, 'EU'), (250.00, DATE '2014-03-01', 1, 'US'), \
       (250.00, DATE '2014-03-02', 2, 'EU'), (75.00, DATE '2013-12-01', 2, 'AP')";
      "INSERT INTO SALES_HISTORY (GROSS, NET) VALUES (90.00, 80.00), (250.00, 200.00)";
    ];
  be

let translate ?(cap = Capability.ansi_engine) be sql =
  let ctx = Binder.create_ctx be.Backend.catalog in
  let bound =
    Binder.bind_statement ctx (Parser.parse_statement ~dialect:Dialect.Teradata sql)
  in
  let counter = ref 1_000_000 in
  let st, _ = Transformer.transform ~cap ~counter bound in
  Serializer.serialize ~cap st

(* the 26 shapes exercised by the round-trip property *)
let roundtrip_corpus =
  [
    "SEL * FROM SALES";
    "SEL AMOUNT, STORE FROM SALES WHERE AMOUNT > 100";
    "SEL DISTINCT STORE FROM SALES";
    "SEL STORE, SUM(AMOUNT), COUNT(*) FROM SALES GROUP BY STORE";
    "SEL STORE FROM SALES GROUP BY STORE HAVING SUM(AMOUNT) > 200";
    "SEL * FROM SALES ORDER BY AMOUNT DESC, STORE";
    "SEL TOP 2 * FROM SALES ORDER BY AMOUNT DESC";
    "SEL TOP 2 WITH TIES STORE FROM SALES ORDER BY AMOUNT DESC";
    "SEL TOP 50 PERCENT STORE FROM SALES ORDER BY AMOUNT DESC";
    "SEL A.STORE FROM SALES A, SALES B WHERE A.STORE = B.STORE";
    "SEL S.AMOUNT FROM SALES S LEFT OUTER JOIN SALES_HISTORY H ON S.AMOUNT = H.GROSS";
    "SEL AMOUNT FROM SALES WHERE AMOUNT > (SEL AVG(GROSS) FROM SALES_HISTORY)";
    "SEL AMOUNT FROM SALES WHERE EXISTS (SEL 1 FROM SALES_HISTORY WHERE GROSS = AMOUNT)";
    "SEL AMOUNT FROM SALES WHERE AMOUNT IN (SEL GROSS FROM SALES_HISTORY)";
    "SEL AMOUNT FROM SALES WHERE (AMOUNT, AMOUNT) IN (SEL GROSS, NET FROM SALES_HISTORY)";
    "SEL AMOUNT FROM SALES WHERE AMOUNT > ANY (SEL GROSS FROM SALES_HISTORY)";
    "SEL AMOUNT FROM SALES WHERE (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY)";
    "SEL STORE FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2";
    "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP(STORE)";
    "SEL STORE, REGION, SUM(AMOUNT) FROM SALES GROUP BY CUBE(STORE, REGION)";
    "SEL AMOUNT FROM SALES WHERE SALES_DATE > 1140101";
    "SEL AMOUNT FROM SALES UNION SEL GROSS FROM SALES_HISTORY";
    "SEL AMOUNT FROM SALES EXCEPT ALL SEL GROSS FROM SALES_HISTORY";
    "WITH BIG (A) AS (SEL AMOUNT FROM SALES WHERE AMOUNT > 100) SEL A FROM BIG ORDER BY A";
    "SEL CASE WHEN AMOUNT > 100 THEN 'hi' ELSE 'lo' END, SALES_DATE + 30 FROM SALES";
    "SEL STORE, AVG(AMOUNT) FROM SALES WHERE REGION LIKE 'E%' GROUP BY 1 ORDER BY 2 DESC";
    "SEL STORE, COUNT(*) FROM SALES GROUP BY STORE HAVING COUNT(*) > 1 ORDER BY 2 DESC, 1";
    "SEL AMOUNT, SUM(AMOUNT) OVER (PARTITION BY STORE ORDER BY SALES_DATE) FROM SALES";
    "SEL AMOUNT FROM SALES WHERE AMOUNT NOT IN (SEL GROSS FROM SALES_HISTORY) ORDER BY 1";
    "WITH A (X) AS (SEL AMOUNT FROM SALES), B (Y) AS (SEL X FROM A WHERE X > 90) SEL Y FROM B ORDER BY Y";
    "SEL LAG(AMOUNT) OVER (ORDER BY SALES_DATE) FROM SALES";
    "SEL LEAD(AMOUNT, 2, 0) OVER (ORDER BY SALES_DATE) FROM SALES";
    "SEL FIRST_VALUE(AMOUNT) OVER (PARTITION BY STORE ORDER BY AMOUNT) FROM SALES";
    "SEL CASE STORE WHEN 1 THEN 'one' ELSE 'other' END FROM SALES ORDER BY 1";
    "SEL TRIM(REGION), SUBSTRING(REGION FROM 1 FOR 1), POSITION('U' IN REGION) FROM SALES";
    "SEL STORE FROM SALES WHERE NOT (AMOUNT BETWEEN 50 AND 150) ORDER BY 1";
    "SEL AMOUNT FROM SALES SAMPLE 2";
    "SEL DISTINCT STORE, REGION FROM SALES ORDER BY STORE";
    "SEL COALESCE(NULLIF(REGION, 'EU'), 'home'), ZEROIFNULL(AMOUNT) FROM SALES";
    "SEL A.STORE, B.GROSS FROM SALES A LEFT OUTER JOIN (SEL GROSS FROM \
     SALES_HISTORY WHERE NET > 100) B ON A.AMOUNT = B.GROSS ORDER BY 1";
    "SEL EXTRACT(MONTH FROM SALES_DATE), MIN(AMOUNT), MAX(AMOUNT) FROM SALES \
     GROUP BY 1 ORDER BY 1";
  ]

let test_roundtrip_executes () =
  let be = backend () in
  List.iter
    (fun src ->
      let sql = translate be src in
      match Sql_error.protect (fun () -> Backend.execute_sql be sql) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "round-trip failed for %s\n  serialized: %s\n  error: %s"
            src sql (Sql_error.to_string e))
    roundtrip_corpus

let test_roundtrip_differential () =
  (* the Teradata query through the full stack must produce the same rows as
     a hand-written ANSI equivalent executed directly *)
  let be = backend () in
  let pairs =
    [
      ( "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY 1 ORDER BY 1",
        "SELECT S.STORE, SUM(S.AMOUNT) FROM SALES AS S GROUP BY S.STORE ORDER \
         BY S.STORE ASC" );
      ( "SEL AMOUNT FROM SALES WHERE SALES_DATE > 1140101 ORDER BY AMOUNT",
        "SELECT S.AMOUNT FROM SALES AS S WHERE S.SALES_DATE > DATE '2014-01-01' \
         ORDER BY S.AMOUNT ASC" );
      ( "SEL TOP 2 AMOUNT FROM SALES ORDER BY AMOUNT DESC",
        "SELECT S.AMOUNT FROM SALES AS S ORDER BY S.AMOUNT DESC LIMIT 2" );
      ( "SEL AMOUNT AS A, A * 2 AS B FROM SALES WHERE B > 300 ORDER BY 1",
        "SELECT S.AMOUNT, S.AMOUNT * 2 FROM SALES AS S WHERE S.AMOUNT * 2 > \
         300 ORDER BY 1 ASC" );
    ]
  in
  List.iter
    (fun (td_sql, ansi_sql) ->
      let via_stack = Backend.execute_sql be (translate be td_sql) in
      let direct = Backend.execute_sql be ansi_sql in
      let render r =
        List.map
          (fun row -> String.concat "," (Array.to_list (Array.map Value.to_string row)))
          r.Backend.res_rows
      in
      check (Alcotest.list sb) td_sql (render direct) (render via_stack))
    pairs

let test_function_renaming_per_target () =
  let be = backend () in
  let sql = "SEL CHARS(REGION) FROM SALES" in
  check bb "polaris uses LEN" true
    (contains (translate ~cap:Capability.cloud_polaris be sql) "LEN(");
  check bb "bigstore uses LENGTH" true
    (contains (translate ~cap:Capability.cloud_bigstore be sql) "LENGTH(");
  check bb "engine uses CHAR_LENGTH" true
    (contains (translate ~cap:Capability.ansi_engine be sql) "CHAR_LENGTH(")

let test_type_renaming_per_target () =
  let be = backend () in
  let sql = "SEL CAST(AMOUNT AS INTEGER) FROM SALES" in
  check bb "crimson uses INT8" true
    (contains (translate ~cap:Capability.cloud_crimson be sql) "INT8");
  check bb "engine uses BIGINT" true
    (contains (translate ~cap:Capability.ansi_engine be sql) "BIGINT")

let test_date_arithmetic_rendering () =
  let be = backend () in
  let sql = "SEL SALES_DATE + 7 FROM SALES" in
  check bb "bigstore renders DATE_ADD" true
    (contains (translate ~cap:Capability.cloud_bigstore be sql) "DATE_ADD(");
  check bb "engine renders plain +" true
    (contains (translate ~cap:Capability.ansi_engine be sql) "+ 7")

let test_qualify_emission () =
  let be = backend () in
  let sql = "SEL STORE FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2" in
  check bb "nimbus keeps QUALIFY" true
    (contains (translate ~cap:Capability.cloud_nimbus be sql) " QUALIFY ");
  check bb "engine gets a derived table instead" false
    (contains (translate ~cap:Capability.ansi_engine be sql) " QUALIFY ")

let test_merge_serialization () =
  let be = backend () in
  let sql =
    "MERGE INTO SALES AS T USING (SEL GROSS, NET FROM SALES_HISTORY) S ON \
     (T.AMOUNT = S.GROSS) WHEN MATCHED THEN UPDATE SET AMOUNT = S.NET"
  in
  let out = translate ~cap:Capability.cloud_nimbus be sql in
  check bb "MERGE INTO emitted" true (contains out "MERGE INTO SALES");
  check bb "WHEN MATCHED clause" true (contains out "WHEN MATCHED THEN UPDATE SET");
  (* targets without MERGE raise a capability gap (emulation takes over) *)
  check bb "capability gap without MERGE" true
    (match
       Sql_error.protect (fun () -> translate ~cap:Capability.ansi_engine be sql)
     with
    | Error e -> e.Sql_error.kind = Sql_error.Capability_gap
    | Ok _ -> false)

let test_insert_update_delete_serialization () =
  let be = backend () in
  check bb "INSERT VALUES form" true
    (contains (translate be "INS SALES (1, DATE '2015-01-01', 2, 'EU')")
       "INSERT INTO SALES (AMOUNT, SALES_DATE, STORE, REGION) VALUES");
  check bb "UPDATE ... FROM form" true
    (contains
       (translate be "UPD SALES FROM SALES_HISTORY SET AMOUNT = GROSS WHERE NET > 0")
       " FROM ");
  check bb "DELETE with EXISTS for the join form" true
    (contains
       (translate be "DEL SALES FROM SALES_HISTORY WHERE AMOUNT = GROSS")
       "WHERE EXISTS")

let test_nulls_ordering_emission () =
  let be = backend () in
  let out = translate be "SEL AMOUNT FROM SALES ORDER BY AMOUNT DESC" in
  (* Teradata semantics made explicit on targets that support the syntax *)
  check bb "NULLS LAST emitted for DESC" true (contains out "DESC NULLS LAST")

let test_values_rendering () =
  let be = backend () in
  let out = translate be "SEL * FROM (SEL 1 AS A, 'x' AS B FROM SALES) T WHERE T.A = 1" in
  check bb "serializes and re-executes" true
    (match Sql_error.protect (fun () -> Backend.execute_sql be out) with
    | Ok _ -> true
    | Error _ -> false)

(* Contradiction pruning replaces [a, b WHERE a.id = 1 AND a.id = 2] by a
   constant-empty VALUES carrying both sides' columns, two of them named ID.
   Its derived column list must not repeat a name (a strict target rejects
   [AS T1 (ID, ID)], and [T1.ID] would be ambiguous), and the SQL must
   re-parse and execute to no rows. *)
let test_pruned_values_unique_names () =
  let module Pipeline = Hyperq_core.Pipeline in
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE a (id INTEGER)");
  ignore (Pipeline.run_sql p "CREATE TABLE b (id INTEGER)");
  let src = "SELECT * FROM a, b WHERE a.id = 1 AND a.id = 2" in
  let sql = Pipeline.translate p src in
  let find_from i needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length sql then Alcotest.failf "%S not in %s" needle sql
      else if String.sub sql i nl = needle then i
      else go (i + 1)
    in
    go i
  in
  let lo = find_from (find_from (find_from 0 "(VALUES") ") AS ") " (" + 2 in
  let names =
    String.split_on_char ',' (String.sub sql lo (find_from lo ")" - lo))
    |> List.map String.trim
  in
  check (Alcotest.list sb) ("derived columns of " ^ sql) [ "ID_1"; "ID_2" ] names;
  check bb "no repeated derived name" true
    (List.length (List.sort_uniq compare names) = List.length names);
  (match Sql_error.protect (fun () -> Backend.execute_sql p.Pipeline.backend sql) with
  | Ok r -> check Alcotest.int ("re-executes to no rows: " ^ sql) 0 r.Backend.res_rowcount
  | Error e -> Alcotest.failf "%s\n  failed: %s" sql (Sql_error.to_string e));
  check Alcotest.int "pipeline returns no rows" 0 (Pipeline.run_sql p src).Pipeline.out_count

let suite =
  [
    ("round-trip executes on the engine", `Quick, test_roundtrip_executes);
    ("differential vs hand-written ANSI", `Quick, test_roundtrip_differential);
    ("function renaming per target", `Quick, test_function_renaming_per_target);
    ("type renaming per target", `Quick, test_type_renaming_per_target);
    ("date arithmetic rendering", `Quick, test_date_arithmetic_rendering);
    ("QUALIFY emission per target", `Quick, test_qualify_emission);
    ("MERGE serialization", `Quick, test_merge_serialization);
    ("DML serialization", `Quick, test_insert_update_delete_serialization);
    ("explicit NULLS ordering", `Quick, test_nulls_ordering_emission);
    ("derived table rendering", `Quick, test_values_rendering);
    ("pruned VALUES: unique derived names", `Quick, test_pruned_values_unique_names);
  ]
