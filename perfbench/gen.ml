(* Seeded workload generation. The seed is the only input: every SQL text
   the server receives is produced here from it. *)

module Customer = Hyperq_workload.Customer
module Tpch_queries = Hyperq_workload.Tpch_queries

let rng seed salt = Random.State.make [| seed; salt; 0x4851 |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- tpch_olap --------------------------------------------------------- *)

let tpch_sf = 0.02

(* Query [i] (0-based) of the 22, named Q01 .. Q22. *)
let tpch_queries =
  Array.of_list
    (List.mapi
       (fun i (_, sql) -> (Printf.sprintf "Q%02d" (i + 1), sql))
       Tpch_queries.all)

(* Pass [k] of the stream: the 22 queries in a seeded order. *)
let tpch_pass ~seed k =
  let order = Array.init (Array.length tpch_queries) Fun.id in
  shuffle (rng seed (1000 + k)) order;
  order

(* --- bi_replay ---------------------------------------------------------- *)

let date_lit st ~from_year ~years =
  Printf.sprintf "DATE '%04d-%02d-%02d'"
    (from_year + Random.State.int st years)
    (1 + Random.State.int st 12)
    (1 + Random.State.int st 28)

let money st lo hi =
  let cents = (lo * 100) + Random.State.int st ((hi - lo) * 100) in
  Printf.sprintf "%d.%02d" (cents / 100) (cents mod 100)

let pick st a = a.(Random.State.int st (Array.length a))

(* Small seeded data for the two customer schemas. It is shaped so that a
   statement's outcome class and activity count do not depend on the order
   in which the two connections interleave: the claims the stream updates
   (ids 1..12) start out PAID, so the OPEN_CLAIMS view DML matches nothing
   and the STATUS groups never change; invoice GROSS values are distinct, so
   the row-value [> ANY] comparison never reaches the NET column that the
   BILL_ADJ macros update. *)
let bi_data ~seed =
  let st = rng seed 2 in
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let wards = [| "EAST"; "WEST"; "NORTH"; "SOUTH"; "ICU"; "ER" |] in
  for id = 1 to 200 do
    add
      "INS INTO PATIENTS (PATIENT_ID, NAME, BIRTH_DATE, REGION_ID, RISK_SCORE) \
       VALUES (%d, 'PATIENT_%d_%d', %s, %d, %s)"
      id id (Random.State.int st 1000)
      (date_lit st ~from_year:1940 ~years:60)
      (1 + Random.State.int st 120)
      (money st 0 100)
  done;
  for id = 1 to 400 do
    add
      "INS INTO VISITS (VISIT_ID, PATIENT_ID, VISIT_DATE, WARD, COST) VALUES \
       (%d, %d, %s, '%s', %s)"
      id
      (1 + Random.State.int st 200)
      (date_lit st ~from_year:2015 ~years:4)
      (pick st wards) (money st 10 5000)
  done;
  for id = 1 to 300 do
    let status =
      if id <= 12 then "PAID" else pick st [| "OPEN"; "PAID"; "DENIED" |]
    in
    add
      "INS INTO CLAIMS (CLAIM_ID, PATIENT_ID, CLAIM_DATE, AMOUNT, STATUS) \
       VALUES (%d, %d, %s, %s, '%s')"
      id
      (1 + Random.State.int st 200)
      (date_lit st ~from_year:2015 ~years:4)
      (money st 50 20000) status
  done;
  for id = 1 to 240 do
    (* MSISDN lengths 9 .. 18 cover every CHARS(MSISDN) = n probe *)
    let len = 9 + Random.State.int st 10 in
    let digits = String.init len (fun _ -> Char.chr (48 + Random.State.int st 10)) in
    add
      "INS INTO SUBSCRIBERS (SUB_ID, MSISDN, PLAN_ID, ACTIVATED, BALANCE) \
       VALUES (%d, '%s', %d, %s, %s)"
      id digits
      (1 + Random.State.int st 60)
      (date_lit st ~from_year:2010 ~years:8)
      (money st 0 500)
  done;
  for id = 1 to 600 do
    add
      "INS INTO CALLS (CALL_ID, SUB_ID, CALL_DATE, MINUTES, CELL_ID) VALUES \
       (%d, %d, %s, %s, %d)"
      id
      (1 + Random.State.int st 240)
      (date_lit st ~from_year:2015 ~years:4)
      (money st 0 90)
      (1 + Random.State.int st 200)
  done;
  (* distinct GROSS: a seeded permutation of cent offsets *)
  let gross = Array.init 300 (fun i -> 1000 + (i * 37)) in
  shuffle st gross;
  for id = 1 to 300 do
    let g = gross.(id - 1) in
    add
      "INS INTO INVOICES (INV_ID, SUB_ID, INV_DATE, GROSS, NET) VALUES (%d, \
       %d, %s, %d.%02d, %d.%02d)"
      id
      (1 + Random.State.int st 240)
      (date_lit st ~from_year:2015 ~years:4)
      (g / 100) (g mod 100)
      (g * 8 / 1000) (g * 8 / 10 mod 100)
  done;
  List.rev !out

let bi_workloads () = Customer.all ()

(* Schema, macros and data, in the order they must run. *)
let bi_setup ~seed =
  List.concat_map (fun wl -> wl.Customer.wl_setup) (bi_workloads ())
  @ bi_data ~seed

(* The distinct statements of both customer workloads and the
   repetition-weighted multiset over them (232,484 draws over 14,224
   statements), shuffled with the seed. *)
type bi_stream = { distinct : string array; order : int array }

let bi_stream ~seed =
  let pool =
    List.concat_map (fun wl -> wl.Customer.wl_queries) (bi_workloads ())
  in
  let distinct = Array.of_list (List.map fst pool) in
  let total = List.fold_left (fun n (_, r) -> n + r) 0 pool in
  let order = Array.make total 0 in
  let pos = ref 0 in
  List.iteri
    (fun i (_, reps) ->
      Array.fill order !pos reps i;
      pos := !pos + reps)
    pool;
  shuffle (rng seed 3) order;
  { distinct; order }

(* --- etl_roundtrip ------------------------------------------------------ *)

let etl_table = "STG_ETL"

(* Cycles repeat one of [etl_variants] seeded variants. Every cycle works
   on its own volatile table and leaves the TPC-H tables as they were, so
   a variant's answers never change and the oracle replays each variant
   once; the DDL at both ends of a cycle invalidates every cached plan, so
   repeating a variant saves the server no work. *)
let etl_variants = 8

(* One write cycle against the TPC-H tables. Order keys are 4i - {0,1,2}
   for the i-th order, so (key + 3) / 4 recovers i: the staging slice is
   line 1 of every 250th order, 120 rows spread evenly over ORDERS, and the
   nested-loop UPDATE ... FROM costs the same in every cycle whatever the
   seed. The MERGE source, every line of every 500th order, half matches
   the slice. The last SEL reads the merged table back in full. *)
let etl_cycle ~seed k =
  let st = rng seed (10_000 + (k mod etl_variants)) in
  let r = Random.State.int st 250 in
  let r_merge = r + (250 * Random.State.int st 2) in
  let t = etl_table in
  [
    Printf.sprintf
      "CREATE VOLATILE TABLE %s (ORDERKEY INTEGER NOT NULL, LINENO INTEGER, \
       PARTKEY INTEGER, QTY DECIMAL(12,2), PRICE DECIMAL(12,2), STATUS \
       VARCHAR(1), ODATE DATE, PRIO VARCHAR(15), TOTAL DECIMAL(12,2)) ON \
       COMMIT PRESERVE ROWS"
      t;
  ]
  @ List.init 41 (fun i ->
        (* 4n+1 is never an order key, so these rows stay unmatched by the
           ORDERS updates. About one INS in seven takes 2-4x as long as the
           rest. With 41 of 51 statements in a cycle, the median of a run
           falls near the 62nd percentile of the INSs, clear of the slow
           ones; with fewer INSs it moves towards them and swings with how
           many a run happens to have. *)
        Printf.sprintf
          "INS INTO %s (ORDERKEY, LINENO, PARTKEY, QTY, PRICE, STATUS) VALUES \
           (%d, %d, %d, %s, %s, 'N')"
          t
          ((4 * (1 + Random.State.int st 29_000)) + 1)
          (i + 1)
          (1 + Random.State.int st 4000)
          (money st 1 50) (money st 900 90_000))
  @ [
      Printf.sprintf
        "INSERT INTO %s (ORDERKEY, LINENO, PARTKEY, QTY, PRICE, STATUS) SEL \
         L_ORDERKEY, L_LINENUMBER, L_PARTKEY, L_QUANTITY, L_EXTENDEDPRICE, \
         L_LINESTATUS FROM LINEITEM WHERE (L_ORDERKEY + 3) / 4 MOD 250 = %d AND \
         L_LINENUMBER = 1"
        t r;
      Printf.sprintf
        "UPD %s FROM ORDERS SET ODATE = O_ORDERDATE, PRIO = O_ORDERPRIORITY \
         WHERE %s.ORDERKEY = ORDERS.O_ORDERKEY"
        t t;
      Printf.sprintf
        "UPD %s FROM ORDERS SET TOTAL = O_TOTALPRICE WHERE %s.ORDERKEY = \
         ORDERS.O_ORDERKEY AND ORDERS.O_ORDERSTATUS <> 'P'"
        t t;
      Printf.sprintf
        "MERGE INTO %s AS T USING (SEL L_ORDERKEY AS K, L_LINENUMBER AS LN, \
         L_QUANTITY AS Q FROM LINEITEM WHERE (L_ORDERKEY + 3) / 4 MOD 500 = %d) S ON \
         (T.ORDERKEY = S.K AND T.LINENO = S.LN) WHEN MATCHED THEN UPDATE SET \
         QTY = T.QTY + S.Q WHEN NOT MATCHED THEN INSERT (ORDERKEY, LINENO, \
         QTY, STATUS) VALUES (S.K, S.LN, S.Q, 'M')"
        t r_merge;
      Printf.sprintf "DELETE FROM %s WHERE QTY < %d" t
        (2 + Random.State.int st 6);
      Printf.sprintf
        "SEL PRIO, COUNT(*), SUM(PRICE), SUM(TOTAL) FROM %s GROUP BY PRIO \
         ORDER BY PRIO"
        t;
      Printf.sprintf
        "SEL TOP 10 S.ORDERKEY, S.LINENO, S.PRICE, O.O_CUSTKEY FROM %s S, \
         ORDERS O WHERE S.ORDERKEY = O.O_ORDERKEY ORDER BY S.PRICE DESC, \
         S.ORDERKEY, S.LINENO"
        t;
      Printf.sprintf "SEL * FROM %s ORDER BY ORDERKEY, LINENO" t;
      Printf.sprintf "DROP TABLE %s" t;
    ]
