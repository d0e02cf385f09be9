(* Unit and property tests for the value substrate: dates (including the
   Teradata integer encoding), decimals, intervals, SQL comparison/arith
   semantics and casts. *)

open Hyperq_sqlvalue

let check = Alcotest.check
let sb = Alcotest.string
let ib = Alcotest.int
let bb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Sql_date                                                             *)
(* ------------------------------------------------------------------ *)

let d y m dd = Sql_date.make ~year:y ~month:m ~day:dd

let test_date_teradata_encoding () =
  check ib "paper example: 2014-01-01 = 1140101" 1140101
    (Sql_date.to_teradata_int (d 2014 1 1));
  check sb "decode 1140101" "2014-01-01"
    (Sql_date.to_string (Sql_date.of_teradata_int 1140101));
  check ib "1998-12-01" 981201 (Sql_date.to_teradata_int (d 1998 12 1));
  check ib "2000-02-29 (leap)" 1000229 (Sql_date.to_teradata_int (d 2000 2 29))

let test_date_arithmetic () =
  check sb "add 31 days to 2014-01-01" "2014-02-01"
    (Sql_date.to_string (Sql_date.add_days (d 2014 1 1) 31));
  check sb "subtract a day across a year" "2013-12-31"
    (Sql_date.to_string (Sql_date.add_days (d 2014 1 1) (-1)));
  check ib "diff over leap year" 366 (Sql_date.diff_days (d 2001 1 1) (d 2000 1 1));
  check ib "diff over non-leap year" 365
    (Sql_date.diff_days (d 2002 1 1) (d 2001 1 1));
  check sb "add_months clamps day" "2014-02-28"
    (Sql_date.to_string (Sql_date.add_months (d 2014 1 31) 1));
  check sb "add 12 months" "2015-01-31"
    (Sql_date.to_string (Sql_date.add_months (d 2014 1 31) 12))

let test_date_validation () =
  Alcotest.check_raises "Feb 30 rejected"
    (Sql_error.Error
       { Sql_error.kind = Sql_error.Execution_error; message = "invalid date 2014-02-30" })
    (fun () -> ignore (d 2014 2 30));
  check bb "leap century" true (Sql_date.is_leap_year 2000);
  check bb "non-leap century" false (Sql_date.is_leap_year 1900);
  check ib "day_of_week of 1970-01-01 (Thursday=4)" 4
    (Sql_date.day_of_week (d 1970 1 1))

let prop_epoch_roundtrip =
  QCheck.Test.make ~name:"epoch_days round-trips" ~count:500
    QCheck.(int_range (-200_000) 600_000)
    (fun days ->
      Sql_date.to_epoch_days (Sql_date.of_epoch_days days) = days)

let prop_teradata_roundtrip =
  QCheck.Test.make ~name:"teradata int round-trips" ~count:500
    QCheck.(triple (int_range 1901 2999) (int_range 1 12) (int_range 1 28))
    (fun (y, m, dd) ->
      let date = d y m dd in
      Sql_date.equal date (Sql_date.of_teradata_int (Sql_date.to_teradata_int date)))

let prop_date_ordering_matches_teradata_int =
  QCheck.Test.make
    ~name:"date order = teradata-integer order (the duality the paper exploits)"
    ~count:500
    QCheck.(
      pair
        (triple (int_range 1901 2999) (int_range 1 12) (int_range 1 28))
        (triple (int_range 1901 2999) (int_range 1 12) (int_range 1 28)))
    (fun ((y1, m1, d1), (y2, m2, d2)) ->
      let a = d y1 m1 d1 and b = d y2 m2 d2 in
      compare (Sql_date.compare a b) 0
      = compare
          (compare (Sql_date.to_teradata_int a) (Sql_date.to_teradata_int b))
          0)

(* ------------------------------------------------------------------ *)
(* Decimal                                                              *)
(* ------------------------------------------------------------------ *)

let dec s = Decimal.of_string s

let test_decimal_parse_print () =
  check sb "simple" "12.34" (Decimal.to_string (dec "12.34"));
  check sb "negative" "-0.85" (Decimal.to_string (dec "-0.85"));
  check sb "integral" "100" (Decimal.to_string (dec "100"));
  check sb "leading dot" "0.5" (Decimal.to_string (dec ".5"));
  check sb "plus sign" "7.10" (Decimal.to_string (dec "+7.10"))

let test_decimal_arith () =
  check sb "add aligns scales" "3.55" (Decimal.to_string (Decimal.add (dec "1.5") (dec "2.05")));
  check sb "sub" "-0.55" (Decimal.to_string (Decimal.sub (dec "1.5") (dec "2.05")));
  check sb "mul" "1.875" (Decimal.to_string (Decimal.mul (dec "1.5") (dec "1.25")));
  check sb "mul paper example" "212.5"
    (Decimal.to_string (Decimal.mul (dec "250") (dec "0.85")));
  check ib "div rounds" 0 (Decimal.compare (Decimal.div (dec "1") (dec "8")) (dec "0.125"));
  check sb "div 10/3 to six places" "3.333333"
    (Decimal.to_string (Decimal.div (dec "10") (dec "3")))

let test_decimal_round () =
  check sb "round half away from zero" "2.35"
    (Decimal.to_string (Decimal.round (dec "2.345") ~scale:2));
  check sb "round negative" "-2.35"
    (Decimal.to_string (Decimal.round (dec "-2.345") ~scale:2));
  check sb "round to integer" "3" (Decimal.to_string (Decimal.round (dec "2.5") ~scale:0))

let test_decimal_division_by_zero () =
  Alcotest.check_raises "div by zero"
    (Sql_error.Error
       { Sql_error.kind = Sql_error.Execution_error; message = "division by zero" })
    (fun () -> ignore (Decimal.div (dec "1") (dec "0")))

let small_decimal_gen =
  QCheck.map
    (fun (m, s) -> Decimal.make ~mantissa:(Int64.of_int m) ~scale:s)
    QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range 0 4))

let prop_decimal_add_commutes =
  QCheck.Test.make ~name:"decimal add commutes" ~count:300
    (QCheck.pair small_decimal_gen small_decimal_gen)
    (fun (a, b) -> Decimal.equal (Decimal.add a b) (Decimal.add b a))

let prop_decimal_add_neg_is_zero =
  QCheck.Test.make ~name:"a + (-a) = 0" ~count:300 small_decimal_gen (fun a ->
      Decimal.is_zero (Decimal.add a (Decimal.neg a)))

let prop_decimal_normalize_preserves_value =
  QCheck.Test.make ~name:"normalize preserves comparison" ~count:300
    (QCheck.pair small_decimal_gen small_decimal_gen)
    (fun (a, b) ->
      Decimal.compare a b = Decimal.compare (Decimal.normalize a) (Decimal.normalize b))

let prop_decimal_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trips" ~count:300
    small_decimal_gen
    (fun a -> Decimal.equal a (Decimal.of_string (Decimal.to_string a)))

(* ------------------------------------------------------------------ *)
(* Interval                                                             *)
(* ------------------------------------------------------------------ *)

let test_interval () =
  let open Interval in
  check bb "years are months" true (equal (of_years 2) (of_months 24));
  check bb "add" true
    (equal (add (of_days 3) (of_days 4)) (of_days 7));
  check bb "sub to zero" true (equal (sub (of_hours 5) (of_hours 5)) zero);
  check bb "scale" true (equal (scale (of_minutes 10) 6) (of_hours 1));
  check sb "print day interval" "3 days" (to_string (of_days 3))

(* ------------------------------------------------------------------ *)
(* Value semantics                                                      *)
(* ------------------------------------------------------------------ *)

let vi n = Value.Int (Int64.of_int n)
let vd s = Value.Decimal (dec s)
let vf f = Value.Float f
let vs s = Value.Varchar s

let test_three_valued_comparison () =
  check bb "null vs int is unknown" true (Value.compare_sql Value.Null (vi 1) = None);
  check bb "int vs decimal crosses types" true
    (Value.compare_sql (vi 2) (vd "2.00") = Some 0);
  check bb "decimal vs float" true (Value.compare_sql (vd "2.5") (vf 2.25) = Some 1);
  check bb "string compare" true (Value.compare_sql (vs "a") (vs "b") = Some (-1));
  check bb "incomparable types" true (Value.compare_sql (vi 1) (vs "1") = None)

let test_grouping_equality () =
  check bb "nulls group together" true (Value.equal_group Value.Null Value.Null);
  check bb "nulls not sql-equal" false (Value.equal_sql Value.Null Value.Null);
  check bb "2 groups with 2.0" true (Value.equal_group (vi 2) (vd "2.0"));
  List.iter
    (fun (name, a, b) ->
      check bb (name ^ " group together") true (Value.equal_group a b);
      check bb (name ^ " hash alike") true (Value.hash a = Value.hash b))
    [
      ("2 and 2.0", vi 2, vd "2.0");
      ("1.50 and 1.5e0", vd "1.50", vf 1.5);
      ("2^53+1 and its float", Value.Int 9_007_199_254_740_993L,
       vf (Int64.to_float 9_007_199_254_740_993L));
      ("a date and its midnight", Value.Date (d 2020 1 2),
       Value.cast (Value.Date (d 2020 1 2)) Dtype.Timestamp);
    ]

let test_arith_semantics () =
  check bb "null propagates" true
    (Value.is_null (Value.arith Value.Add Value.Null (vi 1)));
  check sb "int + decimal = decimal" "3.50"
    (Value.to_string (Value.arith Value.Add (vi 1) (vd "2.50")));
  check sb "date + int (Teradata day arithmetic)" "2014-01-31"
    (Value.to_string
       (Value.arith Value.Add (Value.Date (d 2014 1 1)) (vi 30)));
  check sb "date - date = days" "31"
    (Value.to_string
       (Value.arith Value.Sub (Value.Date (d 2014 2 1)) (Value.Date (d 2014 1 1))));
  check sb "date + month interval" "2014-02-01"
    (Value.to_string
       (Value.arith Value.Add (Value.Date (d 2014 1 1))
          (Value.Interval (Interval.of_months 1))))

let test_casts () =
  check sb "int -> date via Teradata encoding" "2014-01-01"
    (Value.to_string (Value.cast (vi 1140101) Dtype.Date));
  check sb "date -> int" "1140101"
    (Value.to_string (Value.cast (Value.Date (d 2014 1 1)) Dtype.Int));
  check sb "string -> decimal with scale" "12.35"
    (Value.to_string
       (Value.cast (vs "12.345") (Dtype.Decimal { precision = 10; scale = 2 })));
  check sb "varchar truncation" "abc"
    (Value.to_string
       (Value.cast (vs "abcdef") (Dtype.varchar ~max_len:3 ())));
  check bb "bad cast raises" true
    (match Sql_error.protect (fun () -> Value.cast (vs "xyz") Dtype.Int) with
    | Error _ -> true
    | Ok _ -> false)

let test_sql_literals () =
  check sb "string quoting" "'it''s'" (Value.to_sql_literal (vs "it's"));
  check sb "date literal" "DATE '2014-01-01'"
    (Value.to_sql_literal (Value.Date (d 2014 1 1)));
  check sb "null literal" "NULL" (Value.to_sql_literal Value.Null)

let prop_compare_total_is_total_order =
  let value_gen =
    QCheck.oneof
      [
        QCheck.always Value.Null;
        QCheck.map vi QCheck.small_signed_int;
        QCheck.map vf (QCheck.float_bound_inclusive 1000.);
        QCheck.map vs QCheck.printable_string;
      ]
  in
  QCheck.Test.make ~name:"compare_total antisymmetric" ~count:300
    (QCheck.pair value_gen value_gen)
    (fun (a, b) ->
      compare (Value.compare_total a b) 0 = -compare (Value.compare_total b a) 0)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("date teradata encoding", `Quick, test_date_teradata_encoding);
    ("date arithmetic", `Quick, test_date_arithmetic);
    ("date validation", `Quick, test_date_validation);
    ("decimal parse/print", `Quick, test_decimal_parse_print);
    ("decimal arithmetic", `Quick, test_decimal_arith);
    ("decimal rounding", `Quick, test_decimal_round);
    ("decimal division by zero", `Quick, test_decimal_division_by_zero);
    ("interval", `Quick, test_interval);
    ("three-valued comparison", `Quick, test_three_valued_comparison);
    ("grouping equality", `Quick, test_grouping_equality);
    ("arithmetic semantics", `Quick, test_arith_semantics);
    ("casts", `Quick, test_casts);
    ("sql literals", `Quick, test_sql_literals);
  ]
  @ qsuite
      [
        prop_epoch_roundtrip;
        prop_teradata_roundtrip;
        prop_date_ordering_matches_teradata_int;
        prop_decimal_add_commutes;
        prop_decimal_add_neg_is_zero;
        prop_decimal_normalize_preserves_value;
        prop_decimal_string_roundtrip;
        prop_compare_total_is_total_order;
      ]
