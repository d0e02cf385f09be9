(** Runtime SQL values and their semantics (three-valued comparison, numeric
    coercion, casts, Teradata date/int duality).

    The same value representation flows through the whole stack: the engine
    evaluates expressions over it, TDF serializes it, and the result converter
    re-encodes it into the source database's binary row format. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Decimal of Decimal.t
  | Varchar of string
  | Date of Sql_date.t
  | Time of int64  (** microseconds since midnight *)
  | Timestamp of int64  (** microseconds since the Unix epoch *)
  | Interval of Interval.t
  | Period_date of Sql_date.t * Sql_date.t
  | Bytes of string

let is_null = function Null -> true | _ -> false
let of_int n = Int (Int64.of_int n)
let of_string s = Varchar s

(* Typed column accessors for the columnar executor: a column whose declared
   type is INTEGER or FLOAT unboxes into a flat array, and batches convert
   cells to/from that representation without an option allocation. The [_exn]
   readers are for loops that have already established the column type. *)
let of_int64 n = Int n
let is_int = function Int _ -> true | _ -> false
let is_float = function Float _ -> true | _ -> false

let int64_exn = function
  | Int n -> n
  | _ -> Sql_error.internal_error "expected an unboxed INTEGER cell"

let float_exn = function
  | Float f -> f
  | _ -> Sql_error.internal_error "expected an unboxed FLOAT cell"

let type_of = function
  | Null -> Dtype.Unknown
  | Bool _ -> Dtype.Bool
  | Int _ -> Dtype.Int
  | Float _ -> Dtype.Float
  | Decimal d -> Dtype.Decimal { precision = 18; scale = d.Decimal.scale }
  | Varchar _ -> Dtype.varchar ()
  | Date _ -> Dtype.Date
  | Time _ -> Dtype.Time
  | Timestamp _ -> Dtype.Timestamp
  | Interval i ->
      if i.Interval.months <> 0 then Dtype.Interval_ym else Dtype.Interval_ds
  | Period_date _ -> Dtype.Period Dtype.Pdate
  | Bytes _ -> Dtype.Bytes

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let micros_per_day = 86_400_000_000L

let timestamp_of_date d =
  Int64.mul (Int64.of_int (Sql_date.to_epoch_days d)) micros_per_day

(* Numeric tower: int < decimal < float. *)
let compare_numeric a b =
  match (a, b) with
  | Int x, Int y -> Some (Int64.compare x y)
  | Float x, Float y -> Some (Float.compare x y)
  | Decimal x, Decimal y -> Some (Decimal.compare x y)
  | Int x, Float y -> Some (Float.compare (Int64.to_float x) y)
  | Float x, Int y -> Some (Float.compare x (Int64.to_float y))
  | Int x, Decimal y -> Some (Decimal.compare (Decimal.of_int64 x) y)
  | Decimal x, Int y -> Some (Decimal.compare x (Decimal.of_int64 y))
  | Float x, Decimal y -> Some (Float.compare x (Decimal.to_float y))
  | Decimal x, Float y -> Some (Float.compare (Decimal.to_float x) y)
  | _ -> None

(** SQL three-valued comparison: [None] when either side is NULL or the types
    are incomparable. Note: DATE/INT comparison is deliberately NOT handled
    here — Teradata's date-int duality is a front-end dialect feature that the
    binder must rewrite away (paper §5.2) before execution. *)
let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Bool.compare x y)
  | (Int _ | Float _ | Decimal _), (Int _ | Float _ | Decimal _) ->
      compare_numeric a b
  | Varchar x, Varchar y -> Some (String.compare x y)
  | Date x, Date y -> Some (Sql_date.compare x y)
  | Time x, Time y -> Some (Int64.compare x y)
  | Timestamp x, Timestamp y -> Some (Int64.compare x y)
  | Date x, Timestamp y -> Some (Int64.compare (timestamp_of_date x) y)
  | Timestamp x, Date y -> Some (Int64.compare x (timestamp_of_date y))
  | Interval x, Interval y -> Some (Interval.compare x y)
  | Period_date (s1, e1), Period_date (s2, e2) -> (
      match Sql_date.compare s1 s2 with
      | 0 -> Some (Sql_date.compare e1 e2)
      | c -> Some c)
  | Bytes x, Bytes y -> Some (String.compare x y)
  | _ -> None

(* Rank of each constructor for the total order below. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ | Decimal _ -> 2
  | Varchar _ -> 3
  | Date _ | Timestamp _ -> 4
  | Time _ -> 5
  | Interval _ -> 6
  | Period_date _ -> 7
  | Bytes _ -> 8

(** Total order used for sorting and grouping. NULL sorts first by default
    (callers implement NULLS FIRST/LAST on top of this). *)
let compare_total a b =
  match compare_sql a b with
  | Some c -> c
  | None -> (
      match (a, b) with
      | Null, Null -> 0
      | Null, _ -> -1
      | _, Null -> 1
      | _ -> Int.compare (rank a) (rank b))

let equal_sql a b = match compare_sql a b with Some 0 -> true | _ -> false

(** Grouping equality: NULLs compare equal to each other (SQL GROUP BY /
    DISTINCT semantics differ from WHERE semantics here). *)
let equal_group a b = compare_total a b = 0

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let to_float_exn = function
  | Int n -> Int64.to_float n
  | Float f -> f
  | Decimal d -> Decimal.to_float d
  | v ->
      Sql_error.execution_error "cannot use %s as a number"
        (Dtype.to_string (type_of v))

let to_decimal_exn = function
  | Int n -> Decimal.of_int64 n
  | Decimal d -> d
  | Float f -> Decimal.of_float f
  | v ->
      Sql_error.execution_error "cannot use %s as a decimal"
        (Dtype.to_string (type_of v))

let to_int64_exn = function
  | Int n -> n
  | Decimal d -> Decimal.to_int64 d
  | Float f -> Int64.of_float f
  | Bool b -> if b then 1L else 0L
  | Varchar s -> (
      match Int64.of_string_opt (String.trim s) with
      | Some n -> n
      | None -> Sql_error.execution_error "cannot convert %S to an integer" s)
  | Date d -> Int64.of_int (Sql_date.to_teradata_int d)
  | v ->
      Sql_error.execution_error "cannot use %s as an integer"
        (Dtype.to_string (type_of v))

type binop = Add | Sub | Mul | Div | Modulo

let arith_numeric op a b =
  match (a, b, op) with
  | Int x, Int y, Add -> Int (Int64.add x y)
  | Int x, Int y, Sub -> Int (Int64.sub x y)
  | Int x, Int y, Mul -> Int (Int64.mul x y)
  | Int x, Int y, Div ->
      if y = 0L then Sql_error.execution_error "division by zero"
      else Int (Int64.div x y)
  | Int x, Int y, Modulo ->
      if y = 0L then Sql_error.execution_error "division by zero"
      else Int (Int64.rem x y)
  | (Float _ | Int _ | Decimal _), (Float _ | Int _ | Decimal _), _ -> (
      match (a, b) with
      | Float _, _ | _, Float _ -> (
          let x = to_float_exn a and y = to_float_exn b in
          match op with
          | Add -> Float (x +. y)
          | Sub -> Float (x -. y)
          | Mul -> Float (x *. y)
          | Div ->
              if y = 0. then Sql_error.execution_error "division by zero"
              else Float (x /. y)
          | Modulo -> Float (Float.rem x y))
      | _ -> (
          let x = to_decimal_exn a and y = to_decimal_exn b in
          match op with
          | Add -> Decimal (Decimal.add x y)
          | Sub -> Decimal (Decimal.sub x y)
          | Mul -> Decimal (Decimal.mul x y)
          | Div -> Decimal (Decimal.div x y)
          | Modulo ->
              let fx = Decimal.to_float x and fy = Decimal.to_float y in
              if fy = 0. then Sql_error.execution_error "division by zero"
              else Decimal (Decimal.of_float (Float.rem fx fy))))
  | _ ->
      Sql_error.execution_error "invalid operands for arithmetic: %s, %s"
        (Dtype.to_string (type_of a))
        (Dtype.to_string (type_of b))

(** SQL arithmetic with NULL propagation, date +/- integer (day counts, the
    Teradata convention), date - date, and interval arithmetic. *)
let arith op a b =
  match (a, b, op) with
  | Null, _, _ | _, Null, _ -> Null
  | Date d, Int n, Add -> Date (Sql_date.add_days d (Int64.to_int n))
  | Int n, Date d, Add -> Date (Sql_date.add_days d (Int64.to_int n))
  | Date d, Int n, Sub -> Date (Sql_date.add_days d (-Int64.to_int n))
  | Date d1, Date d2, Sub -> Int (Int64.of_int (Sql_date.diff_days d1 d2))
  | Date d, Interval i, Add ->
      Date (Sql_date.add_days (Sql_date.add_months d i.Interval.months) i.Interval.days)
  | Interval i, Date d, Add ->
      Date (Sql_date.add_days (Sql_date.add_months d i.Interval.months) i.Interval.days)
  | Date d, Interval i, Sub ->
      let i = Interval.neg i in
      Date (Sql_date.add_days (Sql_date.add_months d i.Interval.months) i.Interval.days)
  | Timestamp t, Interval i, Add ->
      if i.Interval.months <> 0 then
        Sql_error.execution_error "month interval on timestamp not supported"
      else
        Timestamp
          (Int64.add t
             (Int64.add i.Interval.micros
                (Int64.mul (Int64.of_int i.Interval.days) micros_per_day)))
  | Timestamp t, Interval i, Sub ->
      if i.Interval.months <> 0 then
        Sql_error.execution_error "month interval on timestamp not supported"
      else
        Timestamp
          (Int64.sub t
             (Int64.add i.Interval.micros
                (Int64.mul (Int64.of_int i.Interval.days) micros_per_day)))
  | Interval i1, Interval i2, Add -> Interval (Interval.add i1 i2)
  | Interval i1, Interval i2, Sub -> Interval (Interval.sub i1 i2)
  | Interval i, Int n, Mul -> Interval (Interval.scale i (Int64.to_int n))
  | Int n, Interval i, Mul -> Interval (Interval.scale i (Int64.to_int n))
  | _ -> arith_numeric op a b

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)
(* ------------------------------------------------------------------ *)

let rec cast v target =
  match (v, target) with
  | Null, _ -> Null
  | _, Dtype.Unknown -> v
  | v, t when Dtype.same_family (type_of v) t -> (
      match (v, t) with
      | Decimal d, Dtype.Decimal { scale; _ } ->
          if d.Decimal.scale <= scale then Decimal (Decimal.rescale d scale)
          else Decimal (Decimal.round d ~scale)
      | Varchar s, Dtype.Varchar { max_len = Some n; _ }
        when String.length s > n ->
          Varchar (String.sub s 0 n)
      | v, _ -> v)
  | Int n, Dtype.Float -> Float (Int64.to_float n)
  | Int n, Dtype.Decimal { scale; _ } ->
      Decimal (Decimal.rescale (Decimal.of_int64 n) scale)
  | Int n, Dtype.Bool -> Bool (n <> 0L)
  | Int n, Dtype.Date -> Date (Sql_date.of_teradata_int (Int64.to_int n))
  | Float f, Dtype.Int -> Int (Int64.of_float f)
  | Float f, Dtype.Decimal { scale; _ } -> Decimal (Decimal.of_float ~scale f)
  | Decimal d, Dtype.Int -> Int (Decimal.to_int64 d)
  | Decimal d, Dtype.Float -> Float (Decimal.to_float d)
  | Date d, Dtype.Int -> Int (Int64.of_int (Sql_date.to_teradata_int d))
  | Date d, Dtype.Timestamp -> Timestamp (timestamp_of_date d)
  | Timestamp t, Dtype.Date ->
      Date (Sql_date.of_epoch_days (Int64.to_int (Int64.div t micros_per_day)))
  | Varchar s, Dtype.Int -> (
      match Int64.of_string_opt (String.trim s) with
      | Some n -> Int n
      | None -> Sql_error.execution_error "cannot cast %S to BIGINT" s)
  | Varchar s, Dtype.Float -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Float f
      | None -> Sql_error.execution_error "cannot cast %S to DOUBLE" s)
  | Varchar s, Dtype.Decimal { scale; _ } ->
      Decimal (Decimal.round (Decimal.of_string s) ~scale)
  | Varchar s, Dtype.Date -> Date (Sql_date.of_string s)
  | Varchar s, Dtype.Bool -> (
      match String.lowercase_ascii (String.trim s) with
      | "t" | "true" | "1" | "y" -> Bool true
      | "f" | "false" | "0" | "n" -> Bool false
      | _ -> Sql_error.execution_error "cannot cast %S to BOOLEAN" s)
  | v, Dtype.Varchar { max_len; _ } -> (
      let s = to_string v in
      match max_len with
      | Some n when String.length s > n -> Varchar (String.sub s 0 n)
      | _ -> Varchar s)
  | v, t ->
      Sql_error.execution_error "cannot cast %s to %s"
        (Dtype.to_string (type_of v))
        (Dtype.to_string t)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

and to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "true" else "false"
  | Int n -> Int64.to_string n
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.12g" f
  | Decimal d -> Decimal.to_string d
  | Varchar s -> s
  | Date d -> Sql_date.to_string d
  | Time t ->
      let s = Int64.div t 1_000_000L in
      Printf.sprintf "%02Ld:%02Ld:%02Ld" (Int64.div s 3600L)
        (Int64.rem (Int64.div s 60L) 60L)
        (Int64.rem s 60L)
  | Timestamp t ->
      let days = Int64.div t micros_per_day |> Int64.to_int in
      let rem = Int64.rem t micros_per_day in
      let days, rem =
        if Int64.compare rem 0L < 0 then (days - 1, Int64.add rem micros_per_day)
        else (days, rem)
      in
      let d = Sql_date.of_epoch_days days in
      let s = Int64.div rem 1_000_000L in
      Printf.sprintf "%s %02Ld:%02Ld:%02Ld" (Sql_date.to_string d)
        (Int64.div s 3600L)
        (Int64.rem (Int64.div s 60L) 60L)
        (Int64.rem s 60L)
  | Interval i -> Interval.to_string i
  | Period_date (s, e) ->
      Printf.sprintf "(%s, %s)" (Sql_date.to_string s) (Sql_date.to_string e)
  | Bytes b ->
      let buf = Buffer.create (String.length b * 2) in
      String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
      Buffer.contents buf

(** SQL-literal rendering (strings quoted), used by serializers and by the
    single-row DML batching rewrite. *)
let to_sql_literal = function
  | Null -> "NULL"
  | Varchar s ->
      "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Date d -> Printf.sprintf "DATE '%s'" (Sql_date.to_string d)
  | Bool b -> if b then "TRUE" else "FALSE"
  | v -> to_string v

let pp ppf v = Fmt.string ppf (to_string v)

(* Numeric hashes agree wherever [compare_numeric] says equal: a float
   equals an integer only through [Int64.to_float], so integers beyond
   2^53 hash through their float image, and a fractional decimal is
   compared with a float through [Decimal.to_float]. *)
let hash_float f =
  if Float.is_integer f && Float.abs f < 9e18 then
    Int64.to_int (Int64.of_float f) land max_int
  else Hashtbl.hash f

let max_exact_int = 9_007_199_254_740_992L (* 2^53 *)

let hash_int64 n =
  if Int64.compare n (Int64.neg max_exact_int) >= 0
     && Int64.compare n max_exact_int <= 0
  then Int64.to_int n land max_int
  else hash_float (Int64.to_float n)

(** Structural hash compatible with [equal_group] (and so with [compare_sql]
    equality) for hash-based grouping and joins: values that compare equal
    hash alike across representations — INTEGER, DECIMAL and FLOAT; DATE
    and TIMESTAMP. *)
let hash v =
  match v with
  | Null -> 17
  | Bool b -> if b then 3 else 5
  | Int n -> hash_int64 n
  | Float f -> hash_float f
  | Decimal d ->
      let n = Decimal.normalize d in
      if n.Decimal.scale = 0 then hash_int64 n.Decimal.mantissa
      else hash_float (Decimal.to_float n)
  | Varchar s -> Hashtbl.hash s
  | Date d -> Int64.to_int (timestamp_of_date d) land max_int
  | Time t -> Int64.to_int t land max_int
  | Timestamp t -> Int64.to_int t land max_int
  | Interval _ | Period_date _ | Bytes _ -> Hashtbl.hash v
