(** Runtime SQL values and their semantics: three-valued comparison, numeric
    coercion, casts, and the Teradata date/int duality.

    The same representation flows through the whole stack: the engine
    evaluates expressions over it, TDF serializes it, and the result
    converter re-encodes it into the source database's binary row format. *)

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

val is_null : t -> bool
val of_int : int -> t
val of_string : string -> t

(** {1 Typed column accessors}

    The columnar executor unboxes INTEGER and FLOAT columns into flat
    [int64 array] / [float array] vectors; these convert individual cells
    to and from that representation. The [_exn] readers raise an internal
    error when the cell does not carry the expected representation — they
    are for loops that have already established the column type. *)

val of_int64 : int64 -> t
val is_int : t -> bool
val is_float : t -> bool
val int64_exn : t -> int64
val float_exn : t -> float
val type_of : t -> Dtype.t

val micros_per_day : int64

(** SQL three-valued comparison: [None] when either side is NULL or the
    types are incomparable. The Teradata DATE/INT comparison is deliberately
    NOT handled here — the binder/transformer rewrite it away before
    execution (paper §5.2). *)
val compare_sql : t -> t -> int option

(** Total order used for sorting and grouping; NULL sorts first (callers
    implement NULLS FIRST/LAST on top). *)
val compare_total : t -> t -> int

(** WHERE-clause equality: false when either side is NULL. *)
val equal_sql : t -> t -> bool

(** GROUP BY / DISTINCT equality: NULLs compare equal to each other, and
    numerically equal values of different representations are equal. *)
val equal_group : t -> t -> bool

val to_float_exn : t -> float
val to_decimal_exn : t -> Decimal.t
val to_int64_exn : t -> int64

type binop = Add | Sub | Mul | Div | Modulo

(** SQL arithmetic with NULL propagation, Teradata day arithmetic
    ([date + n], [date - date]), and interval arithmetic. *)
val arith : binop -> t -> t -> t

(** SQL CAST; raises {!Sql_error.Error} on impossible conversions. *)
val cast : t -> Dtype.t -> t

(** Human-readable rendering (unquoted). *)
val to_string : t -> string

(** SQL-literal rendering (strings quoted and escaped, [DATE '...'], ...). *)
val to_sql_literal : t -> string

val pp : Format.formatter -> t -> unit

(** Structural hash compatible with {!equal_group}: values that compare
    equal hash alike, across INTEGER/DECIMAL/FLOAT and DATE/TIMESTAMP. *)
val hash : t -> int
