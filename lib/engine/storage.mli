(** Row storage for the in-memory analytical engine (the paper's target
    cloud data warehouse substrate). Tables are mutable row collections; a
    coarse snapshot mechanism backs BEGIN/COMMIT/ROLLBACK. Scans are
    copy-free: an unchanged table returns the same list and array on every
    scan, which callers share and must not mutate. Scans may run on several
    domains at once; writes may not run beside them. *)

open Hyperq_sqlvalue

type row = Value.t array

type t

val create : unit -> t

(** [create_table t ~dedup ~temporary name] — [dedup] enables Teradata
    SET-table semantics (duplicate rows silently rejected); [temporary]
    marks the table session-scoped. *)
val create_table : t -> ?dedup:bool -> ?temporary:bool -> string -> unit

val drop_table : t -> string -> unit
val rename_table : t -> from_name:string -> to_name:string -> unit

(** Rows in insertion order; raises {!Sql_error.Error} if the table has no
    storage. Physically the same list until the next write. *)
val scan : t -> string -> row list

(** [scan] as an array; physically the same array until the next write. *)
val scan_array : t -> string -> row array

(** Insert rows, honouring SET-table deduplication; returns the number of
    rows actually inserted. *)
val insert : t -> string -> row list -> int

(** Replace the full contents (used by UPDATE/DELETE); the array is kept
    as the table's storage, so the caller must not write to it afterwards. *)
val replace_rows : t -> string -> row array -> unit

val row_count : t -> string -> int

(** Snapshot transactions over table {e contents}. DDL is not transactional
    (as in several production warehouses): tables created inside a rolled-
    back transaction lose their rows but keep their definition. [begin_tx]
    raises on nesting; [rollback_tx] with no open transaction is a no-op. *)
val begin_tx : t -> unit

val commit_tx : t -> unit
val rollback_tx : t -> unit
val in_tx : t -> bool

(** Drop all session-scoped tables; returns their names. *)
val drop_temporaries : t -> string list
