(** The target database system (DB-B in the paper's terms).

    A self-contained analytical SQL engine: it parses the ANSI dialect the
    serializers emit, binds against its own (physical) catalog, optimizes,
    and executes. This substitutes for the paper's cloud data warehouse —
    everything Hyper-Q emits is genuinely re-parsed and executed, closing
    the translation loop end to end. *)

open Hyperq_sqlvalue

type t = {
  catalog : Hyperq_catalog.Catalog.t;  (** the engine's physical catalog *)
  storage : Storage.t;
  mutable session_user : string;
  mutable queries_executed : int;
  mutable exec_mode : exec_mode;
      (** which executor runs [Query] statements and the sources of DML
          (the [INSERT … SELECT] source, the FROM relation of [UPDATE/DELETE
          … FROM]). Defaults to [Batch] unless [HYPERQ_EXEC_MODE=row] is
          set. *)
  mutable exec_domains : int;
      (** intra-statement parallelism budget for the vectorized executor
          (morsel-driven execution on OCaml domains). Defaults to
          {!Morsel.configured_domains} ([HYPERQ_EXEC_DOMAINS], 1 = fully
          sequential); only the [Batch] path uses it, DML sources
          included. *)
}

and exec_mode = Row | Batch  (** row interpreter vs vectorized executor *)

type result = {
  res_schema : (string * Dtype.t) list;
  res_rows : Value.t array list;
  res_rowcount : int;  (** affected rows for DML; result rows for queries *)
  res_message : string;  (** activity tag, e.g. "SELECT", "INSERT" *)
}

val create : unit -> t

(** Execute an already-bound XTRA statement (the engine applies its own
    optimizer pass first). [UPDATE] and [DELETE] match target rows to FROM
    rows set-based (hash on the target, FROM rows streamed); a target row
    matched by two FROM rows in an [UPDATE] raises Teradata's 7547. *)
val exec_statement : t -> Hyperq_xtra.Xtra.statement -> result

(** Execute one SQL statement in the engine's own (ANSI) dialect: the full
    parse → bind → optimize → execute path of a standalone database. *)
val execute_sql : t -> string -> result

(** Execute a [;]-separated script; returns the last statement's result. *)
val execute_script : t -> string -> result
