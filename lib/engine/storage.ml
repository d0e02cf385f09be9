(** Row storage for the in-memory analytical engine.

    The engine plays the role of the paper's target cloud data warehouse.
    Tables are mutable vectors of value arrays; a coarse snapshot mechanism
    backs BEGIN/COMMIT/ROLLBACK (adequate for the single-writer analytical
    workloads the paper evaluates).

    Each table holds its rows as an insertion-ordered array plus the rows
    inserted since it was last built, so scans are copy-free: scanning a
    table unchanged since its last scan returns the same array (and, for
    the row interpreter, the same list) and allocates nothing proportional
    to its size. Arrays are never written in place, only replaced: callers
    share them, the rows in them and the lists, and must not mutate any
    of these. A scan may fold the pending rows in, so scans serialize on
    one lock: the morsel workers of a parallel query, on other domains,
    scan the same tables. Writes come from the statement's own domain,
    never from inside a parallel region. *)

open Hyperq_sqlvalue

type row = Value.t array

type table_data = {
  mutable base : row array;  (** insertion order *)
  mutable pending : row list;  (** inserted after [base] was built, newest first *)
  mutable listed : row list option;  (** all rows as a list, until the next write *)
  mutable count : int;
  dedup : bool;  (** SET-table semantics: reject duplicate rows *)
  temporary : bool;
}

type t = {
  tables : (string, table_data) Hashtbl.t;
  mutable snapshot : (string * table_data) list option;
      (** saved table contents while a transaction is open *)
  scan_lock : Mutex.t;
      (** held while a scan folds [pending] into [base] or caches [listed]:
          morsel workers on other domains scan the same tables *)
}

let create () =
  { tables = Hashtbl.create 32; snapshot = None; scan_lock = Mutex.create () }

let key = String.uppercase_ascii

let create_table t ?(dedup = false) ?(temporary = false) name =
  Hashtbl.replace t.tables (key name)
    { base = [||]; pending = []; listed = None; count = 0; dedup; temporary }

let drop_table t name = Hashtbl.remove t.tables (key name)

let rename_table t ~from_name ~to_name =
  match Hashtbl.find_opt t.tables (key from_name) with
  | None -> Sql_error.execution_error "table %s has no storage" from_name
  | Some data ->
      Hashtbl.remove t.tables (key from_name);
      Hashtbl.replace t.tables (key to_name) data

let find t name = Hashtbl.find_opt t.tables (key name)

let get t name =
  match find t name with
  | Some d -> d
  | None -> Sql_error.execution_error "table %s has no storage" name

(* [base] with [pending] folded in; the caller holds [scan_lock]. *)
let folded d =
  if d.pending <> [] then begin
    d.base <- Array.append d.base (Array.of_list (List.rev d.pending));
    d.pending <- []
  end;
  d.base

(** Rows in insertion order, as an array. *)
let scan_array t name =
  let d = get t name in
  Mutex.protect t.scan_lock (fun () -> folded d)

(** Rows in insertion order. *)
let scan t name =
  let d = get t name in
  Mutex.protect t.scan_lock (fun () ->
      match d.listed with
      | Some rows -> rows
      | None ->
          let rows = Array.to_list (folded d) in
          d.listed <- Some rows;
          rows)

let row_equal (a : row) (b : row) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (Value.equal_group a.(i) b.(i) && go (i + 1))
  in
  go 0

(** Insert rows, honouring SET-table deduplication. Returns the number of
    rows actually inserted. *)
let insert t name new_rows =
  let d = get t name in
  let inserted = ref 0 in
  List.iter
    (fun r ->
      if
        d.dedup
        && (List.exists (row_equal r) d.pending || Array.exists (row_equal r) d.base)
      then ()
      else begin
        d.pending <- r :: d.pending;
        d.count <- d.count + 1;
        incr inserted
      end)
    new_rows;
  if !inserted > 0 then d.listed <- None;
  !inserted

(** Replace the full contents (used by UPDATE/DELETE); [rows] is kept, not
    copied. *)
let replace_rows t name rows =
  let d = get t name in
  d.base <- rows;
  d.pending <- [];
  d.listed <- None;
  d.count <- Array.length rows

let row_count t name = (get t name).count

(* --- transactions --------------------------------------------------- *)

let begin_tx t =
  if t.snapshot <> None then
    Sql_error.execution_error "nested transactions are not supported";
  (* shallow copies suffice: arrays are replaced, never written in place *)
  t.snapshot <-
    Some
      (Hashtbl.fold
         (fun name d acc -> (name, { d with count = d.count }) :: acc)
         t.tables [])

let commit_tx t = t.snapshot <- None

let rollback_tx t =
  match t.snapshot with
  | None -> ()
  | Some saved ->
      Hashtbl.reset t.tables;
      List.iter (fun (name, d) -> Hashtbl.replace t.tables name d) saved;
      t.snapshot <- None

let in_tx t = t.snapshot <> None

(** Drop all session-scoped (temporary) tables; returns their names. *)
let drop_temporaries t =
  let temps =
    Hashtbl.fold (fun name d acc -> if d.temporary then name :: acc else acc) t.tables []
  in
  List.iter (Hashtbl.remove t.tables) temps;
  temps
