(* Vectorized executor: compiles an XTRA plan into a tree of pull-based
   operators exchanging columnar {!Batch.t} values.

   Scans, filters, projections, equi-hash-joins, hash aggregation, DISTINCT,
   and LIMIT stream batch-at-a-time. The first four are morsel regions and
   aggregation folds one: each has one implementation, whatever the domain
   count. Blocking operators (sort, window, set operations) drain their
   compiled input and reuse the row-path implementations in {!Executor};
   plan shapes the batch path does not cover (CTEs, joins without an
   equality conjunct, grouping sets) fall back to the row interpreter
   wholesale. Scalar expressions compile to closures with column positions
   resolved at compile time — no per-row frame pushes or id hashtable
   lookups — and scalars the batch path cannot compile (subqueries,
   parameters) evaluate through a per-row adapter frame on the row path,
   so every plan executes. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra

(* An operator: a pull-based batch stream, plus, for scan, filter,
   projection and hash join, the morsel region that stream is made of. A
   region is started once; it then hands each body a private puller over a
   SHARED atomic morsel cursor, so bodies claim morsels dynamically. Every
   batch is tagged with its morsel sequence number; [op_of_region] reassembles
   outputs in sequence order, so the stream is the same at every domain
   count — the domain count is only how many bodies a run gets. [pm_tail]
   runs once on the caller after every morsel (outer-join unmatched rows,
   an input that has no region, and anything downstream of them). *)
type op = {
  schema : Xtra.schema;
  next : unit -> Batch.t option;
  par : par_source option;
}

and par_source = unit -> par_run

and par_run = {
  pm_total : int;  (** number of morsel sequence slots *)
  pm_make : int -> unit -> (int * Batch.t) option;
      (** [pm_make slot] builds the per-domain puller for body [slot]:
          domain-private compiled closures over the shared cursor *)
  pm_tail : Batch.t Seq.t;
      (** caller-side epilogue, ordered after all morsels; forced once *)
}

(* A morsel-tagged error: raised inside a puller chain so [run_morsels] can
   attribute the failure to a morsel and re-raise the error of the EARLIEST
   failing morsel — the one a single domain would have hit first. *)
exception Morsel_error of int * exn

(* --- per-operator batch counters (sampled by the obs registry) ---------
   Atomics: parallel morsel workers bump them concurrently. *)

let batch_counts : (string * int Atomic.t) list =
  [
    ("scan", Atomic.make 0);
    ("filter", Atomic.make 0);
    ("project", Atomic.make 0);
    ("join", Atomic.make 0);
    ("aggregate", Atomic.make 0);
    ("limit", Atomic.make 0);
    ("distinct", Atomic.make 0);
    ("materialized", Atomic.make 0);
  ]

let bump name = Atomic.incr (List.assoc name batch_counts)
let c_scan_rows = Atomic.make 0
let c_join_build_rows = Atomic.make 0
let c_join_probe_rows = Atomic.make 0
let c_agg_groups = Atomic.make 0
let c_fallback_ops = Atomic.make 0
let c_fallback_scalars = Atomic.make 0
let add c n = ignore (Atomic.fetch_and_add c n)

let counters () =
  List.map (fun (k, r) -> ("batches_" ^ k, Atomic.get r)) batch_counts
  @ [
      ("scan_rows", Atomic.get c_scan_rows);
      ("join_build_rows", Atomic.get c_join_build_rows);
      ("join_probe_rows", Atomic.get c_join_probe_rows);
      ("agg_groups", Atomic.get c_agg_groups);
      ("fallback_ops", Atomic.get c_fallback_ops);
      ("fallback_scalars", Atomic.get c_fallback_scalars);
    ]

let reset_counters () =
  List.iter (fun (_, r) -> Atomic.set r 0) batch_counts;
  List.iter
    (fun r -> Atomic.set r 0)
    [
      c_scan_rows;
      c_join_build_rows;
      c_join_probe_rows;
      c_agg_groups;
      c_fallback_ops;
      c_fallback_scalars;
    ]

(* --- small growable array --------------------------------------------- *)

module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 16 dummy; len = 0; dummy }
  let length v = v.len
  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x

  let push v x =
    if v.len >= Array.length v.data then begin
      let d = Array.make (2 * Array.length v.data) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1;
    v.len - 1
end

let tys_of (schema : Xtra.schema) =
  Array.of_list (List.map (fun (c : Xtra.col) -> c.Xtra.ty) schema)

(* --- scalar compilation ------------------------------------------------ *)

(* Pure expressions over constants only: no column, parameter, aggregate or
   subquery references, and no function calls (some are volatile). These
   evaluate once at compile time — the batch path's analogue of constant
   folding, and what lets [DATE '...' + INTERVAL '1' YEAR] feed a
   comparison kernel. *)
let rec is_const (s : Xtra.scalar) =
  match s with
  | Xtra.Const _ -> true
  | Xtra.Arith (_, a, b)
  | Xtra.Cmp (_, a, b)
  | Xtra.Logic_and (a, b)
  | Xtra.Logic_or (a, b)
  | Xtra.Concat (a, b) ->
      is_const a && is_const b
  | Xtra.Logic_not a | Xtra.Is_null (a, _) | Xtra.Cast (a, _)
  | Xtra.Extract (_, a) ->
      is_const a
  | _ -> false

(* The folded value, or None if the expression is not constant or folding
   raises (a constant error like 1/0 must surface per ROW, as the row
   interpreter would — not at compile time over an empty input). *)
let folded_const ctx (s : Xtra.scalar) =
  match s with
  | Xtra.Const v -> Some v
  | s when is_const s -> ( try Some (Executor.eval ctx s) with _ -> None)
  | _ -> None

(* A compiled scalar takes the batch and a PHYSICAL row index. [index] maps
   column ids of the operator's input schema to column positions; it doubles
   as the frame index for the row-path fallback. *)
let rec compile_scalar ctx (index : (int, int) Hashtbl.t) (s : Xtra.scalar) :
    Batch.t -> int -> Value.t =
  match folded_const ctx s with
  | Some v -> fun _ _ -> v
  | None -> compile_scalar_node ctx index s

and compile_scalar_node ctx (index : (int, int) Hashtbl.t) (s : Xtra.scalar) :
    Batch.t -> int -> Value.t =
  match s with
  | Xtra.Const v -> fun _ _ -> v
  | Xtra.Col_ref c -> (
      match Hashtbl.find_opt index c.Xtra.id with
      | Some pos -> fun b i -> Batch.get b pos i
      | None -> fallback_scalar ctx index s)
  | Xtra.Arith (op, a, b) ->
      let fa = compile_scalar ctx index a and fb = compile_scalar ctx index b in
      let vop =
        match op with
        | Xtra.Add -> Value.Add
        | Xtra.Sub -> Value.Sub
        | Xtra.Mul -> Value.Mul
        | Xtra.Div -> Value.Div
        | Xtra.Modulo -> Value.Modulo
      in
      fun bt i -> Value.arith vop (fa bt i) (fb bt i)
  | Xtra.Cmp (op, a, b) ->
      let fa = compile_scalar ctx index a and fb = compile_scalar ctx index b in
      fun bt i ->
        Scalar_func.value_of_bool3 (Scalar_func.eval_cmp op (fa bt i) (fb bt i))
  | Xtra.Logic_and (a, b) -> (
      let fa = compile_scalar ctx index a and fb = compile_scalar ctx index b in
      fun bt i ->
        match Scalar_func.bool3_of_value (fa bt i) with
        | Some false -> Value.Bool false
        | Some true -> fb bt i
        | None -> (
            match Scalar_func.bool3_of_value (fb bt i) with
            | Some false -> Value.Bool false
            | _ -> Value.Null))
  | Xtra.Logic_or (a, b) -> (
      let fa = compile_scalar ctx index a and fb = compile_scalar ctx index b in
      fun bt i ->
        match Scalar_func.bool3_of_value (fa bt i) with
        | Some true -> Value.Bool true
        | Some false -> fb bt i
        | None -> (
            match Scalar_func.bool3_of_value (fb bt i) with
            | Some true -> Value.Bool true
            | _ -> Value.Null))
  | Xtra.Logic_not a -> (
      let fa = compile_scalar ctx index a in
      fun bt i ->
        match Scalar_func.bool3_of_value (fa bt i) with
        | Some b -> Value.Bool (not b)
        | None -> Value.Null)
  | Xtra.Is_null (a, negated) ->
      let fa = compile_scalar ctx index a in
      fun bt i ->
        let v = fa bt i in
        Value.Bool (if negated then not (Value.is_null v) else Value.is_null v)
  | Xtra.Case { branches; else_branch; _ } ->
      let fbranches =
        List.map
          (fun (c, v) ->
            (compile_scalar ctx index c, compile_scalar ctx index v))
          branches
      in
      let felse = Option.map (compile_scalar ctx index) else_branch in
      fun bt i ->
        let rec go = function
          | [] -> ( match felse with Some f -> f bt i | None -> Value.Null)
          | (fc, fv) :: rest -> (
              match Scalar_func.bool3_of_value (fc bt i) with
              | Some true -> fv bt i
              | _ -> go rest)
        in
        go fbranches
  | Xtra.Cast (a, t) ->
      let fa = compile_scalar ctx index a in
      fun bt i -> Value.cast (fa bt i) t
  | Xtra.Func { name; args; _ } ->
      let fargs = List.map (compile_scalar ctx index) args in
      let env = Executor.scalar_env ctx in
      fun bt i ->
        Scalar_func.eval_function env name (List.map (fun f -> f bt i) fargs)
  | Xtra.Extract (f, a) ->
      let fa = compile_scalar ctx index a in
      fun bt i -> Scalar_func.eval_extract f (fa bt i)
  | Xtra.Concat (a, b) -> (
      let fa = compile_scalar ctx index a and fb = compile_scalar ctx index b in
      fun bt i ->
        match (fa bt i, fb bt i) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | a, b -> Value.Varchar (Value.to_string a ^ Value.to_string b))
  | Xtra.Like { arg; pattern; escape; negated } -> (
      let farg = compile_scalar ctx index arg
      and fpat = compile_scalar ctx index pattern in
      let fesc = Option.map (compile_scalar ctx index) escape in
      fun bt i ->
        match (farg bt i, fpat bt i) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | v, p ->
            let esc =
              match Option.map (fun f -> f bt i) fesc with
              | Some (Value.Varchar e) when String.length e = 1 -> Some e.[0]
              | Some Value.Null | None -> None
              | Some v ->
                  Sql_error.execution_error "bad ESCAPE %s" (Value.to_string v)
            in
            let m =
              Scalar_func.like_match ?escape:esc
                ~pattern:(Value.to_string p) (Value.to_string v)
            in
            Value.Bool (if negated then not m else m))
  | Xtra.In_list { arg; items; negated } ->
      let farg = compile_scalar ctx index arg in
      let fitems = List.map (compile_scalar ctx index) items in
      fun bt i ->
        let v = farg bt i in
        let r =
          List.fold_left
            (fun acc fitem ->
              match acc with
              | Some true -> acc
              | _ -> (
                  match Scalar_func.eval_cmp Xtra.Eq v (fitem bt i) with
                  | Some true -> Some true
                  | Some false -> (
                      match acc with None -> None | _ -> Some false)
                  | None -> None))
            (Some false) fitems
        in
        Scalar_func.value_of_bool3 (if negated then Option.map not r else r)
  | Xtra.In_subquery { args = [ arg ]; subquery; negated }
    when not (Executor.is_correlated ctx subquery) ->
      (* Hash semi-join: the row path rescans the materialized subquery rows
         for EVERY probe value (O(probes x rows)); here integer results build
         a hash set once. Non-integer values take a linear pass that mirrors
         the interpreter's three-valued fold exactly, so semantics — NULL
         cells make the answer unknown rather than false — are identical. *)
      let farg = compile_scalar ctx index arg in
      let state =
        lazy
          (let rows = Executor.exec_subquery ctx subquery in
           let tbl = Hashtbl.create (List.length rows) in
           let has_null = ref false and all_int = ref true in
           List.iter
             (fun (row : Executor.row) ->
               match row.(0) with
               | Value.Int n -> Hashtbl.replace tbl n ()
               | Value.Null -> has_null := true
               | _ -> all_int := false)
             rows;
           (rows, tbl, !has_null, !all_int))
      in
      let linear v rows =
        List.fold_left
          (fun acc (row : Executor.row) ->
            match acc with
            | Some true -> acc
            | _ -> (
                match (Scalar_func.eval_cmp Xtra.Eq v row.(0), acc) with
                | Some true, _ -> Some true
                | Some false, Some false -> Some false
                | Some false, None -> None
                | None, _ -> None
                | _, _ -> acc))
          (Some false) rows
      in
      fun b i ->
        let rows, tbl, has_null, all_int = Lazy.force state in
        let r =
          match farg b i with
          | Value.Int n when all_int ->
              if Hashtbl.mem tbl n then Some true
              else if has_null then None
              else Some false
          | v -> linear v rows
        in
        Scalar_func.value_of_bool3 (if negated then Option.map not r else r)
  | Xtra.Param _ | Xtra.Scalar_subquery _ | Xtra.Exists _ | Xtra.In_subquery _
  | Xtra.Quantified _ | Xtra.Agg_ref _ | Xtra.Window_ref _ ->
      fallback_scalar ctx index s

(* Scalars outside the compiled subset (subqueries, parameters, out-of-scope
   column refs) evaluate on the row path: materialize the row, push it as a
   frame, and let {!Executor.eval} do the rest — including correlated
   subquery decorrelation, which reads outer columns through that frame. *)
and fallback_scalar ctx index s =
  Atomic.incr c_fallback_scalars;
  let frame = { Executor.index; row = [||] } in
  fun b i ->
    frame.Executor.row <- Batch.to_row b i;
    Executor.push_frame ctx frame;
    Fun.protect
      ~finally:(fun () -> Executor.pop_frame ctx)
      (fun () -> Executor.eval ctx s)

(* Comparison kernels: a conjunct comparing a column to an integer or date
   constant runs directly over the unboxed vector when the column
   materialized as V_int / V_date — one branch per row, no boxing, NULLs
   rejected by the validity byte. *)
let flip_cmp = function
  | Xtra.Eq -> Xtra.Eq
  | Xtra.Neq -> Xtra.Neq
  | Xtra.Lt -> Xtra.Gt
  | Xtra.Lte -> Xtra.Gte
  | Xtra.Gt -> Xtra.Lt
  | Xtra.Gte -> Xtra.Lte

(* [true] iff [c op 0] — turns a three-way comparison into the conjunct's
   boolean with the same truth table as {!Scalar_func.eval_cmp}. *)
let cmp_sign op (c : int) =
  match op with
  | Xtra.Eq -> c = 0
  | Xtra.Neq -> c <> 0
  | Xtra.Lt -> c < 0
  | Xtra.Lte -> c <= 0
  | Xtra.Gt -> c > 0
  | Xtra.Gte -> c >= 0

let fast_cmp_kernel ctx (index : (int, int) Hashtbl.t) (conj : Xtra.scalar) :
    (Batch.t -> (int -> bool) option) option =
  let for_col c (op, k) =
    match Hashtbl.find_opt index c.Xtra.id with
    | None -> None
    | Some pos ->
        (* Filtering truth: a row passes only on [Some true]; [Some false]
           and NULL (None) both reject, so errors aside the kernel returns
           plain bool. *)
        let generic v =
          match Scalar_func.eval_cmp op v k with Some true -> true | _ -> false
        in
        (* Boxed vectors still skip the compiled-closure plumbing: direct
           array read, constructor fast path, [eval_cmp] only on mixed
           representations. *)
        let boxed : Value.t array -> int -> bool =
          match k with
          | Value.Null -> fun _ _ -> false
          | Value.Decimal kd ->
              fun a i -> (
                match a.(i) with
                | Value.Decimal d -> cmp_sign op (Decimal.compare d kd)
                | Value.Null -> false
                | v -> generic v)
          | Value.Varchar _ ->
              fun a i -> (
                match a.(i) with Value.Null -> false | v -> generic v)
          | _ -> fun a i -> generic a.(i)
        in
        Some
          (fun b ->
            match (Batch.col b pos, k) with
            | Batch.V_int { data; valid }, Value.Int ik ->
                Some
                  (fun i ->
                    Bytes.unsafe_get valid i = '\001'
                    && cmp_sign op (Int64.compare data.(i) ik))
            | Batch.V_date { data; valid }, Value.Date d ->
                (* teradata date ints are monotonic in date order *)
                let dk = Sql_date.to_teradata_int d in
                Some
                  (fun i ->
                    Bytes.unsafe_get valid i = '\001'
                    && cmp_sign op (compare data.(i) dk))
            | Batch.V_any a, _ -> Some (boxed a)
            | _ -> None)
  in
  (* column-vs-column comparison (e.g. L_COMMITDATE < L_RECEIPTDATE): both
     sides unboxed runs on flat ints; both boxed still skips the closures *)
  let col_col a b op =
    match (Hashtbl.find_opt index a.Xtra.id, Hashtbl.find_opt index b.Xtra.id)
    with
    | Some pa, Some pb ->
        Some
          (fun bt ->
            match (Batch.col bt pa, Batch.col bt pb) with
            | Batch.V_date va, Batch.V_date vb ->
                Some
                  (fun i ->
                    Bytes.unsafe_get va.valid i = '\001'
                    && Bytes.unsafe_get vb.valid i = '\001'
                    && cmp_sign op (compare va.data.(i) vb.data.(i)))
            | Batch.V_int va, Batch.V_int vb ->
                Some
                  (fun i ->
                    Bytes.unsafe_get va.valid i = '\001'
                    && Bytes.unsafe_get vb.valid i = '\001'
                    && cmp_sign op (Int64.compare va.data.(i) vb.data.(i)))
            | Batch.V_any va, Batch.V_any vb ->
                Some
                  (fun i ->
                    match Scalar_func.eval_cmp op va.(i) vb.(i) with
                    | Some true -> true
                    | _ -> false)
            | _ -> None)
    | _ -> None
  in
  match conj with
  | Xtra.Cmp (op, Xtra.Col_ref a, Xtra.Col_ref b) -> col_col a b op
  | Xtra.Cmp (op, Xtra.Col_ref c, rhs) -> (
      match folded_const ctx rhs with
      | Some v -> for_col c (op, v)
      | None -> None)
  | Xtra.Cmp (op, lhs, Xtra.Col_ref c) -> (
      match folded_const ctx lhs with
      | Some v -> for_col c (flip_cmp op, v)
      | None -> None)
  | _ -> None

(* --- operator construction --------------------------------------------- *)

let drain op =
  let acc = ref [] in
  let rec go () =
    match op.next () with
    | None -> List.rev !acc
    | Some b ->
        Batch.iter (fun i -> acc := Batch.to_row b i :: !acc) b;
        go ()
  in
  go ()

(* Stream an (on-demand) materialized row list as batches. *)
let op_of_lazy_rows label schema (rows : Executor.row list Lazy.t) =
  let tys = tys_of schema in
  let arr = lazy (Array.of_list (Lazy.force rows)) in
  let pos = ref 0 in
  {
    schema;
    next =
      (fun () ->
        let a = Lazy.force arr in
        if !pos >= Array.length a then None
        else begin
          let n = min Batch.capacity (Array.length a - !pos) in
          let b = Batch.of_rows tys a !pos n in
          pos := !pos + n;
          bump label;
          Some b
        end);
    par = None;
  }

let row_fallback ctx (r : Xtra.rel) =
  Atomic.incr c_fallback_ops;
  op_of_lazy_rows "materialized" (Xtra.schema_of r)
    (lazy (Executor.exec ctx r))

(* Per-aggregate incremental state, mirroring {!Executor.finalize_agg}
   exactly: SUM folds [Value.arith Add] in row order; AVG over integers
   finalizes as an exact decimal; MIN/MAX fold with [compare_sql]. DISTINCT
   aggregates collect raw values and defer to [finalize_agg]. *)
type agg_acc = {
  mutable a_count_all : int;
  mutable a_count_nn : int;
  mutable a_sum : Value.t;
  mutable a_min : Value.t;
  mutable a_max : Value.t;
  mutable a_vals : Value.t list;  (** reversed; distinct aggregates only *)
}

let new_acc () =
  {
    a_count_all = 0;
    a_count_nn = 0;
    a_sum = Value.Null;
    a_min = Value.Null;
    a_max = Value.Null;
    a_vals = [];
  }

(* Fold row [i] of batch [b] into one group's accumulators. *)
let agg_update (aggs_a : Xtra.agg_def array)
    (arg_fs : (Batch.t -> int -> Value.t) option array) (accs : agg_acc array)
    b i =
  Array.iteri
    (fun j (a : Xtra.agg_def) ->
      let acc = accs.(j) in
      let arg () =
        match arg_fs.(j) with Some f -> f b i | None -> Value.Bool true
      in
      if a.Xtra.adistinct then acc.a_vals <- arg () :: acc.a_vals
      else
        match a.Xtra.afunc with
        | Xtra.Count_star -> acc.a_count_all <- acc.a_count_all + 1
        | Xtra.Count ->
            if not (Value.is_null (arg ())) then
              acc.a_count_nn <- acc.a_count_nn + 1
        | Xtra.Sum ->
            let v = arg () in
            if not (Value.is_null v) then
              acc.a_sum <-
                (if Value.is_null acc.a_sum then v
                 else Value.arith Value.Add acc.a_sum v)
        | Xtra.Avg ->
            let v = arg () in
            if not (Value.is_null v) then begin
              acc.a_count_nn <- acc.a_count_nn + 1;
              acc.a_sum <-
                (if Value.is_null acc.a_sum then v
                 else Value.arith Value.Add acc.a_sum v)
            end
        | Xtra.Min ->
            let v = arg () in
            if not (Value.is_null v) then
              if Value.is_null acc.a_min then acc.a_min <- v
              else (
                match Value.compare_sql v acc.a_min with
                | Some c when c < 0 -> acc.a_min <- v
                | _ -> ())
        | Xtra.Max ->
            let v = arg () in
            if not (Value.is_null v) then
              if Value.is_null acc.a_max then acc.a_max <- v
              else (
                match Value.compare_sql v acc.a_max with
                | Some c when c > 0 -> acc.a_max <- v
                | _ -> ()))
    aggs_a

let agg_finalize_one (a : Xtra.agg_def) acc =
  if a.Xtra.adistinct then Executor.finalize_agg a (List.rev acc.a_vals)
  else
    match a.Xtra.afunc with
    | Xtra.Count_star -> Value.of_int acc.a_count_all
    | Xtra.Count -> Value.of_int acc.a_count_nn
    | Xtra.Sum -> acc.a_sum
    | Xtra.Avg -> (
        match acc.a_sum with
        | Value.Null -> Value.Null
        | Value.Int n ->
            (* AVG over integers is exact, not integer division *)
            Value.Decimal
              (Decimal.div (Decimal.of_int64 n) (Decimal.of_int acc.a_count_nn))
        | s -> Value.arith Value.Div s (Value.of_int acc.a_count_nn))
    | Xtra.Min -> acc.a_min
    | Xtra.Max -> acc.a_max

let agg_finalized aggs_a accs =
  Array.to_list
    (Array.mapi (fun j acc -> agg_finalize_one aggs_a.(j) acc) accs)

(* Aggregates a two-phase plan may compute as per-body partials merged
   after the barrier. The merge must be EXACT and order-insensitive, or the
   answer could depend on how morsels fell to bodies:
   - COUNT and COUNT_star add integer counts — always safe.
   - SUM/AVG only over Int/Decimal arguments (the output column type is Int
     or Decimal exactly when the argument is): integer addition wraps
     commutatively and decimal addition is exact, but float addition is not
     associative, so a domain split would change rounding.
   - MIN/MAX over types whose [Value.compare_sql] is total: a merge compares
     the per-domain extrema.
   - DISTINCT aggregates keep raw value LISTS whose global order a merge
     cannot reconstruct — excluded. *)
let par_safe_aggs (aggs : (Xtra.col * Xtra.agg_def) list) =
  List.for_all
    (fun ((c : Xtra.col), (a : Xtra.agg_def)) ->
      (not a.Xtra.adistinct)
      &&
      match a.Xtra.afunc with
      | Xtra.Count_star | Xtra.Count -> true
      | Xtra.Sum | Xtra.Avg -> (
          match c.Xtra.ty with
          | Dtype.Int | Dtype.Decimal _ -> true
          | _ -> false)
      | Xtra.Min | Xtra.Max -> (
          match c.Xtra.ty with
          | Dtype.Int | Dtype.Decimal _ | Dtype.Date | Dtype.Varchar _
          | Dtype.Bool ->
              true
          | _ -> false))
    aggs

(* Merge partial [src] into [dst]; for the [par_safe_aggs] subset the result
   equals folding both partials' rows in row order. *)
let merge_accs (aggs_a : Xtra.agg_def array) (dst : agg_acc array)
    (src : agg_acc array) =
  Array.iteri
    (fun j (a : Xtra.agg_def) ->
      let d = dst.(j) and s = src.(j) in
      match a.Xtra.afunc with
      | Xtra.Count_star -> d.a_count_all <- d.a_count_all + s.a_count_all
      | Xtra.Count -> d.a_count_nn <- d.a_count_nn + s.a_count_nn
      | Xtra.Sum ->
          if not (Value.is_null s.a_sum) then
            d.a_sum <-
              (if Value.is_null d.a_sum then s.a_sum
               else Value.arith Value.Add d.a_sum s.a_sum)
      | Xtra.Avg ->
          d.a_count_nn <- d.a_count_nn + s.a_count_nn;
          if not (Value.is_null s.a_sum) then
            d.a_sum <-
              (if Value.is_null d.a_sum then s.a_sum
               else Value.arith Value.Add d.a_sum s.a_sum)
      | Xtra.Min ->
          if not (Value.is_null s.a_min) then
            if Value.is_null d.a_min then d.a_min <- s.a_min
            else (
              match Value.compare_sql s.a_min d.a_min with
              | Some c when c < 0 -> d.a_min <- s.a_min
              | _ -> ())
      | Xtra.Max ->
          if not (Value.is_null s.a_max) then
            if Value.is_null d.a_max then d.a_max <- s.a_max
            else (
              match Value.compare_sql s.a_max d.a_max with
              | Some c when c > 0 -> d.a_max <- s.a_max
              | _ -> ()))
    aggs_a

(* Columns of [schema] that a conjunct-level comparison kernel will consume:
   these want flat unboxed vectors. Only conjuncts eligible for
   [fast_cmp_kernel] mark their column — unboxing a column that is then read
   through the generic boxed path would re-box a value per access. *)
let unbox_hint ctx (schema : Xtra.schema) (pred : Xtra.scalar) =
  let hint = Array.make (List.length schema) false in
  let mark (c : Xtra.col) =
    List.iteri
      (fun pos (sc : Xtra.col) ->
        if sc.Xtra.id = c.Xtra.id then hint.(pos) <- true)
      schema
  in
  List.iter
    (fun conj ->
      match conj with
      | Xtra.Cmp (_, Xtra.Col_ref a, Xtra.Col_ref b) ->
          (* the col-col kernel needs BOTH sides flat, and only runs on
             integer/date vectors *)
          let unboxable (c : Xtra.col) =
            match c.Xtra.ty with Dtype.Int | Dtype.Date -> true | _ -> false
          in
          if unboxable a && unboxable b && a.Xtra.ty = b.Xtra.ty then begin
            mark a;
            mark b
          end
      | Xtra.Cmp (_, Xtra.Col_ref c, other)
      | Xtra.Cmp (_, other, Xtra.Col_ref c) -> (
          match folded_const ctx other with
          | Some (Value.Int _ | Value.Date _) -> mark c
          | _ -> ())
      | _ -> ())
    (Executor.split_conjuncts pred);
  hint

let dbg_times : (string, float ref) Hashtbl.t = Hashtbl.create 8

(* Re-read per call (not lazy) so tests can toggle the variable at runtime.
   Regions bypass the per-op timing wrapper — fragment work inside a region
   is attributed to the op that drives the region — so [dbg_times] stays a
   caller-thread-only structure. *)
let dbg_enabled () =
  match Sys.getenv_opt "HYPERQ_EXEC_DEBUG" with
  | None | Some "" -> false (* empty = off, so tests can putenv it away *)
  | Some _ -> true

let dbg_report () =
  let all = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) dbg_times [] in
  List.iter
    (fun (k, t) -> Printf.eprintf "      %-12s %8.2f ms (incl. inputs)\n" k (1000. *. t))
    (List.sort (fun (_, a) (_, b) -> compare b a) all);
  Hashtbl.reset dbg_times

(* --- morsel regions ------------------------------------------------------ *)

(* An op without a region as one: no morsels, its whole stream as the
   tail. *)
let region_of (op : op) : par_source =
  match op.par with
  | Some src -> src
  | None ->
      fun () ->
        {
          pm_total = 0;
          pm_make = (fun _ () -> None);
          pm_tail = Seq.of_dispenser op.next;
        }

(* Drive a started region's morsels on up to [ndom] domains. Body [d] pulls
   its private puller and hands each morsel batch to [consume d], built once
   per body so it may hold domain-private compiled state. A body that sees
   an error, in the pull or in [consume], records it tagged with its morsel
   and stops pulling; after the barrier the error of the EARLIEST morsel
   re-raises. That choice is exactly the one-domain error: the cursor hands
   out morsels in ascending order, so every morsel before the earliest
   failing one was fully processed without error. *)
let run_morsels ndom (run : par_run) (consume : int -> int -> Batch.t -> unit)
    =
  let errs = ref [] in
  let errs_m = Mutex.create () in
  let record k e =
    Mutex.lock errs_m;
    errs := (k, e) :: !errs;
    Mutex.unlock errs_m
  in
  let body d =
    let pull = run.pm_make d and consume = consume d in
    let rec go () =
      match pull () with
      | None -> ()
      | Some (k, b) -> (
          match consume k b with
          | () ->
              Morsel.note_morsel d;
              go ()
          | exception e -> record k e)
      | exception Morsel_error (k, e) -> record k e
      | exception e -> record max_int e
    in
    go ()
  in
  Morsel.run ~domains:(max 1 (min ndom run.pm_total)) body;
  match List.sort (fun ((a : int), _) (b, _) -> compare a b) !errs with
  | (_, e) :: _ -> raise e
  | [] -> ()

(* Wrap a region as an op. With one domain (or at most one morsel) the op
   streams it: body 0's puller on the caller, then the tail. Otherwise the
   first pull runs every morsel across the domain pool, keeping the outputs
   in morsel order, and then streams them and the tail. Either way the
   batches come out in the same order, and empty ones (morsels filtered down
   to nothing) are skipped. *)
let op_of_region ctx schema (src : par_source) : op =
  let start () : Batch.t Seq.t =
    let run = src () in
    let ndom = min ctx.Executor.domains run.pm_total in
    if ndom <= 1 then begin
      let pull = run.pm_make 0 in
      let rec body () =
        match pull () with
        | Some (_, b) -> Seq.Cons (b, body)
        | None -> run.pm_tail ()
        | exception Morsel_error (_, e) -> raise e
      in
      body
    end
    else begin
      let out = Array.make run.pm_total None in
      run_morsels ndom run (fun _ k b -> out.(k) <- Some b);
      Seq.append (Seq.filter_map Fun.id (Array.to_seq out)) run.pm_tail
    end
  in
  let rest = ref (fun () -> start () ()) in
  let rec next () =
    match !rest () with
    | Seq.Nil ->
        rest := Seq.empty;
        None
    | Seq.Cons (b, tl) ->
        rest := tl;
        if Batch.num_rows b = 0 then next () else Some b
  in
  { schema; next; par = Some src }

(* A region whose every batch, in the morsels and in the tail, passes
   through [make pctx]: compiled once per body against a domain-private ctx
   (compiled scalars may push adapter frames on the ctx they captured), and
   against [ctx] for the tail. An error in it is tagged with its morsel. *)
let map_region ctx (src : par_source) make : par_source =
 fun () ->
  let run = src () in
  {
    run with
    pm_make =
      (fun d ->
        let f = make (Executor.clone_for_domain ctx) and pull = run.pm_make d in
        fun () ->
          match pull () with
          | None -> None
          | Some (k, b) -> (
              match f b with
              | b -> Some (k, b)
              | exception e -> raise (Morsel_error (k, e))));
    pm_tail = (fun () -> Seq.map (make ctx) run.pm_tail ());
  }

(* Conjunct filters for [compile_filter], compiled once per region body. *)
let make_conjs ctx index pred =
  List.map
    (fun conj ->
      let f = compile_scalar ctx index conj in
      let generic b i = Scalar_func.bool3_of_value (f b i) = Some true in
      match fast_cmp_kernel ctx index conj with
      | Some kern -> (
          fun b -> match kern b with Some k -> k | None -> generic b)
      | None -> fun b -> generic b)
    (Executor.split_conjuncts pred)

(* Narrow [b]'s selection vector through the conjuncts in place; the batch
   may come out empty ([nsel = 0]). *)
let apply_conjs conjs b =
  let sel =
    match b.Batch.sel with
    | Some s -> s
    | None -> Array.init b.Batch.nrows (fun i -> i)
  in
  let n =
    ref (match b.Batch.sel with Some _ -> b.Batch.nsel | None -> b.Batch.nrows)
  in
  List.iter
    (fun conj ->
      if !n > 0 then begin
        let keep = conj b in
        let cnt = ref 0 in
        for k = 0 to !n - 1 do
          let i = sel.(k) in
          if keep i then begin
            sel.(!cnt) <- i;
            incr cnt
          end
        done;
        n := !cnt
      end)
    conjs;
  b.Batch.sel <- Some sel;
  b.Batch.nsel <- !n

let rel_label : Xtra.rel -> string = function
  | Xtra.Get _ -> "get"
  | Xtra.Values_rel _ -> "values"
  | Xtra.Filter _ -> "filter"
  | Xtra.Project _ -> "project"
  | Xtra.Join _ -> "join"
  | Xtra.Aggregate _ -> "aggregate"
  | Xtra.Window _ -> "window"
  | Xtra.Sort _ -> "sort"
  | Xtra.Limit _ -> "limit"
  | Xtra.Distinct _ -> "distinct"
  | Xtra.Set_operation _ -> "set_op"
  | Xtra.Cte_ref _ -> "cte_ref"
  | Xtra.With_cte _ -> "with_cte"

let rec compile ctx (r : Xtra.rel) : op =
  if not (dbg_enabled ()) then compile_node ctx r
  else begin
    let op = compile_node ctx r in
    let slot =
      match Hashtbl.find_opt dbg_times (rel_label r) with
      | Some s -> s
      | None ->
          let s = ref 0. in
          Hashtbl.add dbg_times (rel_label r) s;
          s
    in
    {
      op with
      next =
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let b = op.next () in
          slot := !slot +. (Unix.gettimeofday () -. t0);
          b);
    }
  end

and compile_node ctx (r : Xtra.rel) : op =
  match r with
  | Xtra.Get _ -> compile_get ctx r ()
  | Xtra.Filter { input = Xtra.Get _ as g; pred } ->
      compile_filter ctx
        (compile_get ctx g ~unbox:(unbox_hint ctx (Xtra.schema_of g) pred) ())
        pred
  | Xtra.Filter { input; pred } -> compile_filter ctx (compile ctx input) pred
  | Xtra.Project { input; proj } ->
      let iop = compile ctx input in
      let index = Executor.make_index iop.schema in
      let project pctx =
        let plans =
          Array.of_list
            (List.map
               (fun ((_ : Xtra.col), e) ->
                 match e with
                 | Xtra.Col_ref c -> (
                     match Hashtbl.find_opt index c.Xtra.id with
                     | Some pos -> `Share pos
                     | None -> `Compute (compile_scalar pctx index e))
                 | e -> `Compute (compile_scalar pctx index e))
               proj)
        in
        fun b ->
          let cols =
            Array.map
              (function
                | `Share pos -> Batch.col b pos
                | `Compute f ->
                    let a = Array.make b.Batch.nrows Value.Null in
                    Batch.iter (fun i -> a.(i) <- f b i) b;
                    Batch.V_any a)
              plans
          in
          if Batch.num_rows b > 0 then bump "project";
          Batch.of_cols cols ~nrows:b.Batch.nrows ~sel:b.Batch.sel
            ~nsel:b.Batch.nsel
      in
      op_of_region ctx (Xtra.schema_of r)
        (map_region ctx (region_of iop) project)
  | Xtra.Join { kind; left; right; pred } -> compile_join ctx r kind left right pred
  | Xtra.Aggregate { grouping_sets = Some _; _ } -> row_fallback ctx r
  | Xtra.Aggregate { input; group_by; aggs; grouping_sets = None } ->
      compile_agg ctx r input group_by aggs
  | Xtra.Window { input; windows } ->
      let ischema = Xtra.schema_of input in
      op_of_lazy_rows "materialized" (Xtra.schema_of r)
        (lazy
          (Executor.exec_window_rows ctx ischema
             (drain (compile ctx input))
             windows))
  | Xtra.Sort { input; sort_keys } ->
      let ischema = Xtra.schema_of input in
      op_of_lazy_rows "materialized" (Xtra.schema_of r)
        (lazy
          (Executor.sort_rows ctx ischema sort_keys (drain (compile ctx input))))
  | Xtra.Limit { input; count; offset; with_ties; percent } ->
      if with_ties || percent then
        Sql_error.internal_error
          "TOP WITH TIES/PERCENT must be expanded before reaching the engine";
      let iop = compile ctx input in
      let eval_int = function
        | None -> None
        | Some e -> (
            match Executor.eval ctx e with
            | Value.Int n -> Some (Int64.to_int n)
            | Value.Decimal d -> Some (Int64.to_int (Decimal.to_int64 d))
            | v ->
                Sql_error.execution_error "LIMIT expects an integer, got %s"
                  (Value.to_string v))
      in
      let to_skip = ref (Option.value (eval_int offset) ~default:0) in
      let remaining = ref (Option.map (fun n -> max 0 n) (eval_int count)) in
      {
        schema = iop.schema;
        next =
          (fun () ->
            let rec loop () =
              if !remaining = Some 0 then None
              else
                match iop.next () with
                | None -> None
                | Some b ->
                    let n = Batch.num_rows b in
                    if !to_skip >= n then begin
                      to_skip := !to_skip - n;
                      loop ()
                    end
                    else begin
                      let avail = n - !to_skip in
                      let take =
                        match !remaining with
                        | Some rem -> min rem avail
                        | None -> avail
                      in
                      let sel =
                        Array.init take (fun k ->
                            Batch.phys_index b (!to_skip + k))
                      in
                      to_skip := 0;
                      (match !remaining with
                      | Some rem -> remaining := Some (rem - take)
                      | None -> ());
                      b.Batch.sel <- Some sel;
                      b.Batch.nsel <- take;
                      bump "limit";
                      Some b
                    end
            in
            loop ());
        par = None;
      }
  | Xtra.Distinct { input } ->
      let iop = compile ctx input in
      let ht = Hash_table.create ~null_equal:true 64 in
      {
        schema = iop.schema;
        next =
          (fun () ->
            let rec loop () =
              match iop.next () with
              | None -> None
              | Some b ->
                  let sel = Array.make (Batch.num_rows b) 0 in
                  let cnt = ref 0 in
                  Batch.iter
                    (fun i ->
                      let key = Batch.to_row b i in
                      let h = Hash_table.hash_key key in
                      let _, inserted = Hash_table.find_or_insert ht key h in
                      if inserted then begin
                        sel.(!cnt) <- i;
                        incr cnt
                      end)
                    b;
                  if !cnt = 0 then loop ()
                  else begin
                    b.Batch.sel <- Some sel;
                    b.Batch.nsel <- !cnt;
                    bump "distinct";
                    Some b
                  end
            in
            loop ());
        par = None;
      }
  | Xtra.Set_operation { op; all; left; right } ->
      op_of_lazy_rows "materialized" (Xtra.schema_of r)
        (lazy
          (Executor.set_op_rows op all
             (drain (compile ctx left))
             (drain (compile ctx right))))
  | Xtra.Values_rel _ | Xtra.Cte_ref _ | Xtra.With_cte _ -> row_fallback ctx r

(* Scan region: one morsel per [Batch.capacity]-row window, claimed off an
   atomic cursor. *)
and compile_get ctx (r : Xtra.rel) ?unbox () : op =
  match r with
  | Xtra.Get { table; table_schema; _ } ->
      let schema = Xtra.schema_of r in
      let tys = tys_of schema in
      let width = List.length table_schema in
      let src () =
        let a = Storage.scan_array ctx.Executor.storage table in
        Array.iter
          (fun (row : Executor.row) ->
            if Array.length row <> width then
              Sql_error.internal_error "width mismatch scanning %s" table)
          a;
        let n = Array.length a in
        let total = (n + Batch.capacity - 1) / Batch.capacity in
        let cursor = Atomic.make 0 in
        {
          pm_total = total;
          pm_make =
            (fun _ () ->
              let k = Atomic.fetch_and_add cursor 1 in
              if k >= total then None
              else begin
                let lo = k * Batch.capacity in
                let len = min Batch.capacity (n - lo) in
                let b = Batch.of_rows ?unbox tys a lo len in
                bump "scan";
                add c_scan_rows len;
                Some (k, b)
              end);
          pm_tail = Seq.empty;
        }
      in
      op_of_region ctx schema src
  | _ -> Sql_error.internal_error "compile_get expects a Get node"

(* Conjunct-at-a-time filtering: each AND-conjunct narrows the selection
   vector in place before the next one runs, so later (often more
   expensive) conjuncts only see survivors, and conjuncts with a
   comparison kernel never box a value. Order is preserved — a row dropped
   by conjunct N never reaches conjunct N+1, matching the row path's
   short-circuit. A morsel that filters to zero rows stays in the region
   (its sequence slot must be filled); {!op_of_region} skips it. *)
and compile_filter ctx iop pred : op =
  let index = Executor.make_index iop.schema in
  let filter pctx =
    let conjs = make_conjs pctx index pred in
    fun b ->
      apply_conjs conjs b;
      if b.Batch.nsel > 0 then bump "filter";
      b
  in
  op_of_region ctx iop.schema (map_region ctx (region_of iop) filter)

(* Equi-hash-join. The build runs once, on the caller, when the region
   starts: it drains the right input (whose own regions may run on every
   domain) into a row store and evaluates the keys batch by batch, in row
   order, so a failing key raises the error the row path would at any
   domain count. Rows go into per-key duplicate chains
   ([Hash_table.chains]); NULL keys never enter them — SQL equality can
   never match a NULL — and the table itself (join mode) asserts none slip
   through. The probe is the left input's region: each body probes whole
   left morsels against the read-only chains with its own key closures and
   residual frames. Outer-join [matched] flags are idempotent writes the
   run barrier publishes; the unmatched-right sweep runs in the tail, after
   every probe. Joins the batch path does not cover (cross, no equality
   conjunct) fall back wholesale. *)
and compile_join ctx (jnode : Xtra.rel) kind left right pred : op =
  let lschema = Xtra.schema_of left and rschema = Xtra.schema_of right in
  let lids = List.map (fun (c : Xtra.col) -> c.Xtra.id) lschema in
  let rids = List.map (fun (c : Xtra.col) -> c.Xtra.id) rschema in
  let conjuncts =
    match pred with Some p -> Executor.split_conjuncts p | None -> []
  in
  let equi, residual = Executor.split_equi ~lids ~rids conjuncts in
  let vectorizable =
    (match kind with Xtra.Cross -> false | _ -> true) && equi <> []
  in
  if not vectorizable then row_fallback ctx jnode
  else begin
    let lop = compile ctx left and rop = compile ctx right in
    let lindex = Executor.make_index lop.schema in
    let rindex = Executor.make_index rop.schema in
    let schema = Xtra.schema_of jnode in
    let tys = tys_of schema in
    let null_right = Array.make (List.length rschema) Value.Null in
    let null_left = Array.make (List.length lschema) Value.Null in
    let keep_left = kind = Xtra.Left_outer || kind = Xtra.Full_outer in
    let keep_right = kind = Xtra.Right_outer || kind = Xtra.Full_outer in
    let chains = Hash_table.create_chains () in
    let rrows : Executor.row Vec.t = Vec.create [||] in
    let matched = ref [||] in
    let build () =
      let t0 = Unix.gettimeofday () in
      let rkey_fs =
        Array.of_list
          (List.map (fun (_, b) -> compile_scalar ctx rindex b) equi)
      in
      let rec go () =
        match rop.next () with
        | None -> ()
        | Some rb ->
            Batch.iter
              (fun i ->
                let ri = Vec.push rrows (Batch.to_row rb i) in
                let key = Array.map (fun f -> f rb i) rkey_fs in
                if not (Array.exists Value.is_null key) then
                  Hash_table.add_item chains key ri)
              rb;
            go ()
      in
      go ();
      add c_join_build_rows (Vec.length rrows);
      if keep_right then matched := Array.make (Vec.length rrows) false;
      if dbg_enabled () then
        Printf.eprintf "      join build: %.2f ms (%d rows)\n"
          (1000. *. (Unix.gettimeofday () -. t0))
          (Vec.length rrows)
    in
    let batch_of_buf (buf : Executor.row Vec.t) =
      if Vec.length buf > 0 then bump "join";
      Batch.of_rows tys buf.Vec.data 0 (Vec.length buf)
    in
    (* One output batch per probe batch, possibly larger than
       [Batch.capacity]: downstream operators size off [nrows]. Residual
       conjuncts check each candidate pair on the row path, exactly as the
       row interpreter does: a pair joins only when every residual is
       [Some true]; a probe row none of whose candidates survive counts as
       unmatched for outer-join purposes. *)
    let probe pctx =
      let lkey_fs =
        Array.of_list
          (List.map (fun (a, _) -> compile_scalar pctx lindex a) equi)
      in
      let lframe = { Executor.index = lindex; row = [||] } in
      let rframe = { Executor.index = rindex; row = [||] } in
      let residual_ok lrow rrow =
        residual = []
        || begin
             lframe.Executor.row <- lrow;
             rframe.Executor.row <- rrow;
             Executor.push_frame pctx lframe;
             Executor.push_frame pctx rframe;
             let ok =
               List.for_all
                 (fun c ->
                   Scalar_func.bool3_of_value (Executor.eval pctx c) = Some true)
                 residual
             in
             Executor.pop_frame pctx;
             Executor.pop_frame pctx;
             ok
           end
      in
      fun lb ->
        add c_join_probe_rows (Batch.num_rows lb);
        let buf : Executor.row Vec.t = Vec.create [||] in
        Batch.iter
          (fun i ->
            let key = Array.map (fun f -> f lb i) lkey_fs in
            let first =
              if Array.exists Value.is_null key then -1
              else Hash_table.first_item chains key
            in
            if first < 0 then begin
              if keep_left then
                ignore
                  (Vec.push buf (Array.append (Batch.to_row lb i) null_right))
            end
            else begin
              let lrow = Batch.to_row lb i in
              let any = ref false in
              let j = ref first in
              while !j >= 0 do
                let rrow = Vec.get rrows !j in
                if residual_ok lrow rrow then begin
                  any := true;
                  if keep_right then !matched.(!j) <- true;
                  ignore (Vec.push buf (Array.append lrow rrow))
                end;
                j := Hash_table.next_item chains !j
              done;
              if (not !any) && keep_left then
                ignore (Vec.push buf (Array.append lrow null_right))
            end)
          lb;
        batch_of_buf buf
    in
    let unmatched_right () =
      let buf : Executor.row Vec.t = Vec.create [||] in
      Array.iteri
        (fun j m ->
          if not m then
            ignore (Vec.push buf (Array.append null_left (Vec.get rrows j))))
        !matched;
      Seq.Cons (batch_of_buf buf, Seq.empty)
    in
    op_of_region ctx schema (fun () ->
        build ();
        let run = map_region ctx (region_of lop) probe () in
        if keep_right then
          { run with pm_tail = Seq.append run.pm_tail unmatched_right }
        else run)
  end

(* Two-phase hash aggregation: each body folds its morsels into a private
   partial (a hash table of per-group accumulators, each group tagged with
   its first (morsel, position)), the tail folds into partial 0, and after
   the barrier partials 1.. merge into partial 0 in body order. Groups come
   out sorted by tag: first-seen order over the row stream, as the row path
   emits them. A merge is exact only for [par_safe_aggs]; any other
   aggregate reads its input as one stream (the input's [next], which still
   runs the input's own region on every domain), so it has no morsels, one
   body and one partial, and folds in row order. A global aggregate is the
   one group of the empty key, emitted even over no rows. *)
and compile_agg ctx (anode : Xtra.rel) input group_by aggs : op =
  let schema = Xtra.schema_of anode in
  let aggs_a = Array.of_list (List.map snd aggs) in
  let iop = compile ctx input in
  let index = Executor.make_index iop.schema in
  let rows =
    lazy
      (let run =
         region_of
           (if par_safe_aggs aggs then iop else { iop with par = None })
           ()
       in
       let nd = max 1 (min ctx.Executor.domains run.pm_total) in
       let partials =
         Array.init nd (fun _ ->
             ( Hash_table.create ~null_equal:true 64,
               (Vec.create [||] : agg_acc array Vec.t),
               Vec.create 0 ))
       in
       let stride = 1 lsl 40 in
       let fold pctx slot =
         let ht, gaccs, firsts = partials.(slot) in
         let key_fs =
           Array.of_list
             (List.map
                (fun ((_ : Xtra.col), e) -> compile_scalar pctx index e)
                group_by)
         in
         let arg_fs =
           Array.map
             (fun (a : Xtra.agg_def) ->
               Option.map (compile_scalar pctx index) a.Xtra.aarg)
             aggs_a
         in
         fun k b ->
           let pos = ref 0 in
           Batch.iter
             (fun i ->
               let key = Array.map (fun f -> f b i) key_fs in
               let e, inserted =
                 Hash_table.find_or_insert ht key (Hash_table.hash_key key)
               in
               if inserted then begin
                 ignore
                   (Vec.push gaccs (Array.map (fun _ -> new_acc ()) aggs_a));
                 ignore (Vec.push firsts ((k * stride) + !pos))
               end;
               agg_update aggs_a arg_fs (Vec.get gaccs e) b i;
               incr pos)
             b
       in
       run_morsels nd run (fun d -> fold (Executor.clone_for_domain ctx) d);
       let fold_tail = fold ctx 0 in
       Seq.iteri (fun i b -> fold_tail (run.pm_total + i) b) run.pm_tail;
       let ht, gaccs, firsts = partials.(0) in
       for s = 1 to nd - 1 do
         let sht, sgaccs, sfirsts = partials.(s) in
         for g = 0 to Hash_table.count sht - 1 do
           let key = Hash_table.entry_key sht g in
           let e, inserted =
             Hash_table.find_or_insert ht key (Hash_table.hash_key key)
           in
           if inserted then begin
             ignore (Vec.push gaccs (Vec.get sgaccs g));
             ignore (Vec.push firsts (Vec.get sfirsts g))
           end
           else begin
             merge_accs aggs_a (Vec.get gaccs e) (Vec.get sgaccs g);
             if Vec.get sfirsts g < Vec.get firsts e then
               Vec.set firsts e (Vec.get sfirsts g)
           end
         done
       done;
       let n = Hash_table.count ht in
       add c_agg_groups n;
       if n = 0 && group_by = [] then
         [
           Array.of_list
             (agg_finalized aggs_a (Array.map (fun _ -> new_acc ()) aggs_a));
         ]
       else begin
         let order = Array.init n Fun.id in
         Array.stable_sort
           (fun a b -> Int.compare (Vec.get firsts a) (Vec.get firsts b))
           order;
         Array.to_list
           (Array.map
              (fun g ->
                Array.append (Hash_table.entry_key ht g)
                  (Array.of_list (agg_finalized aggs_a (Vec.get gaccs g))))
              order)
       end)
  in
  op_of_lazy_rows "aggregate" schema rows

(* --- entry point -------------------------------------------------------- *)

(* Execute [rel] on the batch path, returning materialized rows (the
   backend's result representation). *)
let exec_rows ctx (rel : Xtra.rel) : Executor.row list =
  let rows = drain (compile ctx rel) in
  if dbg_enabled () then dbg_report ();
  rows
