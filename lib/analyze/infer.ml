(** Static plan-property inference over XTRA (abstract interpretation).

    A single bottom-up walk computes, for every relational operator and
    scalar expression, a conservative property lattice:

    - {b nullability} per column/expression ({!Not_null} < {!Maybe_null} >
      {!Always_null}), seeded from catalog NOT NULL constraints at [Get]
      and refined by null-rejecting predicates on the way up;
    - {b value intervals} (min/max with open/closed bounds) over the
      orderable value families — INT, DECIMAL, FLOAT, DATE, TIME,
      TIMESTAMP — describing the {e non-NULL} values an expression can
      take;
    - {b keys}: sets of column ids known to be duplicate-free in the
      operator's output (GROUP BY keys, DISTINCT, deduplicating set ops),
      plus a static row-count upper bound;
    - {b determinism} in Postgres' vocabulary (immutable / stable /
      volatile), joined over every builtin call an expression contains.

    On top of the lattice sits a three-valued-logic predicate analysis
    ({!pred_truth}) that over-approximates the set of outcomes a predicate
    can produce ({i can it be TRUE / FALSE / NULL?}). Conjunctions are
    cross-refined: each conjunct is re-evaluated in the environment implied
    by the others, which catches range contradictions such as
    [x > 5 AND x < 3] that no single conjunct reveals. The [can_true =
    false] verdict is what powers contradiction pruning, the L006 lint and
    the V601 validator code; null-rejection ({!rejects_when_null}) powers
    outer-join strengthening and V603.

    Everything here is an over-approximation: [can_true = true] means "we
    could not prove the predicate never holds", never the converse, so the
    two transformer passes below ({!contradiction_pruning},
    {!join_strengthening}) only fire on proofs. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra
module Builtins = Hyperq_binder.Builtins
module Catalog = Hyperq_catalog.Catalog
module Transformer = Hyperq_transform.Transformer

module Imap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* The property lattice                                                *)
(* ------------------------------------------------------------------ *)

type nullability = Not_null | Maybe_null | Always_null

(** One interval endpoint; [incl] is false for strict bounds ([x > 5]). *)
type bound = { bval : Value.t; incl : bool }

(** Interval of the values an expression takes {e when it is not NULL}.
    [None] endpoints are unbounded. NULL itself is tracked separately by
    {!nullability}, so forcing a column to NULL never touches its interval. *)
type interval = { lo : bound option; hi : bound option }

type props = {
  null : nullability;
  ival : interval;
  det : Builtins.determinism;
}

(** Relational-operator summary: per-column properties keyed by column id,
    key sets (each a sorted duplicate-free id list), and a static row-count
    upper bound when one is known ([Some 0] = provably empty). *)
type rel_props = {
  cols : props Imap.t;
  keys : int list list;
  card_max : int option;
}

(** Over-approximated three-valued truth of a predicate. *)
type truth = { can_true : bool; can_false : bool; can_null : bool }

let top_interval = { lo = None; hi = None }
let unknown_props = { null = Maybe_null; ival = top_interval; det = Builtins.Immutable }
let truth_top = { can_true = true; can_false = true; can_null = true }

let null_join a b =
  match (a, b) with
  | Not_null, Not_null -> Not_null
  | Always_null, Always_null -> Always_null
  | _ -> Maybe_null

(* Strict (NULL-in, NULL-out) combination over operand nullabilities. *)
let null_strict args =
  if List.exists (fun n -> n = Always_null) args then Always_null
  else if List.for_all (fun n -> n = Not_null) args then Not_null
  else Maybe_null

let nullability_name = function
  | Not_null -> "not-null"
  | Maybe_null -> "nullable"
  | Always_null -> "always-null"

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let vcmp a b = Value.compare_sql a b

(* Only orderable families participate in interval reasoning. *)
let orderable v =
  match v with
  | Value.Int _ | Value.Float _ | Value.Decimal _ | Value.Date _
  | Value.Time _ | Value.Timestamp _ ->
      true
  | _ -> false

let point v =
  if orderable v then
    { lo = Some { bval = v; incl = true }; hi = Some { bval = v; incl = true } }
  else top_interval

(* Tighter of two lower bounds (interval intersection). When the bounds are
   incomparable, keeping either one over-approximates the intersection. *)
let lo_tighter a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> (
      match vcmp x.bval y.bval with
      | Some c ->
          if c > 0 then Some x
          else if c < 0 then Some y
          else Some { bval = x.bval; incl = x.incl && y.incl }
      | None -> a)

let hi_tighter a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> (
      match vcmp x.bval y.bval with
      | Some c ->
          if c < 0 then Some x
          else if c > 0 then Some y
          else Some { bval = x.bval; incl = x.incl && y.incl }
      | None -> a)

(* Looser of two lower bounds (interval union); incomparable widens. *)
let lo_looser a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> (
      match vcmp x.bval y.bval with
      | Some c ->
          if c < 0 then Some x
          else if c > 0 then Some y
          else Some { bval = x.bval; incl = x.incl || y.incl }
      | None -> None)

let hi_looser a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> (
      match vcmp x.bval y.bval with
      | Some c ->
          if c > 0 then Some x
          else if c < 0 then Some y
          else Some { bval = x.bval; incl = x.incl || y.incl }
      | None -> None)

let interval_meet a b = { lo = lo_tighter a.lo b.lo; hi = hi_tighter a.hi b.hi }
let interval_join a b = { lo = lo_looser a.lo b.lo; hi = hi_looser a.hi b.hi }

(** An interval that provably contains no value. *)
let interval_empty iv =
  match (iv.lo, iv.hi) with
  | Some l, Some h -> (
      match vcmp l.bval h.bval with
      | Some c -> c > 0 || (c = 0 && not (l.incl && h.incl))
      | None -> false)
  | _ -> false

(* Possible outcomes of comparing a value drawn from [ia] with one from
   [ib]: (can_lt, can_eq, can_gt). Missing or incomparable bounds mean
   "possible". *)
let cmp_outcomes ia ib =
  let can_lt =
    match (ia.lo, ib.hi) with
    | Some l, Some h -> (
        match vcmp l.bval h.bval with Some c -> c < 0 | None -> true)
    | _ -> true
  in
  let can_gt =
    match (ia.hi, ib.lo) with
    | Some h, Some l -> (
        match vcmp h.bval l.bval with Some c -> c > 0 | None -> true)
    | _ -> true
  in
  (* disjointness: an upper bound of one strictly below a lower bound of
     the other (counting strictness at equality) rules equality out *)
  let separated h l =
    match (h, l) with
    | Some h, Some l -> (
        match vcmp h.bval l.bval with
        | Some c -> c < 0 || (c = 0 && not (h.incl && l.incl))
        | None -> false)
    | _ -> false
  in
  let can_eq = not (separated ia.hi ib.lo || separated ib.hi ia.lo) in
  (can_lt, can_eq, can_gt)

(* Monotone interval arithmetic for + and - over orderable values. *)
let bound_arith op a b incl_of =
  match (a, b) with
  | Some x, Some y -> (
      match Value.arith op x.bval y.bval with
      | v when orderable v -> Some { bval = v; incl = incl_of x y }
      | _ -> None
      | exception _ -> None)
  | _ -> None

let interval_arith (op : Xtra.arith_op) ia ib =
  let both x y = x.incl && y.incl in
  match op with
  | Xtra.Add ->
      {
        lo = bound_arith Value.Add ia.lo ib.lo both;
        hi = bound_arith Value.Add ia.hi ib.hi both;
      }
  | Xtra.Sub ->
      {
        lo = bound_arith Value.Sub ia.lo ib.hi both;
        hi = bound_arith Value.Sub ia.hi ib.lo both;
      }
  | Xtra.Mul | Xtra.Div | Xtra.Modulo -> top_interval

let int_bound n = Some { bval = Value.Int (Int64.of_int n); incl = true }
let int_range a b = { lo = int_bound a; hi = int_bound b }

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let det_join = Builtins.determinism_join

(** Weakest determinism class of any builtin called anywhere inside a
    scalar, including subquery bodies. *)
let rec det_of_scalar s =
  let acc = ref Builtins.Immutable in
  ignore
    (Xtra.map_scalar
       (fun x ->
         (match x with
         | Xtra.Func { name; _ } -> acc := det_join !acc (Builtins.determinism name)
         | Xtra.Scalar_subquery r | Xtra.Exists r -> acc := det_join !acc (det_of_rel r)
         | Xtra.In_subquery { subquery; _ } | Xtra.Quantified { subquery; _ } ->
             acc := det_join !acc (det_of_rel subquery)
         | _ -> ());
         x)
       s);
  !acc

and det_of_rel r =
  Xtra.fold_rel
    (fun acc node ->
      match node with
      | Xtra.Filter { pred; _ } -> det_join acc (det_of_scalar_local pred)
      | Xtra.Project { proj; _ } ->
          List.fold_left (fun a (_, e) -> det_join a (det_of_scalar_local e)) acc proj
      | Xtra.Join { pred = Some p; _ } -> det_join acc (det_of_scalar_local p)
      | Xtra.Values_rel { rows; _ } ->
          List.fold_left
            (List.fold_left (fun a e -> det_join a (det_of_scalar_local e)))
            acc rows
      | Xtra.Aggregate { group_by; aggs; _ } ->
          let acc =
            List.fold_left (fun a (_, e) -> det_join a (det_of_scalar_local e)) acc group_by
          in
          List.fold_left
            (fun a (_, (g : Xtra.agg_def)) ->
              match g.Xtra.aarg with
              | Some e -> det_join a (det_of_scalar_local e)
              | None -> a)
            acc aggs
      | _ -> acc)
    Builtins.Immutable r

(* fold_rel already visits subquery rels, so the per-node scalar walk must
   not descend into them again (it would only double-count). *)
and det_of_scalar_local s =
  let acc = ref Builtins.Immutable in
  ignore
    (Xtra.map_scalar
       (fun x ->
         (match x with
         | Xtra.Func { name; _ } -> acc := det_join !acc (Builtins.determinism name)
         | _ -> ());
         x)
       s);
  !acc

let det_of_statement st =
  let acc = ref Builtins.Immutable in
  ignore
    (Xtra.rewrite_statement
       ~frel:(fun r -> r)
       ~fscalar:(fun s ->
         (match s with
         | Xtra.Func { name; _ } -> acc := det_join !acc (Builtins.determinism name)
         | _ -> ());
         s)
       st);
  !acc

(* ------------------------------------------------------------------ *)
(* Scalar inference                                                    *)
(* ------------------------------------------------------------------ *)

(* builtins with NULL-in/NULL-out semantics *)
let strict_builtin = function
  | "CHARACTER_LENGTH" | "SUBSTRING" | "UPPER" | "LOWER" | "TRIM" | "LTRIM"
  | "RTRIM" | "REVERSE" | "POSITION" | "REPLACE" | "ABS" | "ROUND" | "TRUNC"
  | "FLOOR" | "CEILING" | "SQRT" | "EXP" | "LN" | "LOG" | "POWER"
  | "ADD_MONTHS" | "ADD_DAYS" | "LAST_DAY" | "DAY_OF_WEEK" | "CONCAT"
  | "PERIOD_BEGIN" | "PERIOD_END" | "GREATEST" | "LEAST" ->
      true
  | _ -> false

type ctx = { catalog : Catalog.t option; ctes : (string * props list) list }

let no_ctx = { catalog = None; ctes = [] }

(* Row-count bound arithmetic on non-negative bounds: [None] (no bound)
   where the exact result would overflow. *)
let card_mul a b =
  if a = 0 || b = 0 then Some 0 else if a > max_int / b then None else Some (a * b)

let card_add a b = if a > max_int - b then None else Some (a + b)

let lookup env (c : Xtra.col) =
  match Imap.find_opt c.Xtra.id env with Some p -> p | None -> unknown_props

let rec infer_scalar (cx : ctx) (env : props Imap.t) (s : Xtra.scalar) : props =
  let sub e = infer_scalar cx env e in
  match s with
  | Xtra.Const Value.Null ->
      { null = Always_null; ival = top_interval; det = Builtins.Immutable }
  | Xtra.Const v -> { null = Not_null; ival = point v; det = Builtins.Immutable }
  | Xtra.Col_ref c -> lookup env c
  | Xtra.Param _ -> unknown_props
  | Xtra.Arith (op, a, b) ->
      let pa = sub a and pb = sub b in
      {
        null = null_strict [ pa.null; pb.null ];
        ival = interval_arith op pa.ival pb.ival;
        det = det_join pa.det pb.det;
      }
  | Xtra.Cmp (_, a, b) | Xtra.Concat (a, b) ->
      let pa = sub a and pb = sub b in
      {
        null = null_strict [ pa.null; pb.null ];
        ival = top_interval;
        det = det_join pa.det pb.det;
      }
  | Xtra.Logic_and (a, b) | Xtra.Logic_or (a, b) ->
      (* 3VL AND/OR can decide despite a NULL operand (FALSE AND NULL =
         FALSE), so a nullable operand only yields Maybe_null *)
      let pa = sub a and pb = sub b in
      let null =
        match (pa.null, pb.null) with
        | Not_null, Not_null -> Not_null
        | Always_null, Always_null -> Always_null
        | _ -> Maybe_null
      in
      { null; ival = top_interval; det = det_join pa.det pb.det }
  | Xtra.Logic_not a ->
      let pa = sub a in
      { null = pa.null; ival = top_interval; det = pa.det }
  | Xtra.Is_null (a, _) ->
      let pa = sub a in
      { null = Not_null; ival = top_interval; det = pa.det }
  | Xtra.Case { branches; else_branch; _ } ->
      let det =
        List.fold_left
          (fun d (c, v) -> det_join d (det_join (sub c).det (sub v).det))
          Builtins.Immutable branches
      in
      let vals = List.map (fun (_, v) -> sub v) branches in
      let vals =
        match else_branch with
        | Some e -> sub e :: vals
        | None ->
            (* no ELSE: a fall-through produces NULL *)
            { null = Always_null; ival = top_interval; det = Builtins.Immutable }
            :: vals
      in
      List.fold_left
        (fun acc p ->
          {
            null = null_join acc.null p.null;
            ival = interval_join acc.ival p.ival;
            det = det_join acc.det p.det;
          })
        { (List.hd vals) with det }
        (List.tl vals)
  | Xtra.Cast (a, ty) ->
      let pa = sub a in
      let ival =
        if Dtype.same_family ty (Xtra.type_of_scalar a) then pa.ival
        else top_interval
      in
      { null = pa.null; ival; det = pa.det }
  | Xtra.Func { name; args; _ } -> (
      let ps = List.map sub args in
      let det =
        List.fold_left
          (fun d p -> det_join d p.det)
          (Builtins.determinism name) ps
      in
      match name with
      | "COALESCE" ->
          (* first non-NULL argument: NULL only when all are *)
          let null =
            if List.exists (fun p -> p.null = Not_null) ps then Not_null
            else if ps <> [] && List.for_all (fun p -> p.null = Always_null) ps
            then Always_null
            else Maybe_null
          in
          let ival =
            match ps with
            | [] -> top_interval
            | p :: rest ->
                List.fold_left (fun a q -> interval_join a q.ival) p.ival rest
          in
          { null; ival; det }
      | "NULLIF" ->
          let null =
            match ps with
            | p :: _ when p.null = Always_null -> Always_null
            | _ -> Maybe_null
          in
          let ival = match ps with p :: _ -> p.ival | [] -> top_interval in
          { null; ival; det }
      | "CURRENT_DATE" | "CURRENT_TIME" | "CURRENT_TIMESTAMP" | "CURRENT_USER"
        ->
          { null = Not_null; ival = top_interval; det }
      | "GREATEST" | "LEAST" ->
          let ival =
            match ps with
            | [] -> top_interval
            | p :: rest ->
                List.fold_left (fun a q -> interval_join a q.ival) p.ival rest
          in
          { null = null_strict (List.map (fun p -> p.null) ps); ival; det }
      | _ when strict_builtin name ->
          {
            null = null_strict (List.map (fun p -> p.null) ps);
            ival = top_interval;
            det;
          }
      | _ -> { null = Maybe_null; ival = top_interval; det })
  | Xtra.Extract (fld, a) ->
      let pa = sub a in
      let ival =
        match fld with
        | Xtra.Year -> top_interval
        | Xtra.Month -> int_range 1 12
        | Xtra.Day -> int_range 1 31
        | Xtra.Hour -> int_range 0 23
        | Xtra.Minute | Xtra.Second -> int_range 0 59
      in
      { null = pa.null; ival; det = pa.det }
  | Xtra.Like { arg; pattern; escape; _ } ->
      let ps =
        List.map sub (arg :: pattern :: Option.to_list escape)
      in
      {
        null = null_strict (List.map (fun p -> p.null) ps);
        ival = top_interval;
        det = List.fold_left (fun d p -> det_join d p.det) Builtins.Immutable ps;
      }
  | Xtra.In_list { arg; items; _ } ->
      let ps = List.map sub (arg :: items) in
      {
        null = null_strict (List.map (fun p -> p.null) ps);
        ival = top_interval;
        det = List.fold_left (fun d p -> det_join d p.det) Builtins.Immutable ps;
      }
  | Xtra.Scalar_subquery r ->
      (* an empty result supplies NULL, so never Not_null *)
      { null = Maybe_null; ival = top_interval; det = det_of_rel r }
  | Xtra.Exists r -> { null = Not_null; ival = top_interval; det = det_of_rel r }
  | Xtra.In_subquery { args; subquery; _ } ->
      let rp = infer_rel cx env subquery in
      let out_nulls =
        List.map (fun (c : Xtra.col) -> (lookup rp.cols c).null) (Xtra.schema_of subquery)
      in
      let arg_nulls = List.map (fun a -> (sub a).null) args in
      let null =
        if
          List.for_all (fun n -> n = Not_null) arg_nulls
          && List.for_all (fun n -> n = Not_null) out_nulls
        then Not_null
        else Maybe_null
      in
      { null; ival = top_interval; det = det_of_rel subquery }
  | Xtra.Quantified { subquery; _ } ->
      { null = Maybe_null; ival = top_interval; det = det_of_rel subquery }
  | Xtra.Agg_ref _ | Xtra.Window_ref _ -> unknown_props

(* ------------------------------------------------------------------ *)
(* Predicate truth (3VL)                                               *)
(* ------------------------------------------------------------------ *)

and truth_of (cx : ctx) (env : props Imap.t) (s : Xtra.scalar) : truth =
  match s with
  | Xtra.Const (Value.Bool true) ->
      { can_true = true; can_false = false; can_null = false }
  | Xtra.Const (Value.Bool false) ->
      { can_true = false; can_false = true; can_null = false }
  | Xtra.Const Value.Null ->
      { can_true = false; can_false = false; can_null = true }
  | Xtra.Logic_and (a, b) ->
      let ta = truth_of cx env a and tb = truth_of cx env b in
      {
        can_true = ta.can_true && tb.can_true;
        can_false = ta.can_false || tb.can_false;
        can_null =
          (ta.can_null && (tb.can_true || tb.can_null))
          || (tb.can_null && (ta.can_true || ta.can_null));
      }
  | Xtra.Logic_or (a, b) ->
      let ta = truth_of cx env a and tb = truth_of cx env b in
      {
        can_true = ta.can_true || tb.can_true;
        can_false = ta.can_false && tb.can_false;
        can_null =
          (ta.can_null && (tb.can_false || tb.can_null))
          || (tb.can_null && (ta.can_false || ta.can_null));
      }
  | Xtra.Logic_not a ->
      let ta = truth_of cx env a in
      { can_true = ta.can_false; can_false = ta.can_true; can_null = ta.can_null }
  | Xtra.Is_null (e, negated) ->
      let p = infer_scalar cx env e in
      let base =
        {
          can_true = p.null <> Not_null;
          can_false = p.null <> Always_null;
          can_null = false;
        }
      in
      if negated then
        { base with can_true = base.can_false; can_false = base.can_true }
      else base
  | Xtra.Cmp (op, a, b) ->
      let pa = infer_scalar cx env a and pb = infer_scalar cx env b in
      if pa.null = Always_null || pb.null = Always_null then
        { can_true = false; can_false = false; can_null = true }
      else
        let lt, eq, gt = cmp_outcomes pa.ival pb.ival in
        let t, f =
          match op with
          | Xtra.Eq -> (eq, lt || gt)
          | Xtra.Neq -> (lt || gt, eq)
          | Xtra.Lt -> (lt, eq || gt)
          | Xtra.Lte -> (lt || eq, gt)
          | Xtra.Gt -> (gt, lt || eq)
          | Xtra.Gte -> (gt || eq, lt)
        in
        {
          can_true = t;
          can_false = f;
          can_null = pa.null <> Not_null || pb.null <> Not_null;
        }
  | Xtra.Exists _ -> { can_true = true; can_false = true; can_null = false }
  | _ ->
      let p = infer_scalar cx env s in
      if p.null = Always_null then
        { can_true = false; can_false = false; can_null = true }
      else { truth_top with can_null = p.null <> Not_null }

(* ------------------------------------------------------------------ *)
(* Conjunct-level refinement                                           *)
(* ------------------------------------------------------------------ *)

and conjuncts s =
  match s with
  | Xtra.Logic_and (a, b) -> conjuncts a @ conjuncts b
  | _ -> [ s ]

and flip_cmp (op : Xtra.cmp_op) =
  match op with
  | Xtra.Eq -> Xtra.Eq
  | Xtra.Neq -> Xtra.Neq
  | Xtra.Lt -> Xtra.Gt
  | Xtra.Lte -> Xtra.Gte
  | Xtra.Gt -> Xtra.Lt
  | Xtra.Gte -> Xtra.Lte

(* Column ids referenced directly (not through subqueries) by a scalar. *)
and direct_cols s =
  let acc = ref [] in
  ignore
    (Xtra.map_scalar
       (fun x ->
         (match x with
         | Xtra.Col_ref c when not (List.mem c.Xtra.id !acc) ->
             acc := c.Xtra.id :: !acc
         | _ -> ());
         x)
       s);
  !acc

(** Does forcing every column in [ids] to NULL leave [pred] unable to be
    TRUE? (the SQL definition of a null-rejecting predicate) *)
and rejects_when_null cx env ids pred =
  if ids = [] then false
  else
    let env' =
      List.fold_left
        (fun e id ->
          Imap.add id
            { null = Always_null; ival = top_interval; det = Builtins.Immutable }
            e)
        env ids
    in
    not (truth_of cx env' pred).can_true

(* Refine [env] with the constraint that one conjunct holds (its rows pass
   the filter): intersect column intervals with implied ranges and mark
   null-rejected columns Not_null. *)
and refine_conjunct cx env c =
  let update id f env =
    let p = match Imap.find_opt id env with Some p -> p | None -> unknown_props in
    Imap.add id (f p) env
  in
  let apply_cmp env op (col : Xtra.col) rhs =
    let pr = infer_scalar cx env rhs in
    (* the constraint interval only matters if the rhs can't mention the
       column in a way that invalidates it — deriving rhs's interval from
       [env] is sound regardless, so no occurs-check is needed *)
    let constrain (p : props) =
      let iv = pr.ival in
      let ival =
        match op with
        | Xtra.Eq -> interval_meet p.ival iv
        | Xtra.Lt ->
            interval_meet p.ival
              { lo = None; hi = Option.map (fun b -> { b with incl = false }) iv.hi }
        | Xtra.Lte -> interval_meet p.ival { lo = None; hi = iv.hi }
        | Xtra.Gt ->
            interval_meet p.ival
              { lo = Option.map (fun b -> { b with incl = false }) iv.lo; hi = None }
        | Xtra.Gte -> interval_meet p.ival { lo = iv.lo; hi = None }
        | Xtra.Neq -> p.ival
      in
      { p with ival }
    in
    update col.Xtra.id constrain env
  in
  let env =
    match c with
    | Xtra.Cmp (op, Xtra.Col_ref col, rhs) -> apply_cmp env op col rhs
    | Xtra.Cmp (op, lhs, Xtra.Col_ref col) -> apply_cmp env (flip_cmp op) col lhs
    | Xtra.Is_null (Xtra.Col_ref col, false) ->
        update col.Xtra.id (fun p -> { p with null = Always_null }) env
    | Xtra.In_list { arg = Xtra.Col_ref col; items; negated = false } ->
        let ivals = List.map (fun i -> (infer_scalar cx env i).ival) items in
        let union =
          match ivals with
          | [] -> top_interval
          | iv :: rest -> List.fold_left interval_join iv rest
        in
        update col.Xtra.id (fun p -> { p with ival = interval_meet p.ival union }) env
    | _ -> env
  in
  (* generic null rejection, one column at a time (capped for pathological
     predicates) *)
  let ids = direct_cols c in
  let ids = if List.length ids > 8 then [] else ids in
  List.fold_left
    (fun env id ->
      if rejects_when_null cx env [ id ] c then
        update id (fun p -> { p with null = Not_null }) env
      else env)
    env ids

(** Truth of a whole predicate. [can_false]/[can_null] come from plain
    Kleene evaluation; [can_true] additionally requires every conjunct to
    remain satisfiable in the environment refined by its co-conjuncts,
    which catches cross-conjunct range contradictions. *)
and pred_truth cx env pred =
  let base = truth_of cx env pred in
  let cs = conjuncts pred in
  let cross_ok =
    if List.length cs < 2 || List.length cs > 16 then true
    else
      List.for_all
        (fun c ->
          let env' =
            List.fold_left
              (fun e o -> if o == c then e else refine_conjunct cx e o)
              env cs
          in
          (truth_of cx env' c).can_true)
        cs
  in
  { base with can_true = base.can_true && cross_ok }

(* ------------------------------------------------------------------ *)
(* Relational inference                                                *)
(* ------------------------------------------------------------------ *)

and refine_by_pred cx env pred =
  List.fold_left (refine_conjunct cx) env (conjuncts pred)

and schema_ids r = List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of r)

and add_key ids keys =
  let k = List.sort_uniq compare ids in
  if k = [] || List.mem k keys then keys else k :: keys

and infer_rel (cx : ctx) (outer : props Imap.t) (r : Xtra.rel) : rel_props =
  match r with
  | Xtra.Get { table; table_schema; _ } ->
      let cols =
        List.fold_left
          (fun m (c : Xtra.col) ->
            let null =
              match cx.catalog with
              | None -> Maybe_null
              | Some cat -> (
                  match Catalog.find_table cat table with
                  | None -> Maybe_null
                  | Some tbl -> (
                      match Catalog.column tbl c.Xtra.name with
                      | Some col when col.Catalog.col_not_null -> Not_null
                      | _ -> Maybe_null))
            in
            Imap.add c.Xtra.id { unknown_props with null } m)
          Imap.empty table_schema
      in
      { cols; keys = []; card_max = None }
  | Xtra.Values_rel { rows; values_schema } ->
      let n = List.length rows in
      let cols =
        List.mapi
          (fun i (c : Xtra.col) ->
            let cell_props =
              List.filter_map
                (fun row ->
                  match List.nth_opt row i with
                  | Some e -> Some (infer_scalar cx outer e)
                  | None -> None)
                rows
            in
            let p =
              match cell_props with
              | [] -> { unknown_props with null = Not_null } (* vacuous *)
              | p :: rest ->
                  List.fold_left
                    (fun a q ->
                      {
                        null = null_join a.null q.null;
                        ival = interval_join a.ival q.ival;
                        det = det_join a.det q.det;
                      })
                    p rest
            in
            (c.Xtra.id, p))
          values_schema
      in
      {
        cols = List.fold_left (fun m (id, p) -> Imap.add id p m) Imap.empty cols;
        keys = [];
        card_max = Some n;
      }
  | Xtra.Filter { input; pred } ->
      let ip = infer_rel cx outer input in
      let env = Imap.union (fun _ inner _ -> Some inner) ip.cols outer in
      let t = pred_truth cx env pred in
      let refined = refine_by_pred cx env pred in
      let cols =
        Imap.mapi
          (fun id p ->
            match Imap.find_opt id refined with Some q -> q | None -> p)
          ip.cols
      in
      {
        cols;
        keys = ip.keys;
        card_max = (if not t.can_true then Some 0 else ip.card_max);
      }
  | Xtra.Project { input; proj } ->
      let ip = infer_rel cx outer input in
      let env = Imap.union (fun _ inner _ -> Some inner) ip.cols outer in
      let cols =
        List.fold_left
          (fun m ((c : Xtra.col), e) -> Imap.add c.Xtra.id (infer_scalar cx env e) m)
          Imap.empty proj
      in
      (* keys survive when every member is forwarded as a bare column ref *)
      let fwd =
        List.filter_map
          (fun ((c : Xtra.col), e) ->
            match e with
            | Xtra.Col_ref src -> Some (src.Xtra.id, c.Xtra.id)
            | _ -> None)
          proj
      in
      let keys =
        List.filter_map
          (fun k ->
            let mapped = List.filter_map (fun id -> List.assoc_opt id fwd) k in
            if List.length mapped = List.length k then
              Some (List.sort_uniq compare mapped)
            else None)
          ip.keys
      in
      { cols; keys; card_max = ip.card_max }
  | Xtra.Join { kind; left; right; pred } ->
      let lp = infer_rel cx outer left and rp = infer_rel cx outer right in
      let force_null m =
        Imap.map (fun (p : props) -> { p with null = null_join p.null Always_null }) m
      in
      let lcols, rcols =
        match kind with
        | Xtra.Inner | Xtra.Cross -> (lp.cols, rp.cols)
        | Xtra.Left_outer -> (lp.cols, force_null rp.cols)
        | Xtra.Right_outer -> (force_null lp.cols, rp.cols)
        | Xtra.Full_outer -> (force_null lp.cols, force_null rp.cols)
      in
      let cols = Imap.union (fun _ a _ -> Some a) lcols rcols in
      let env = Imap.union (fun _ inner _ -> Some inner) cols outer in
      let cols, card_pred =
        match (kind, pred) with
        | (Xtra.Inner | Xtra.Cross), Some p ->
            let t = pred_truth cx env p in
            let refined = refine_by_pred cx env p in
            ( Imap.mapi
                (fun id q ->
                  match Imap.find_opt id refined with Some x -> x | None -> q)
                cols,
              if not t.can_true then Some 0 else None )
        | _ -> (cols, None)
      in
      let pair_keys =
        match kind with
        | Xtra.Full_outer -> []
        | _ ->
            List.concat_map
              (fun kl -> List.map (fun kr -> List.sort_uniq compare (kl @ kr)) rp.keys)
              lp.keys
      in
      let side_keys =
        let lk =
          if rp.card_max <> None && rp.card_max <= Some 1 && kind <> Xtra.Full_outer
          then lp.keys
          else []
        in
        let rk =
          if
            lp.card_max <> None
            && lp.card_max <= Some 1
            && (kind = Xtra.Inner || kind = Xtra.Cross || kind = Xtra.Right_outer)
          then rp.keys
          else []
        in
        lk @ rk
      in
      let card_max =
        match card_pred with
        | Some 0 -> Some 0
        | _ -> (
            match (lp.card_max, rp.card_max) with
            | Some a, Some b -> (
                match kind with
                | Xtra.Inner | Xtra.Cross -> card_mul a b
                (* a preserved row is emitted at least once, if unmatched
                   then null-extended *)
                | Xtra.Left_outer -> card_mul a (max b 1)
                | Xtra.Right_outer -> card_mul (max a 1) b
                (* matched pairs plus each side's unmatched rows *)
                | Xtra.Full_outer ->
                    Option.bind (card_mul a b) (fun m ->
                        Option.bind (card_add m a) (card_add b)))
            | Some 0, _ when kind = Xtra.Inner || kind = Xtra.Cross -> Some 0
            | _, Some 0 when kind = Xtra.Inner || kind = Xtra.Cross -> Some 0
            | _ -> None)
      in
      { cols; keys = pair_keys @ side_keys; card_max }
  | Xtra.Aggregate { input; group_by; aggs; grouping_sets } ->
      let ip = infer_rel cx outer input in
      let env = Imap.union (fun _ inner _ -> Some inner) ip.cols outer in
      let gcols =
        List.map
          (fun ((c : Xtra.col), e) ->
            let p = infer_scalar cx env e in
            let p =
              (* ROLLUP/CUBE-style grouping sets NULL-fill absent keys *)
              if grouping_sets <> None then { p with null = null_join p.null Always_null }
              else p
            in
            (c.Xtra.id, p))
          group_by
      in
      let acols =
        List.map
          (fun ((c : Xtra.col), (a : Xtra.agg_def)) ->
            let arg_p = Option.map (infer_scalar cx env) a.Xtra.aarg in
            let p =
              match a.Xtra.afunc with
              | Xtra.Count | Xtra.Count_star ->
                  {
                    null = Not_null;
                    ival = { lo = int_bound 0; hi = None };
                    det = Builtins.Immutable;
                  }
              | Xtra.Min | Xtra.Max ->
                  (* a group is never empty, so MIN/MAX are NULL only when
                     the argument can be *)
                  Option.value arg_p ~default:unknown_props
              | Xtra.Sum | Xtra.Avg ->
                  let base = Option.value arg_p ~default:unknown_props in
                  { null = base.null; ival = top_interval; det = base.det }
            in
            (c.Xtra.id, p))
          aggs
      in
      let cols =
        List.fold_left (fun m (id, p) -> Imap.add id p m) Imap.empty (gcols @ acols)
      in
      let keys =
        if grouping_sets <> None then []
        else if group_by = [] then []
        else [ List.sort_uniq compare (List.map fst gcols) ]
      in
      let card_max =
        if group_by = [] && grouping_sets = None then Some 1
        else
          match ip.card_max with Some n -> Some n | None -> None
      in
      { cols; keys; card_max }
  | Xtra.Window { input; windows } ->
      let ip = infer_rel cx outer input in
      let wcols =
        List.map
          (fun ((c : Xtra.col), (w : Xtra.window_def)) ->
            let p =
              match w.Xtra.wfunc with
              | Xtra.W_rank | Xtra.W_dense_rank | Xtra.W_row_number ->
                  {
                    null = Not_null;
                    ival = { lo = int_bound 1; hi = None };
                    det = Builtins.Immutable;
                  }
              | _ -> unknown_props
            in
            (c.Xtra.id, p))
          windows
      in
      {
        cols = List.fold_left (fun m (id, p) -> Imap.add id p m) ip.cols wcols;
        keys = ip.keys;
        card_max = ip.card_max;
      }
  | Xtra.Sort { input; _ } -> infer_rel cx outer input
  | Xtra.Limit { input; count; with_ties; percent; _ } ->
      (* WITH TIES adds every row tied with the last one, and PERCENT counts
         a share of the input, not rows: either can return more than [n] *)
      let ip = infer_rel cx outer input in
      let card_max =
        match count with
        | Some (Xtra.Const (Value.Int n))
          when Int64.compare n 0L >= 0 && not (with_ties || percent) ->
            let n = Int64.to_int n in
            Some (match ip.card_max with Some m -> min m n | None -> n)
        | _ -> ip.card_max
      in
      { ip with card_max }
  | Xtra.Distinct { input } ->
      let ip = infer_rel cx outer input in
      { ip with keys = add_key (schema_ids r) ip.keys }
  | Xtra.Set_operation { op; all; left; right } ->
      let lp = infer_rel cx outer left and rp = infer_rel cx outer right in
      let ls = Xtra.schema_of left and rs = Xtra.schema_of right in
      let cols =
        match op with
        | Xtra.Union ->
            (* result draws from both branches, positionally *)
            List.fold_left2
              (fun m (lc : Xtra.col) (rc : Xtra.col) ->
                let a = lookup lp.cols lc and b = lookup rp.cols rc in
                Imap.add lc.Xtra.id
                  {
                    null = null_join a.null b.null;
                    ival = interval_join a.ival b.ival;
                    det = det_join a.det b.det;
                  }
                  m)
              Imap.empty ls
              (if List.length ls = List.length rs then rs else ls)
        | Xtra.Intersect | Xtra.Except -> lp.cols
      in
      let keys = if all then [] else [ List.sort_uniq compare (List.map (fun (c : Xtra.col) -> c.Xtra.id) ls) ] in
      let card_max =
        match op with
        | Xtra.Union -> (
            match (lp.card_max, rp.card_max) with
            | Some a, Some b -> card_add a b
            | _ -> None)
        | Xtra.Intersect | Xtra.Except -> lp.card_max
      in
      { cols; keys; card_max }
  | Xtra.Cte_ref { cte_name; ref_schema } -> (
      match List.assoc_opt (String.uppercase_ascii cte_name) cx.ctes with
      | Some def_props when List.length def_props = List.length ref_schema ->
          let cols =
            List.fold_left2
              (fun m (c : Xtra.col) p -> Imap.add c.Xtra.id p m)
              Imap.empty ref_schema def_props
          in
          { cols; keys = []; card_max = None }
      | _ ->
          let cols =
            List.fold_left
              (fun m (c : Xtra.col) -> Imap.add c.Xtra.id unknown_props m)
              Imap.empty ref_schema
          in
          { cols; keys = []; card_max = None })
  | Xtra.With_cte { ctes; cte_recursive; body } ->
      let cx' =
        if cte_recursive then cx
        else
          List.fold_left
            (fun cx (name, q) ->
              let qp = infer_rel cx outer q in
              let positional =
                List.map (fun (c : Xtra.col) -> lookup qp.cols c) (Xtra.schema_of q)
              in
              { cx with ctes = (String.uppercase_ascii name, positional) :: cx.ctes })
            cx ctes
      in
      infer_rel cx' outer body

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let rel_props ?catalog r = infer_rel { no_ctx with catalog } Imap.empty r

let scalar_props ?catalog ~env s = infer_scalar { no_ctx with catalog } env s

let predicate_truth ?catalog ~env pred = pred_truth { no_ctx with catalog } env pred

(** Environment (column props) visible to predicates sitting directly on
    top of [r]. *)
let env_of ?catalog r = (rel_props ?catalog r).cols

(** Is [pred] null-rejecting over the columns [ids]? *)
let null_rejected ?catalog ~env ids pred =
  rejects_when_null { no_ctx with catalog } env ids pred

(* ------------------------------------------------------------------ *)
(* Transformer passes                                                  *)
(* ------------------------------------------------------------------ *)

(** Contradiction pruning: a [Filter] whose predicate provably can never be
    TRUE filters out every row, so the whole subtree collapses to a
    constant-empty relation with the same schema. Correlated references to
    enclosing scopes are treated as unknown (sound: they can only make the
    proof fail). *)
(* Does a predicate test nullness anywhere? Only then can the *input's*
   inferred column properties (catalog NOT NULL marks, null-supplying
   shapes below) turn a satisfiable-looking predicate into a
   contradiction, so only then is the full subtree inference worth its
   cost on the hot translate path. Interval contradictions
   ([x > 5 AND x < 3]) come from cross-refining the predicate's own
   conjuncts and need no input environment at all. *)
let rec mentions_is_null s =
  match s with
  | Xtra.Is_null _ -> true
  | Xtra.Arith (_, a, b)
  | Xtra.Cmp (_, a, b)
  | Xtra.Logic_and (a, b)
  | Xtra.Logic_or (a, b)
  | Xtra.Concat (a, b) ->
      mentions_is_null a || mentions_is_null b
  | Xtra.Logic_not a | Xtra.Cast (a, _) | Xtra.Extract (_, a) ->
      mentions_is_null a
  | Xtra.Func { args; _ } -> List.exists mentions_is_null args
  | Xtra.Case { branches; else_branch; _ } ->
      List.exists (fun (c, v) -> mentions_is_null c || mentions_is_null v) branches
      || (match else_branch with Some e -> mentions_is_null e | None -> false)
  | Xtra.In_list { arg; items; _ } ->
      mentions_is_null arg || List.exists mentions_is_null items
  | Xtra.Like { arg; pattern; escape; _ } ->
      mentions_is_null arg || mentions_is_null pattern
      || (match escape with Some e -> mentions_is_null e | None -> false)
  (* subquery bodies don't matter: the env refinement only reaches the
     predicate's direct column refs *)
  | _ -> false

let range_of_cmp op v =
  match (op : Xtra.cmp_op) with
  | Xtra.Eq -> point v
  | Xtra.Lt -> { lo = None; hi = Some { bval = v; incl = false } }
  | Xtra.Lte -> { lo = None; hi = Some { bval = v; incl = true } }
  | Xtra.Gt -> { lo = Some { bval = v; incl = false }; hi = None }
  | Xtra.Gte -> { lo = Some { bval = v; incl = true }; hi = None }
  | Xtra.Neq -> top_interval

(* A conjunct of shape [col OP const] (either orientation), as the column
   id and the interval the conjunct confines it to. *)
let col_range_conjunct c =
  match c with
  | Xtra.Cmp (op, Xtra.Col_ref col, Xtra.Const v) when orderable v ->
      Some (col.Xtra.id, range_of_cmp op v)
  | Xtra.Cmp (op, Xtra.Const v, Xtra.Col_ref col) when orderable v ->
      Some (col.Xtra.id, range_of_cmp (flip_cmp op) v)
  | _ -> None

let contradiction_pruning ?catalog ctx r =
  match r with
  | Xtra.Filter { input = Xtra.Values_rel { rows = []; _ }; _ } ->
      (* already the canonical empty shape; leave it alone *)
      None
  | Xtra.Filter { input; pred } ->
      let cx = { no_ctx with catalog } in
      let cs = conjuncts pred in
      (* Triage before any real inference runs — this pass sits on every
         Transformer fixed-point iteration of the translate path, so the
         common satisfiable filter must exit in a few comparisons. A
         contradiction can only come from (a) a column-free conjunct that
         evaluates to FALSE/NULL, (b) one column's [col OP const] ranges
         with an empty intersection — computed right here with one
         Hashtbl of interval meets, so the full 3VL analysis only ever
         runs to confirm an actual clash — or (c) a nullness test
         refuted by the input's inferred properties. *)
      let const_false =
        List.exists
          (fun c ->
            direct_cols c = [] && not (truth_of cx Imap.empty c).can_true)
          cs
      in
      let range_clash =
        match cs with
        | [] | [ _ ] -> false
        | _ ->
            let tbl = Hashtbl.create 8 in
            List.exists
              (fun c ->
                match col_range_conjunct c with
                | None -> false
                | Some (id, iv) ->
                    let cur =
                      try Hashtbl.find tbl id with Not_found -> top_interval
                    in
                    let met = interval_meet cur iv in
                    Hashtbl.replace tbl id met;
                    interval_empty met)
              cs
      in
      let t =
        if const_false then { can_true = false; can_false = true; can_null = true }
        else if range_clash then pred_truth cx Imap.empty pred
        else truth_top
      in
      let t =
        if t.can_true && mentions_is_null pred then
          pred_truth cx (env_of ?catalog input) pred
        else t
      in
      if not t.can_true then begin
        Transformer.fired ctx "contradiction_pruning";
        Some (Xtra.Values_rel { rows = []; values_schema = Xtra.schema_of input })
      end
      else None
  | _ -> None

(** Outer-join strengthening: a post-join predicate that rejects rows whose
    null-supplied side is entirely NULL makes the corresponding outer
    preservation unobservable, so the join collapses toward INNER
    (paper-standard outer-join simplification, derived here from the
    inferred 3VL truth rather than syntactic special cases). *)
let join_strengthening ?catalog ctx r =
  match r with
  | Xtra.Filter
      {
        input = Xtra.Join ({ kind; left; right; _ } as j);
        pred;
      }
    when kind = Xtra.Left_outer || kind = Xtra.Right_outer
         || kind = Xtra.Full_outer ->
      (* The empty environment is enough: null rejection is decided by
         forcing the candidate side's columns to Always_null inside the
         predicate, which needs no facts about the input. Extra input
         facts could only prove *more* rejections, never unsound ones, so
         skipping the (expensive) subtree inference just makes the pass
         conservative. *)
      let env = Imap.empty in
      let ids side = List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of side) in
      let rejects side_ids =
        rejects_when_null { no_ctx with catalog } env side_ids pred
      in
      let new_kind =
        match kind with
        | Xtra.Left_outer -> if rejects (ids right) then Some Xtra.Inner else None
        | Xtra.Right_outer -> if rejects (ids left) then Some Xtra.Inner else None
        | Xtra.Full_outer -> (
            match (rejects (ids right), rejects (ids left)) with
            | true, true -> Some Xtra.Inner
            | true, false -> Some Xtra.Right_outer
            | false, true -> Some Xtra.Left_outer
            | false, false -> None)
        | _ -> None
      in
      (match new_kind with
      | Some k ->
          Transformer.fired ctx "join_strengthening";
          Some (Xtra.Filter { input = Xtra.Join { j with kind = k }; pred })
      | None -> None)
  | _ -> None

(** The inference-derived relational passes, in application order, for
    wiring into {!Transformer.run}'s [?extra_rel_rules]. Passing the live
    catalog lets the proofs use NOT NULL column constraints. *)
let rel_passes ?catalog () =
  [ contradiction_pruning ?catalog; join_strengthening ?catalog ]
