(** Serializer: XTRA → target-dialect SQL (paper §4.4).

    "Each target database has its own Serializer implementation. These
    different serializers share a common interface: the input is an XTRA
    expression, and the output is the serialized SQL statement of that XTRA."
    Here the per-target differences are captured declaratively in
    {!Capability.t} (function names, type names, QUALIFY availability, ...),
    and one structural emitter handles all targets.

    The emitter "decompiles" the operator tree into nested SELECT blocks,
    merging operators into a single block where SQL allows (filter → WHERE or
    HAVING, sort → ORDER BY, ...) and introducing derived tables elsewhere.
    Output column references are tracked per unique column id, so the emitted
    SQL is correct under arbitrary nesting and correlation. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra
module Capability = Hyperq_transform.Capability

type ctx = {
  cap : Capability.t;
  mutable next_alias : int;
  mutable outer : (int * string) list;  (** correlated outer columns *)
}

let create_ctx cap = { cap; next_alias = 0; outer = [] }

let fresh_alias ctx =
  ctx.next_alias <- ctx.next_alias + 1;
  Printf.sprintf "T%d" ctx.next_alias

(* A SELECT block under construction. *)
type block = {
  mutable b_select : (string * string) list;  (** (expr sql, alias) — [] = all input columns *)
  mutable b_distinct : bool;
  mutable b_top : string option;  (** Teradata-style TOP prefix *)
  mutable b_from : string;  (** "" = FROM-less *)
  mutable b_where : string list;
  mutable b_group : string list;
  mutable b_having : string list;
  mutable b_qualify : string list;
  mutable b_order : string list;
  mutable b_limit : string option;
  mutable b_offset : string option;
  mutable b_has_window : bool;
  mutable b_map : (int * string) list;  (** col id → SQL text *)
  mutable b_schema : Xtra.schema;  (** current output columns, in order *)
  mutable b_with : (string * string) list;  (** CTE name → sql *)
  mutable b_recursive : bool;
}

let new_block () =
  {
    b_select = [];
    b_distinct = false;
    b_top = None;
    b_from = "";
    b_where = [];
    b_group = [];
    b_having = [];
    b_qualify = [];
    b_order = [];
    b_limit = None;
    b_offset = None;
    b_has_window = false;
    b_map = [];
    b_schema = [];
    b_with = [];
    b_recursive = false;
  }

(* Unique output aliases: plain name when unique within the schema, else
   suffixed with the column id. *)
let output_aliases (schema : Xtra.schema) =
  let count name =
    List.length (List.filter (fun (c : Xtra.col) -> c.Xtra.name = name) schema)
  in
  List.map
    (fun (c : Xtra.col) ->
      if count c.Xtra.name > 1 then (c, Printf.sprintf "%s_%d" c.Xtra.name c.Xtra.id)
      else (c, c.Xtra.name))
    schema

let lookup_col ctx b (c : Xtra.col) =
  match List.assoc_opt c.Xtra.id b.b_map with
  | Some t -> t
  | None -> (
      match List.assoc_opt c.Xtra.id ctx.outer with
      | Some t -> t
      | None ->
          Sql_error.internal_error "serializer: unmapped column %s (#%d)"
            c.Xtra.name c.Xtra.id)

(* ------------------------------------------------------------------ *)
(* Type and value rendering                                             *)
(* ------------------------------------------------------------------ *)

let render_type cap (t : Dtype.t) =
  match t with
  | Dtype.Unknown -> "VARCHAR"
  | Dtype.Bool -> if cap.Capability.supports_boolean_type then "BOOLEAN" else "SMALLINT"
  | Dtype.Int -> cap.Capability.bigint_name
  | Dtype.Float -> cap.Capability.float_name
  | Dtype.Decimal { precision; scale } -> Printf.sprintf "DECIMAL(%d,%d)" precision scale
  | Dtype.Varchar { max_len = Some n; _ } -> Printf.sprintf "VARCHAR(%d)" n
  | Dtype.Varchar { max_len = None; _ } -> "VARCHAR"
  | Dtype.Date -> "DATE"
  | Dtype.Time -> "TIME"
  | Dtype.Timestamp -> "TIMESTAMP"
  | Dtype.Interval_ym -> "INTERVAL YEAR TO MONTH"
  | Dtype.Interval_ds -> "INTERVAL DAY TO SECOND"
  | Dtype.Period Dtype.Pdate -> "PERIOD(DATE)"
  | Dtype.Period Dtype.Ptimestamp -> "PERIOD(TIMESTAMP)"
  | Dtype.Bytes -> "VARBYTE"

let render_value (v : Value.t) =
  match v with
  | Value.Bool b -> if b then "(1=1)" else "(1=0)"
  | Value.Interval i ->
      if i.Interval.months <> 0 && i.Interval.days = 0 && i.Interval.micros = 0L
      then
        if i.Interval.months mod 12 = 0 then
          Printf.sprintf "INTERVAL '%d' YEAR" (i.Interval.months / 12)
        else Printf.sprintf "INTERVAL '%d' MONTH" i.Interval.months
      else if i.Interval.months = 0 && i.Interval.micros = 0L then
        Printf.sprintf "INTERVAL '%d' DAY" i.Interval.days
      else if i.Interval.months = 0 && i.Interval.days = 0 then
        Printf.sprintf "INTERVAL '%Ld' SECOND"
          (Int64.div i.Interval.micros 1_000_000L)
      else
        Sql_error.unsupported "cannot serialize mixed-unit interval literal"
  | Value.Timestamp _ -> Printf.sprintf "TIMESTAMP '%s'" (Value.to_string v)
  | Value.Time _ -> Printf.sprintf "TIME '%s'" (Value.to_string v)
  | v -> Value.to_sql_literal v

(* ------------------------------------------------------------------ *)
(* Scalar rendering                                                     *)
(* ------------------------------------------------------------------ *)

let arith_sym = function
  | Xtra.Add -> "+"
  | Xtra.Sub -> "-"
  | Xtra.Mul -> "*"
  | Xtra.Div -> "/"
  | Xtra.Modulo -> "%"

let cmp_sym = function
  | Xtra.Eq -> "="
  | Xtra.Neq -> "<>"
  | Xtra.Lt -> "<"
  | Xtra.Lte -> "<="
  | Xtra.Gt -> ">"
  | Xtra.Gte -> ">="

let field_sym = function
  | Xtra.Year -> "YEAR"
  | Xtra.Month -> "MONTH"
  | Xtra.Day -> "DAY"
  | Xtra.Hour -> "HOUR"
  | Xtra.Minute -> "MINUTE"
  | Xtra.Second -> "SECOND"

let render_function_name cap name =
  match name with
  | "CHARACTER_LENGTH" -> cap.Capability.length_function
  | n -> n

let rec render_scalar ctx b (s : Xtra.scalar) : string =
  let r = render_scalar ctx b in
  match s with
  | Xtra.Const v -> render_value v
  | Xtra.Col_ref c -> lookup_col ctx b c
  | Xtra.Param n -> Printf.sprintf "$%d" n
  | Xtra.Arith (((Xtra.Add | Xtra.Sub) as op), a, bb)
    when ctx.cap.Capability.add_days_function <> None
         && Xtra.type_of_scalar a = Dtype.Date
         && Xtra.type_of_scalar bb = Dtype.Int ->
      (* targets that spell day arithmetic as a function (dateadd/date_add) *)
      let f = Option.get ctx.cap.Capability.add_days_function in
      let n = if op = Xtra.Add then r bb else Printf.sprintf "(0 - %s)" (r bb) in
      Printf.sprintf "%s(%s, %s)" f (r a) n
  | Xtra.Arith (op, a, bb) -> Printf.sprintf "(%s %s %s)" (r a) (arith_sym op) (r bb)
  | Xtra.Cmp (op, a, bb) -> Printf.sprintf "(%s %s %s)" (r a) (cmp_sym op) (r bb)
  | Xtra.Logic_and (a, bb) -> Printf.sprintf "(%s AND %s)" (r a) (r bb)
  | Xtra.Logic_or (a, bb) -> Printf.sprintf "(%s OR %s)" (r a) (r bb)
  | Xtra.Logic_not a -> Printf.sprintf "(NOT %s)" (r a)
  | Xtra.Is_null (a, false) -> Printf.sprintf "(%s IS NULL)" (r a)
  | Xtra.Is_null (a, true) -> Printf.sprintf "(%s IS NOT NULL)" (r a)
  | Xtra.Case { branches; else_branch; _ } ->
      let parts =
        List.map (fun (c, v) -> Printf.sprintf "WHEN %s THEN %s" (r c) (r v)) branches
      in
      let e =
        match else_branch with
        | Some v -> Printf.sprintf " ELSE %s" (r v)
        | None -> ""
      in
      Printf.sprintf "CASE %s%s END" (String.concat " " parts) e
  | Xtra.Cast (a, t) -> Printf.sprintf "CAST(%s AS %s)" (r a) (render_type ctx.cap t)
  | Xtra.Func { name = "ADD_DAYS"; args = [ d; n ]; _ } -> (
      match ctx.cap.Capability.add_days_function with
      | Some f -> Printf.sprintf "%s(%s, %s)" f (r d) (r n)
      | None -> Printf.sprintf "(%s + %s)" (r d) (r n))
  | Xtra.Func { name = "POSITION"; args = [ needle; hay ]; _ } ->
      (* POSITION uses the standard infix argument syntax *)
      Printf.sprintf "POSITION(%s IN %s)" (r needle) (r hay)
  | Xtra.Func { name; args = []; _ }
    when List.mem name [ "CURRENT_DATE"; "CURRENT_TIME"; "CURRENT_TIMESTAMP"; "CURRENT_USER" ]
    ->
      name
  | Xtra.Func { name; args; _ } ->
      Printf.sprintf "%s(%s)"
        (render_function_name ctx.cap name)
        (String.concat ", " (List.map r args))
  | Xtra.Extract (f, a) -> Printf.sprintf "EXTRACT(%s FROM %s)" (field_sym f) (r a)
  | Xtra.Concat (a, bb) -> Printf.sprintf "(%s || %s)" (r a) (r bb)
  | Xtra.Like { arg; pattern; escape; negated } ->
      Printf.sprintf "(%s %sLIKE %s%s)" (r arg)
        (if negated then "NOT " else "")
        (r pattern)
        (match escape with Some e -> " ESCAPE " ^ r e | None -> "")
  | Xtra.In_list { arg; items; negated } ->
      Printf.sprintf "(%s %sIN (%s))" (r arg)
        (if negated then "NOT " else "")
        (String.concat ", " (List.map r items))
  | Xtra.Scalar_subquery q -> Printf.sprintf "(%s)" (render_subquery ctx b q)
  | Xtra.Exists q -> Printf.sprintf "EXISTS (%s)" (render_subquery ctx b q)
  | Xtra.In_subquery { args; subquery; negated } ->
      let lhs =
        match args with
        | [ a ] -> r a
        | many -> Printf.sprintf "(%s)" (String.concat ", " (List.map r many))
      in
      Printf.sprintf "(%s %sIN (%s))" lhs
        (if negated then "NOT " else "")
        (render_subquery ctx b subquery)
  | Xtra.Quantified { lhs; op; quant; subquery } ->
      let l =
        match lhs with
        | [ a ] -> r a
        | many -> Printf.sprintf "(%s)" (String.concat ", " (List.map r many))
      in
      Printf.sprintf "(%s %s %s (%s))" l (cmp_sym op)
        (match quant with Xtra.Any -> "ANY" | Xtra.All -> "ALL")
        (render_subquery ctx b subquery)
  | Xtra.Agg_ref a -> render_agg ctx b a
  | Xtra.Window_ref w -> render_window ctx b w

and render_agg ctx b (a : Xtra.agg_def) =
  match (a.Xtra.afunc, a.Xtra.aarg) with
  | Xtra.Count_star, _ -> "COUNT(*)"
  | f, Some arg ->
      Printf.sprintf "%s(%s%s)" (Xtra.agg_name f)
        (if a.Xtra.adistinct then "DISTINCT " else "")
        (render_scalar ctx b arg)
  | f, None -> Sql_error.internal_error "aggregate %s without argument" (Xtra.agg_name f)

and render_window ctx b (w : Xtra.window_def) =
  let call =
    match w.Xtra.wfunc with
    | Xtra.W_rank -> "RANK()"
    | Xtra.W_dense_rank -> "DENSE_RANK()"
    | Xtra.W_row_number -> "ROW_NUMBER()"
    | Xtra.W_agg Xtra.Count_star -> "COUNT(*)"
    | (Xtra.W_lag | Xtra.W_lead | Xtra.W_first_value | Xtra.W_last_value) as f ->
        Printf.sprintf "%s(%s)" (Xtra.window_name f)
          (String.concat ", " (List.map (render_scalar ctx b) w.Xtra.wargs))
    | Xtra.W_agg f ->
        Printf.sprintf "%s(%s)" (Xtra.agg_name f)
          (String.concat ", " (List.map (render_scalar ctx b) w.Xtra.wargs))
  in
  let partition =
    if w.Xtra.partition = [] then ""
    else
      "PARTITION BY "
      ^ String.concat ", " (List.map (render_scalar ctx b) w.Xtra.partition)
  in
  let order =
    if w.Xtra.worder = [] then ""
    else "ORDER BY " ^ String.concat ", " (List.map (render_sort_key ctx b) w.Xtra.worder)
  in
  let frame =
    match w.Xtra.wframe with
    | None -> ""
    | Some f ->
        let unit = match f.Xtra.frame_unit with `Rows -> "ROWS" | `Range -> "RANGE" in
        let bound = function
          | Xtra.Unbounded_preceding -> "UNBOUNDED PRECEDING"
          | Xtra.Preceding n -> Printf.sprintf "%d PRECEDING" n
          | Xtra.Current_row -> "CURRENT ROW"
          | Xtra.Following n -> Printf.sprintf "%d FOLLOWING" n
          | Xtra.Unbounded_following -> "UNBOUNDED FOLLOWING"
        in
        Printf.sprintf "%s BETWEEN %s AND %s" unit (bound f.Xtra.frame_start)
          (bound f.Xtra.frame_end)
  in
  let spec =
    String.concat " " (List.filter (fun s -> s <> "") [ partition; order; frame ])
  in
  Printf.sprintf "%s OVER (%s)" call spec

and render_sort_key ctx b (k : Xtra.sort_key) =
  let dir = match k.Xtra.dir with Xtra.Asc -> "ASC" | Xtra.Desc -> "DESC" in
  let nulls =
    if not ctx.cap.Capability.nulls_ordering_syntax then ""
    else
      match k.Xtra.nulls with
      | Xtra.Nulls_first -> " NULLS FIRST"
      | Xtra.Nulls_last -> " NULLS LAST"
  in
  Printf.sprintf "%s %s%s" (render_scalar ctx b k.Xtra.key) dir nulls

(* Render a nested rel (subquery) with the enclosing block's columns
   available as correlated references. *)
and render_subquery ctx b rel =
  let saved = ctx.outer in
  ctx.outer <- b.b_map @ ctx.outer;
  let sql = render_rel_to_sql ctx rel in
  ctx.outer <- saved;
  sql

(* ------------------------------------------------------------------ *)
(* Block construction                                                   *)
(* ------------------------------------------------------------------ *)

and render_block ctx b : string =
  let buf = Buffer.create 128 in
  (if b.b_with <> [] then begin
     Buffer.add_string buf
       (if b.b_recursive then "WITH RECURSIVE " else "WITH ");
     Buffer.add_string buf
       (String.concat ", "
          (List.map (fun (n, sql) -> Printf.sprintf "%s AS (%s)" n sql) b.b_with));
     Buffer.add_char buf ' '
   end);
  Buffer.add_string buf "SELECT ";
  if b.b_distinct then Buffer.add_string buf "DISTINCT ";
  (match b.b_top with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf ' '
  | None -> ());
  let select_items =
    if b.b_select <> [] then b.b_select
    else
      List.map
        (fun ((c : Xtra.col), alias) -> (lookup_col ctx b c, alias))
        (output_aliases b.b_schema)
  in
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (e, a) -> if e = a then e else Printf.sprintf "%s AS %s" e a)
          select_items));
  if b.b_from <> "" then (
    Buffer.add_string buf " FROM ";
    Buffer.add_string buf b.b_from);
  if b.b_where <> [] then (
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (String.concat " AND " b.b_where));
  if b.b_group <> [] then (
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " b.b_group));
  if b.b_having <> [] then (
    Buffer.add_string buf " HAVING ";
    Buffer.add_string buf (String.concat " AND " b.b_having));
  if b.b_qualify <> [] then (
    Buffer.add_string buf " QUALIFY ";
    Buffer.add_string buf (String.concat " AND " b.b_qualify));
  if b.b_order <> [] then (
    Buffer.add_string buf " ORDER BY ";
    Buffer.add_string buf (String.concat ", " b.b_order));
  (match b.b_limit with
  | Some l ->
      Buffer.add_string buf " LIMIT ";
      Buffer.add_string buf l
  | None -> ());
  (match b.b_offset with
  | Some o ->
      Buffer.add_string buf " OFFSET ";
      Buffer.add_string buf o
  | None -> ());
  Buffer.contents buf

(* Wrap a block into a derived table; returns a fresh block whose map points
   at the derived table's columns. *)
and wrap ctx b : block =
  let alias = fresh_alias ctx in
  let aliases = output_aliases b.b_schema in
  (* ensure the select list materializes the output aliases *)
  if b.b_select = [] then
    b.b_select <-
      List.map (fun ((c : Xtra.col), a) -> (lookup_col ctx b c, a)) aliases;
  let sql = render_block ctx b in
  let nb = new_block () in
  nb.b_from <- Printf.sprintf "(%s) AS %s" sql alias;
  nb.b_schema <- b.b_schema;
  nb.b_map <-
    List.map
      (fun ((c : Xtra.col), a) -> (c.Xtra.id, Printf.sprintf "%s.%s" alias a))
      aliases;
  nb

(* Can more clauses of the given kind be merged into this block? *)
and can_add_where b = b.b_select = [] && b.b_group = [] && not b.b_has_window
                      && b.b_limit = None && b.b_order = [] && not b.b_distinct
and can_add_having b = b.b_group <> [] && b.b_limit = None && b.b_order = [] && not b.b_has_window
and is_plain_from b =
  b.b_select = [] && b.b_where = [] && b.b_group = [] && b.b_having = []
  && b.b_qualify = [] && b.b_order = [] && b.b_limit = None && not b.b_distinct
  && not b.b_has_window && b.b_with = []

and build ctx (r : Xtra.rel) : block =
  match r with
  | Xtra.Get { table; table_schema; alias = _ } ->
      let alias = fresh_alias ctx in
      let b = new_block () in
      b.b_from <- Printf.sprintf "%s AS %s" table alias;
      b.b_schema <- table_schema;
      b.b_map <-
        List.map
          (fun (c : Xtra.col) -> (c.Xtra.id, Printf.sprintf "%s.%s" alias c.Xtra.name))
          table_schema;
      b
  | Xtra.Cte_ref { cte_name; ref_schema } ->
      let alias = fresh_alias ctx in
      let b = new_block () in
      b.b_from <- Printf.sprintf "%s AS %s" cte_name alias;
      b.b_schema <- ref_schema;
      b.b_map <-
        List.map
          (fun (c : Xtra.col) -> (c.Xtra.id, Printf.sprintf "%s.%s" alias c.Xtra.name))
          ref_schema;
      b
  | Xtra.Values_rel { rows = [ [] ]; values_schema = [] } ->
      (* FROM-less SELECT *)
      let b = new_block () in
      b.b_select <- [ ("1", "DUMMY") ];
      b
  | Xtra.Values_rel { rows = []; values_schema } ->
      (* constant-empty relation (e.g. contradiction pruning): a one-row
         VALUES of typed NULLs under an always-false WHERE keeps the schema
         and column types while returning no rows on any target — a bare
         `(VALUES )` is not legal SQL anywhere *)
      let null_row =
        List.map
          (fun (c : Xtra.col) ->
            match c.Xtra.ty with
            | Dtype.Unknown -> Xtra.cnull
            | ty -> Xtra.Cast (Xtra.cnull, ty))
          values_schema
      in
      let b = build ctx (Xtra.Values_rel { rows = [ null_row ]; values_schema }) in
      b.b_where <- [ "1 = 0" ];
      b
  | Xtra.Values_rel { rows; values_schema } ->
      let alias = fresh_alias ctx in
      let b = new_block () in
      let tmp = new_block () in
      let row_sql row =
        Printf.sprintf "(%s)"
          (String.concat ", " (List.map (render_scalar ctx tmp) row))
      in
      (* derived column names must be unique: a pruned join keeps both
         sides' columns, which may share a name *)
      let names = output_aliases values_schema in
      b.b_from <-
        Printf.sprintf "(VALUES %s) AS %s (%s)"
          (String.concat ", " (List.map row_sql rows))
          alias
          (String.concat ", " (List.map snd names));
      b.b_schema <- values_schema;
      b.b_map <-
        List.map
          (fun ((c : Xtra.col), a) -> (c.Xtra.id, Printf.sprintf "%s.%s" alias a))
          names;
      b
  | Xtra.Filter { input; pred } ->
      let b = build ctx input in
      if can_add_where b then begin
        b.b_where <- b.b_where @ [ render_scalar ctx b pred ];
        b
      end
      else if can_add_having b then begin
        b.b_having <- b.b_having @ [ render_scalar ctx b pred ];
        b
      end
      else if
        b.b_has_window && ctx.cap.Capability.qualify_clause && b.b_limit = None
        && b.b_order = []
      then begin
        b.b_qualify <- b.b_qualify @ [ render_scalar ctx b pred ];
        b
      end
      else begin
        let b = wrap ctx b in
        b.b_where <- [ render_scalar ctx b pred ];
        b
      end
  | Xtra.Project { input; proj } ->
      let b = build ctx input in
      let b =
        if b.b_limit = None && b.b_order = [] && not b.b_distinct && b.b_select = []
        then b
        else wrap ctx b
      in
      let schema = List.map fst proj in
      let aliases = output_aliases schema in
      b.b_select <-
        List.map2
          (fun (_, e) ((_ : Xtra.col), a) -> (render_scalar ctx b e, a))
          proj aliases;
      b.b_map <-
        List.map2
          (fun ((c : Xtra.col), e) ((_ : Xtra.col), _) -> (c.Xtra.id, render_scalar ctx b e))
          proj aliases;
      (* recompute map AFTER setting select so self-references are stable;
         expression text is usable in WHERE/ORDER of enclosing merges *)
      b.b_schema <- schema;
      b
  | Xtra.Join { kind; left; right; pred } ->
      let lb = build ctx left in
      let lb = if is_plain_from lb then lb else wrap ctx lb in
      let rb = build ctx right in
      let rb = if is_plain_from rb then rb else wrap ctx rb in
      let b = new_block () in
      b.b_map <- lb.b_map @ rb.b_map;
      b.b_schema <- lb.b_schema @ rb.b_schema;
      b.b_with <- lb.b_with @ rb.b_with;
      b.b_recursive <- lb.b_recursive || rb.b_recursive;
      let kw =
        match kind with
        | Xtra.Inner -> "INNER JOIN"
        | Xtra.Left_outer -> "LEFT OUTER JOIN"
        | Xtra.Right_outer -> "RIGHT OUTER JOIN"
        | Xtra.Full_outer -> "FULL OUTER JOIN"
        | Xtra.Cross -> "CROSS JOIN"
      in
      (match (kind, pred) with
      | Xtra.Cross, None ->
          b.b_from <- Printf.sprintf "%s CROSS JOIN %s" lb.b_from rb.b_from
      | Xtra.Cross, Some p ->
          b.b_from <- Printf.sprintf "%s CROSS JOIN %s" lb.b_from rb.b_from;
          b.b_where <- [ render_scalar ctx b p ]
      | _, Some p ->
          b.b_from <-
            Printf.sprintf "%s %s %s ON %s" lb.b_from kw rb.b_from
              (render_scalar ctx b p)
      | _, None ->
          b.b_from <- Printf.sprintf "%s %s %s ON (1=1)" lb.b_from kw rb.b_from);
      b
  | Xtra.Aggregate { input; group_by; aggs; grouping_sets } ->
      let b = build ctx input in
      let b = if can_add_where b && b.b_where = [] || can_add_where b then b else if is_mergeable_for_agg b then b else wrap ctx b in
      let group_texts = List.map (fun (_, e) -> render_scalar ctx b e) group_by in
      let agg_texts = List.map (fun (_, a) -> render_agg ctx b a) aggs in
      let schema = List.map fst group_by @ List.map fst aggs in
      let aliases = output_aliases schema in
      let texts = group_texts @ agg_texts in
      b.b_select <-
        List.map2 (fun t ((_ : Xtra.col), a) -> (t, a)) texts aliases;
      b.b_map <- List.map2 (fun t ((c : Xtra.col), _) -> (c.Xtra.id, t)) texts aliases;
      b.b_schema <- schema;
      (match grouping_sets with
      | None -> b.b_group <- group_texts
      | Some sets ->
          (* native grouping-sets target *)
          let set_sql set =
            Printf.sprintf "(%s)"
              (String.concat ", " (List.map (fun i -> List.nth group_texts i) set))
          in
          b.b_group <-
            [ Printf.sprintf "GROUPING SETS (%s)" (String.concat ", " (List.map set_sql sets)) ]);
      if group_texts = [] && (match grouping_sets with None -> true | Some _ -> false) then b.b_group <- [];
      b
  | Xtra.Window { input; windows } ->
      let b = build ctx input in
      let b =
        if b.b_limit = None && b.b_order = [] && not b.b_distinct then b
        else wrap ctx b
      in
      let input_schema = Xtra.schema_of input in
      let schema = input_schema @ List.map fst windows in
      let aliases = output_aliases schema in
      let base_items =
        List.map
          (fun (c : Xtra.col) -> (lookup_col ctx b c, c))
          input_schema
      in
      let win_items =
        List.map (fun ((c : Xtra.col), w) -> (render_window ctx b w, c)) windows
      in
      let items = base_items @ win_items in
      b.b_select <-
        List.map2 (fun (t, _) ((_ : Xtra.col), a) -> (t, a)) items aliases;
      b.b_map <-
        List.map2 (fun (t, (c : Xtra.col)) _ -> (c.Xtra.id, t)) items aliases;
      b.b_schema <- schema;
      b.b_has_window <- true;
      b
  | Xtra.Sort { input; sort_keys } ->
      let b = build ctx input in
      let b = if b.b_limit = None && b.b_order = [] then b else wrap ctx b in
      b.b_order <- List.map (render_sort_key ctx b) sort_keys;
      b
  | Xtra.Limit { input; count; offset; with_ties; percent } ->
      let b = build ctx input in
      let b = if b.b_limit = None then b else wrap ctx b in
      let tmp_count = Option.map (render_scalar ctx b) count in
      if with_ties || percent then begin
        (* only reachable for targets that natively support TOP *)
        let top =
          Printf.sprintf "TOP %s%s%s"
            (match tmp_count with Some c -> c | None -> "ALL")
            (if percent then " PERCENT" else "")
            (if with_ties then " WITH TIES" else "")
        in
        b.b_top <- Some top
      end
      else begin
        b.b_limit <- tmp_count;
        b.b_offset <- Option.map (render_scalar ctx b) offset
      end;
      b
  | Xtra.Distinct { input } ->
      let b = build ctx input in
      let b = if b.b_limit = None && b.b_order = [] && not b.b_distinct then b else wrap ctx b in
      b.b_distinct <- true;
      b
  | Xtra.Set_operation { op; all; left; right } ->
      let lsql = render_rel_to_sql ctx left in
      let rsql = render_rel_to_sql ctx right in
      let kw =
        (match op with
        | Xtra.Union -> "UNION"
        | Xtra.Intersect -> "INTERSECT"
        | Xtra.Except -> "EXCEPT")
        ^ if all then " ALL" else ""
      in
      let alias = fresh_alias ctx in
      let schema = Xtra.schema_of left in
      let aliases = output_aliases schema in
      let b = new_block () in
      b.b_from <- Printf.sprintf "((%s) %s (%s)) AS %s" lsql kw rsql alias;
      b.b_schema <- schema;
      b.b_map <-
        List.map
          (fun ((c : Xtra.col), a) -> (c.Xtra.id, Printf.sprintf "%s.%s" alias a))
          aliases;
      b
  | Xtra.With_cte { ctes; cte_recursive; body } ->
      let cte_sqls =
        List.map
          (fun (n, q) ->
            match (cte_recursive, q) with
            | true, Xtra.Set_operation { op; all; left; right } ->
                (* a recursive CTE body must stay <seed> UNION ALL <step>
                   at the top level — no derived-table wrapping *)
                let kw =
                  (match op with
                  | Xtra.Union -> "UNION"
                  | Xtra.Intersect -> "INTERSECT"
                  | Xtra.Except -> "EXCEPT")
                  ^ if all then " ALL" else ""
                in
                ( n,
                  Printf.sprintf "(%s) %s (%s)" (render_rel_to_sql ctx left) kw
                    (render_rel_to_sql ctx right) )
            | _ -> (n, render_rel_to_sql ctx q))
          ctes
      in
      let b = build ctx body in
      (* attach the WITH clause to the outermost block of the body *)
      let b = if b.b_with = [] then b else wrap ctx b in
      b.b_with <- cte_sqls;
      b.b_recursive <- cte_recursive;
      b

and is_mergeable_for_agg b =
  b.b_select = [] && b.b_group = [] && not b.b_has_window && b.b_limit = None
  && b.b_order = [] && not b.b_distinct

and render_rel_to_sql ctx rel = render_block ctx (build ctx rel)

(* The set-operation output column names must be stable: SQL takes them from
   the left branch, so force explicit select-list aliases on both branches.
   [render_rel_to_sql] already materializes aliases via output_aliases when
   b_select is empty — but positional alignment is what set ops use, so the
   default behaviour is correct. *)

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let render_query ~cap rel =
  let ctx = create_ctx cap in
  render_rel_to_sql ctx rel

let serialize ~cap (st : Xtra.statement) : string =
  let ctx = create_ctx cap in
  match st with
  | Xtra.Query rel -> render_rel_to_sql ctx rel
  | Xtra.Insert { target; target_cols; source } -> (
      let cols = String.concat ", " target_cols in
      match source with
      | Xtra.Values_rel { rows; _ } ->
          let tmp = new_block () in
          let row_sql row =
            Printf.sprintf "(%s)"
              (String.concat ", " (List.map (render_scalar ctx tmp) row))
          in
          Printf.sprintf "INSERT INTO %s (%s) VALUES %s" target cols
            (String.concat ", " (List.map row_sql rows))
      | rel ->
          Printf.sprintf "INSERT INTO %s (%s) %s" target cols
            (render_rel_to_sql ctx rel))
  | Xtra.Update { target; update_alias; assignments; extra_from; upd_pred; upd_schema }
    ->
      let b = new_block () in
      b.b_map <-
        List.map
          (fun (c : Xtra.col) ->
            (c.Xtra.id, Printf.sprintf "%s.%s" update_alias c.Xtra.name))
          upd_schema;
      let from_sql =
        match extra_from with
        | None -> ""
        | Some rel ->
            let fb = build ctx rel in
            let fb = if is_plain_from fb then fb else wrap ctx fb in
            b.b_map <- b.b_map @ fb.b_map;
            Printf.sprintf " FROM %s" fb.b_from
      in
      let sets =
        String.concat ", "
          (List.map
             (fun (c, e) -> Printf.sprintf "%s = %s" c (render_scalar ctx b e))
             assignments)
      in
      let where =
        match upd_pred with
        | Some p -> Printf.sprintf " WHERE %s" (render_scalar ctx b p)
        | None -> ""
      in
      Printf.sprintf "UPDATE %s AS %s SET %s%s%s" target update_alias sets
        from_sql where
  | Xtra.Delete { target; delete_alias; extra_from; del_pred; del_schema } -> (
      let b = new_block () in
      b.b_map <-
        List.map
          (fun (c : Xtra.col) ->
            (c.Xtra.id, Printf.sprintf "%s.%s" delete_alias c.Xtra.name))
          del_schema;
      match extra_from with
      | None ->
          let where =
            match del_pred with
            | Some p -> Printf.sprintf " WHERE %s" (render_scalar ctx b p)
            | None -> ""
          in
          Printf.sprintf "DELETE FROM %s AS %s%s" target delete_alias where
      | Some rel ->
          (* rewrite the Teradata DELETE..FROM join form into an EXISTS *)
          let fb = build ctx rel in
          let fb = if is_plain_from fb then fb else wrap ctx fb in
          let inner_where =
            match del_pred with
            | Some p ->
                b.b_map <- b.b_map @ fb.b_map;
                Printf.sprintf " WHERE %s" (render_scalar ctx b p)
            | None -> ""
          in
          Printf.sprintf "DELETE FROM %s AS %s WHERE EXISTS (SELECT 1 FROM %s%s)"
            target delete_alias fb.b_from inner_where)
  | Xtra.Merge
      {
        m_target;
        m_alias;
        m_schema;
        m_source;
        m_source_alias = _;
        m_on;
        m_matched_update;
        m_matched_delete;
        m_not_matched_insert;
      } ->
      if not cap.Capability.merge_stmt then
        Sql_error.capability_gap
          "target %s does not support MERGE; emulation required" cap.Capability.name;
      let b = new_block () in
      b.b_map <-
        List.map
          (fun (c : Xtra.col) -> (c.Xtra.id, Printf.sprintf "%s.%s" m_alias c.Xtra.name))
          m_schema;
      let sb = build ctx m_source in
      let sb = if is_plain_from sb then sb else wrap ctx sb in
      b.b_map <- b.b_map @ sb.b_map;
      let matched =
        match (m_matched_update, m_matched_delete) with
        | Some sets, _ ->
            Printf.sprintf " WHEN MATCHED THEN UPDATE SET %s"
              (String.concat ", "
                 (List.map
                    (fun (c, e) -> Printf.sprintf "%s = %s" c (render_scalar ctx b e))
                    sets))
        | None, true -> " WHEN MATCHED THEN DELETE"
        | None, false -> ""
      in
      let not_matched =
        match m_not_matched_insert with
        | Some (cols, vals) ->
            Printf.sprintf " WHEN NOT MATCHED THEN INSERT (%s) VALUES (%s)"
              (String.concat ", " cols)
              (String.concat ", " (List.map (render_scalar ctx b) vals))
        | None -> ""
      in
      Printf.sprintf "MERGE INTO %s AS %s USING %s ON %s%s%s" m_target m_alias
        sb.b_from
        (render_scalar ctx b m_on)
        matched not_matched
  | Xtra.Create_table { ct_name; persistence; specs; set_semantics = _; ct_if_not_exists }
    ->
      let col_sql (s : Xtra.column_spec) =
        let tmp = new_block () in
        Printf.sprintf "%s %s%s%s" s.Xtra.spec_name
          (render_type cap s.Xtra.spec_type)
          (if s.Xtra.spec_not_null then " NOT NULL" else "")
          (match s.Xtra.spec_default with
          | Some d -> Printf.sprintf " DEFAULT %s" (render_scalar ctx tmp d)
          | None -> "")
      in
      Printf.sprintf "CREATE %sTABLE %s%s (%s)"
        (match persistence with
        | Xtra.Tp_persistent -> ""
        | Xtra.Tp_temporary -> "TEMPORARY ")
        (if ct_if_not_exists then "IF NOT EXISTS " else "")
        ct_name
        (String.concat ", " (List.map col_sql specs))
  | Xtra.Create_table_as { cta_name; cta_persistence; cta_source; with_data } ->
      Printf.sprintf "CREATE %sTABLE %s AS (%s) WITH %sDATA"
        (match cta_persistence with
        | Xtra.Tp_persistent -> ""
        | Xtra.Tp_temporary -> "TEMPORARY ")
        cta_name
        (render_rel_to_sql ctx cta_source)
        (if with_data then "" else "NO ")
  | Xtra.Drop_table { dt_name; dt_if_exists } ->
      Printf.sprintf "DROP TABLE %s%s"
        (if dt_if_exists then "IF EXISTS " else "")
        dt_name
  | Xtra.Rename_table { rn_from; rn_to } ->
      Printf.sprintf "ALTER TABLE %s RENAME TO %s" rn_from rn_to
  | Xtra.Begin_tx -> "BEGIN TRANSACTION"
  | Xtra.Commit_tx -> "COMMIT"
  | Xtra.Rollback_tx -> "ROLLBACK"
  | Xtra.No_op reason -> Printf.sprintf "-- elided: %s" reason
