(** The target database system (DB-B in the paper's terms).

    A self-contained analytical SQL engine: it parses the ANSI dialect our
    serializers emit, binds it against its own (physical) catalog, and
    executes it with {!Executor}. This substitutes for the paper's cloud
    data warehouse — everything Hyper-Q emits is genuinely re-parsed and
    executed, closing the translation loop end-to-end. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect

type t = {
  catalog : Catalog.t;
  storage : Storage.t;
  mutable session_user : string;
  mutable queries_executed : int;
  mutable exec_mode : exec_mode;
  mutable exec_domains : int;
}

and exec_mode = Row | Batch

type result = {
  res_schema : (string * Dtype.t) list;
  res_rows : Value.t array list;
  res_rowcount : int;  (** affected rows for DML; result rows for queries *)
  res_message : string;
}

(* The vectorized executor is the default; [HYPERQ_EXEC_MODE=row] selects the
   row interpreter (baseline for benchmarks and differential testing). *)
let default_exec_mode () =
  match Sys.getenv_opt "HYPERQ_EXEC_MODE" with
  | Some "row" -> Row
  | _ -> Batch

let create () =
  {
    catalog = Catalog.create ();
    storage = Storage.create ();
    session_user = "HYPERQ";
    queries_executed = 0;
    exec_mode = default_exec_mode ();
    exec_domains = Morsel.configured_domains ();
  }

let query_result schema rows =
  {
    res_schema =
      List.map (fun (c : Xtra.col) -> (c.Xtra.name, c.Xtra.ty)) schema;
    res_rows = rows;
    res_rowcount = List.length rows;
    res_message = "SELECT";
  }

let dml_result message n =
  { res_schema = []; res_rows = []; res_rowcount = n; res_message = message }

let catalog_column_of_spec (s : Xtra.column_spec) : Catalog.column =
  {
    Catalog.col_name = s.Xtra.spec_name;
    col_type = s.Xtra.spec_type;
    col_not_null = s.Xtra.spec_not_null;
    col_default = None;
    col_case_specific = true;
  }

(* Coerce an incoming row to the table's declared column types and check
   NOT NULL constraints. *)
let coerce_row t table (positions : int option array) width (row : Executor.row) =
  let cols = Array.of_list table.Catalog.tbl_columns in
  let out = Array.make width Value.Null in
  Array.iteri
    (fun target_idx src ->
      let col = cols.(target_idx) in
      let v =
        match src with
        | Some i -> Value.cast row.(i) col.Catalog.col_type
        | None -> Value.Null
      in
      if Value.is_null v && col.Catalog.col_not_null then
        Sql_error.execution_error "column %s of %s is NOT NULL"
          col.Catalog.col_name table.Catalog.tbl_name;
      out.(target_idx) <- v)
    positions;
  ignore t;
  out

(* Run a relation on the session's executor, as [Query] does: the
   vectorized path (with the session's morsel domains) in [Batch] mode, the
   row interpreter in [Row] mode. DML sources go through here too. *)
let run_rel t (rel : Xtra.rel) =
  let ctx =
    Executor.create_ctx ~session_user:t.session_user ~domains:t.exec_domains
      t.storage
  in
  match t.exec_mode with
  | Batch -> Batch_exec.exec_rows ctx rel
  | Row -> Executor.exec ctx rel

let exec_insert t ~target ~target_cols ~source =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some table ->
      let src_rows = run_rel t source in
      let width = List.length table.Catalog.tbl_columns in
      (* positions.(i) = index in the source row feeding target column i *)
      let positions =
        Array.of_list
          (List.map
             (fun (c : Catalog.column) ->
               let rec find i = function
                 | [] -> None
                 | name :: tl ->
                     if String.uppercase_ascii name = String.uppercase_ascii c.Catalog.col_name
                     then Some i
                     else find (i + 1) tl
               in
               find 0 target_cols)
             table.Catalog.tbl_columns)
      in
      let rows =
        List.map (coerce_row t table positions width) src_rows
      in
      let n = Storage.insert t.storage target rows in
      dml_result "INSERT" n

let table_frame (schema : Xtra.schema) =
  { Executor.index = Executor.make_index schema; row = [||] }

(* Evaluate [e] with a target row and a FROM row in scope. *)
let eval_pair ctx tframe fframe trow frow e =
  tframe.Executor.row <- trow;
  fframe.Executor.row <- frow;
  Executor.push_frame ctx tframe;
  Executor.push_frame ctx fframe;
  let v = Executor.eval ctx e in
  Executor.pop_frame ctx;
  Executor.pop_frame ctx;
  v

(* A key expression as a function of one row of [index]'s schema: a column
   reads its slot, anything else runs the row interpreter in that row's
   frame alone. *)
let row_key ctx index (e : Xtra.scalar) : Executor.row -> Value.t =
  match e with
  | Xtra.Col_ref c when Hashtbl.mem index c.Xtra.id ->
      let pos = Hashtbl.find index c.Xtra.id in
      fun row -> row.(pos)
  | _ ->
      let frame = { Executor.index; row = [||] } in
      fun row ->
        frame.Executor.row <- row;
        Executor.push_frame ctx frame;
        let v = Executor.eval ctx e in
        Executor.pop_frame ctx;
        v

(* The one matcher behind UPDATE and DELETE (and so MERGE): calls
   [on_match i frow] for every pair of target row [targets.(i)] and FROM
   row [frow] that satisfies [pred]. The predicate's equalities between a
   target and a FROM expression ({!Executor.split_equi}, each side reading
   its own columns) key a hash table built on the target rows; the FROM
   rows stream past it, and the full predicate runs only on each FROM
   row's hash candidates. NULL keys match nothing, as SQL equality
   demands. With no such equality every target row is a candidate for
   every FROM row: one bucket, which is the nested loop. With no FROM
   clause there is one empty FROM row, so an equality with a constant
   side ([T.K = 5]) looks the matching target rows up, and without one
   the match is a plain filter over the target. *)
let match_rows ctx ~(schema : Xtra.schema) (targets : Executor.row array)
    ~(from_schema : Xtra.schema) (from_rows : Executor.row list) pred
    on_match =
  let ids = List.map (fun (c : Xtra.col) -> c.Xtra.id) in
  let equi =
    match pred with
    | None -> []
    | Some p ->
        Executor.split_conjuncts p
        |> Executor.split_equi ~lids:(ids schema) ~rids:(ids from_schema)
        |> fst
  in
  let tframe = table_frame schema and fframe = table_frame from_schema in
  let holds trow frow =
    match pred with
    | None -> true
    | Some p -> (
        match eval_pair ctx tframe fframe trow frow p with
        | Value.Bool b -> b
        | Value.Null -> false
        | v ->
            Sql_error.execution_error "bad predicate value %s"
              (Value.to_string v))
  in
  let try_pair i frow = if holds targets.(i) frow then on_match i frow in
  let probe =
    if equi = [] then fun frow ->
      Array.iteri (fun i _ -> try_pair i frow) targets
    else begin
      let keys index side =
        Array.of_list (List.map (fun eq -> row_key ctx index (side eq)) equi)
      in
      let tkeys = keys tframe.Executor.index fst in
      let fkeys = keys fframe.Executor.index snd in
      (* [None] for a key holding a NULL *)
      let key_of fs row =
        let key = Array.map (fun f -> f row) fs in
        if Array.exists Value.is_null key then None else Some key
      in
      let chains = Hash_table.create_chains () in
      Array.iteri
        (fun i trow ->
          Option.iter (fun key -> Hash_table.add_item chains key i) (key_of tkeys trow))
        targets;
      fun frow ->
        Option.iter
          (fun key ->
            let i = ref (Hash_table.first_item chains key) in
            while !i >= 0 do
              try_pair !i frow;
              i := Hash_table.next_item chains !i
            done)
          (key_of fkeys frow)
    end
  in
  List.iter probe from_rows

(* The FROM relation's rows and schema; a plain UPDATE/DELETE has one
   empty FROM row. *)
let from_side t = function
  | Some rel -> (run_rel t rel, Xtra.schema_of rel)
  | None -> ([ [||] ], [])

let exec_update t ~target ~assignments ~extra_from ~pred ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some table ->
      let ctx = Executor.create_ctx ~session_user:t.session_user t.storage in
      let from_rows, from_schema = from_side t extra_from in
      let targets = Storage.scan_array t.storage target in
      (* the FROM row each target row is updated from; like Teradata, a
         target row matched twice is an error, so the result never depends
         on the order the FROM rows come in *)
      let source = Array.make (Array.length targets) None in
      match_rows ctx ~schema targets ~from_schema from_rows pred (fun i frow ->
          if Option.is_some source.(i) then
            Sql_error.execution_error
              "7547 Target row updated by multiple source rows.";
          source.(i) <- Some frow);
      let cols = Array.of_list table.Catalog.tbl_columns in
      let col_pos name =
        let rec go i = function
          | [] -> Sql_error.execution_error "column %s not found" name
          | (c : Catalog.column) :: tl ->
              if String.uppercase_ascii c.Catalog.col_name = String.uppercase_ascii name
              then i
              else go (i + 1) tl
        in
        go 0 table.Catalog.tbl_columns
      in
      let assignments = List.map (fun (name, e) -> (col_pos name, e)) assignments in
      let tframe = table_frame schema and fframe = table_frame from_schema in
      let updated = ref 0 in
      let rows =
        Array.mapi
          (fun i row ->
            match source.(i) with
            | None -> row
            | Some frow ->
                incr updated;
                let row' = Array.copy row in
                List.iter
                  (fun (pos, e) ->
                    row'.(pos) <-
                      Value.cast
                        (eval_pair ctx tframe fframe row frow e)
                        cols.(pos).Catalog.col_type)
                  assignments;
                row')
          targets
      in
      Storage.replace_rows t.storage target rows;
      dml_result "UPDATE" !updated

let exec_delete t ~target ~extra_from ~pred ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some _ ->
      let ctx = Executor.create_ctx ~session_user:t.session_user t.storage in
      let from_rows, from_schema = from_side t extra_from in
      let targets = Storage.scan_array t.storage target in
      let doomed = Array.make (Array.length targets) false in
      match_rows ctx ~schema targets ~from_schema from_rows pred (fun i _ ->
          doomed.(i) <- true);
      let kept =
        Array.of_list
          (List.filteri (fun i _ -> not doomed.(i)) (Array.to_list targets))
      in
      Storage.replace_rows t.storage target kept;
      dml_result "DELETE" (Array.length targets - Array.length kept)

let rec exec_statement t (st : Xtra.statement) : result =
  t.queries_executed <- t.queries_executed + 1;
  let st = Optimizer.optimize_statement st in
  (if Sys.getenv_opt "HYPERQ_PLAN_DEBUG" <> None then
     match st with
     | Xtra.Query rel -> prerr_endline (Hyperq_xtra.Xtra_pp.rel_to_string rel)
     | _ -> ());
  match st with
  | Xtra.Query rel -> query_result (Xtra.schema_of rel) (run_rel t rel)
  | Xtra.Insert { target; target_cols; source } ->
      exec_insert t ~target ~target_cols ~source
  | Xtra.Update { target; assignments; extra_from; upd_pred; upd_schema; _ } ->
      exec_update t ~target ~assignments ~extra_from ~pred:upd_pred
        ~schema:upd_schema
  | Xtra.Delete { target; extra_from; del_pred; del_schema; _ } ->
      exec_delete t ~target ~extra_from ~pred:del_pred ~schema:del_schema
  | Xtra.Merge _ ->
      Sql_error.capability_gap "the engine does not support MERGE natively"
  | Xtra.Create_table { ct_name; persistence; specs; set_semantics; ct_if_not_exists }
    ->
      if Catalog.table_exists t.catalog ct_name then
        if ct_if_not_exists then dml_result "CREATE TABLE" 0
        else Sql_error.execution_error "table %s already exists" ct_name
      else begin
        Catalog.add_table t.catalog
          {
            Catalog.tbl_name = ct_name;
            tbl_columns = List.map catalog_column_of_spec specs;
            tbl_set_semantics = set_semantics;
            tbl_temporary = persistence = Xtra.Tp_temporary;
          };
        Storage.create_table t.storage ~dedup:set_semantics
          ~temporary:(persistence = Xtra.Tp_temporary) ct_name;
        dml_result "CREATE TABLE" 0
      end
  | Xtra.Create_table_as { cta_name; cta_persistence; cta_source; with_data } ->
      let schema = Xtra.schema_of cta_source in
      let specs =
        List.map
          (fun (c : Xtra.col) ->
            {
              Xtra.spec_name = c.Xtra.name;
              spec_type =
                (match c.Xtra.ty with Dtype.Unknown -> Dtype.varchar () | ty -> ty);
              spec_not_null = false;
              spec_default = None;
            })
          schema
      in
      let _ =
        exec_statement t
          (Xtra.Create_table
             {
               ct_name = cta_name;
               persistence = cta_persistence;
               specs;
               set_semantics = false;
               ct_if_not_exists = false;
             })
      in
      if with_data then
        exec_insert t ~target:cta_name
          ~target_cols:(List.map (fun (c : Xtra.col) -> c.Xtra.name) schema)
          ~source:cta_source
      else dml_result "CREATE TABLE AS" 0
  | Xtra.Drop_table { dt_name; dt_if_exists } ->
      if Catalog.table_exists t.catalog dt_name then begin
        Catalog.drop_table t.catalog ~if_exists:dt_if_exists dt_name;
        Storage.drop_table t.storage dt_name;
        dml_result "DROP TABLE" 0
      end
      else if dt_if_exists then dml_result "DROP TABLE" 0
      else Sql_error.execution_error "table %s does not exist" dt_name
  | Xtra.Rename_table { rn_from; rn_to } ->
      Catalog.rename_table t.catalog ~from_name:rn_from ~to_name:rn_to;
      Storage.rename_table t.storage ~from_name:rn_from ~to_name:rn_to;
      dml_result "ALTER TABLE" 0
  | Xtra.Begin_tx ->
      Storage.begin_tx t.storage;
      dml_result "BEGIN" 0
  | Xtra.Commit_tx ->
      Storage.commit_tx t.storage;
      dml_result "COMMIT" 0
  | Xtra.Rollback_tx ->
      Storage.rollback_tx t.storage;
      dml_result "ROLLBACK" 0
  | Xtra.No_op reason -> dml_result reason 0

(** Execute one SQL statement in the engine's own (ANSI) dialect: the full
    parse → bind → execute path of a standalone database system. *)
let execute_sql t sql =
  let ast = Parser.parse_statement ~dialect:Dialect.Ansi sql in
  let bctx = Binder.create_ctx ~dialect:Dialect.Ansi t.catalog in
  let st = Binder.bind_statement bctx ast in
  exec_statement t st

(** Execute a whole script ([;]-separated); returns the last result. *)
let execute_script t sql =
  let asts = Parser.parse_many ~dialect:Dialect.Ansi sql in
  match asts with
  | [] -> dml_result "EMPTY" 0
  | asts ->
      List.fold_left
        (fun _ ast ->
          let bctx = Binder.create_ctx ~dialect:Dialect.Ansi t.catalog in
          exec_statement t (Binder.bind_statement bctx ast))
        (dml_result "" 0) asts
