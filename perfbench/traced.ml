(* The traced run: the same seeded stream (1) over the wire, (2) through
   [Gateway.feed] in this process, (3) replayed in this process through each
   layer's public functions with a span around every call, and (4) through
   [Pipeline.run_sql] untraced. Spans are recorded only here, never inside
   the library. *)

open Workload
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Gateway = Hyperq_core.Gateway
module Plan_cache = Hyperq_core.Plan_cache
module Result_converter = Hyperq_core.Result_converter
module Lexer = Hyperq_sqlparser.Lexer
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect
module Ast = Hyperq_sqlparser.Ast
module Binder = Hyperq_binder.Binder
module Transformer = Hyperq_transform.Transformer
module Capability = Hyperq_transform.Capability
module Serializer = Hyperq_serialize.Serializer
module Catalog = Hyperq_catalog.Catalog
module Xtra = Hyperq_xtra.Xtra
module Backend = Hyperq_engine.Backend
module Optimizer = Hyperq_engine.Optimizer
module Executor = Hyperq_engine.Executor
module Batch_exec = Hyperq_engine.Batch_exec
module Morsel = Hyperq_engine.Morsel
module Tdf = Hyperq_tdf.Tdf
module Result_store = Hyperq_tdf.Result_store
module Message = Hyperq_wire.Message
module Sql_error = Hyperq_sqlvalue.Sql_error

(* Statements replayed: fixed by --seconds, so two traced runs with the same
   settings do the same work. *)
let size kind ~seconds =
  match kind with
  | Tpch_olap -> 22 * max 1 (int_of_float (seconds /. 16.))
  | Bi_replay -> 400 * max 1 (int_of_float seconds)
  | Etl_roundtrip -> etl_cycle_len * max 2 (int_of_float (seconds /. 8.))

(* An in-process pipeline loaded the way the server is. *)
let fresh_pipeline (s : stream) =
  let p = Pipeline.create () in
  let session = Session.create () in
  if needs_tpch s.kind then ignore (Hyperq_workload.Tpch.setup ~sf:Gen.tpch_sf p)
  else List.iter (fun sql -> ignore (Pipeline.run_sql p ~session sql)) (Gen.bi_setup ~seed:s.seed);
  (p, session)

(* --- (2) Gateway.feed ---------------------------------------------------- *)

let decode_all out =
  let rec go pos acc =
    match Message.decode_frame out pos with
    | Some (m, next) -> go next (m :: acc)
    | None -> List.rev acc
  in
  go 0 []

(* Per-statement feed time (s) and the number of statements not answered
   with Success. *)
let feed_phase (s : stream) n =
  let p, _ = fresh_pipeline s in
  let conn = Gateway.connect (Gateway.create p) () in
  let feed m = decode_all (Gateway.feed conn (Message.encode_frame m)) in
  (match feed (Message.Logon_request { username = "DBC" }) with
  | [ Message.Logon_challenge { salt } ] ->
      ignore
        (feed
           (Message.Logon_auth
              { username = "DBC"; proof = Hyperq_wire.Auth.proof ~salt ~password:"DBC" }))
  | _ -> failwith "gateway logon failed");
  let failures = ref 0 in
  let times =
    Array.init n (fun pos ->
        let frame = Message.encode_frame (Message.Run_request { sql = s.sql pos }) in
        let t = Metrics.now () in
        let out = Gateway.feed conn frame in
        let dt = Metrics.now () -. t in
        (match List.rev (decode_all out) with
        | Message.Success _ :: _ -> ()
        | _ -> incr failures);
        dt)
  in
  Gateway.disconnect conn;
  (times, !failures)

(* --- (3) the decomposed, traced replay ----------------------------------- *)

type counts = {
  mutable lookups : int;
  mutable hits : int;
  mutable rules_fired : int;
  mutable emu_stmts : int;
  mutable emu_requests : int;
  mutable rows_written : int;
  mutable tdf_bytes : int;
  mutable records : int;
}

let last l = List.nth l (List.length l - 1)

(* Statements the pipeline answers itself before binding (macros, HELP,
   SHOW, SET SESSION, EXPLAIN, view and procedure DDL, DML on views). *)
let owned_before_bind vcatalog (ast : Ast.statement) =
  match ast with
  | Ast.S_exec_macro _ | Ast.S_create_macro _ | Ast.S_drop_macro _
  | Ast.S_create_view _ | Ast.S_drop_view _ | Ast.S_create_procedure _
  | Ast.S_drop_procedure _ | Ast.S_call _ | Ast.S_explain _ | Ast.S_help _
  | Ast.S_show _ | Ast.S_set_session _ ->
      true
  | Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ } ->
      Catalog.find_view vcatalog (last table) <> None
  | _ -> false

type route = Direct | Emulated | Ddl

(* Where the pipeline sends a bound statement on its target profile (the
   workloads have no recursive queries, the one other emulated kind). *)
let route (p : Pipeline.t) (bound : Xtra.statement) =
  let cap = p.Pipeline.cap in
  match bound with
  | Xtra.Merge _ when not cap.Capability.merge_stmt -> Emulated
  | Xtra.Insert { target; _ }
    when (not cap.Capability.set_tables)
         && (match Catalog.find_table p.Pipeline.vcatalog target with
            | Some tbl -> tbl.Catalog.tbl_set_semantics
            | None -> false) ->
      Emulated
  | Xtra.Query _ | Xtra.Insert _ | Xtra.Update _ | Xtra.Delete _ | Xtra.Merge _ -> Direct
  | _ -> Ddl

let executor_span = function
  | Xtra.Insert { source = Xtra.Values_rel _; _ } -> "executor.insert_values"
  | Xtra.Insert _ -> "executor.insert_select"
  | Xtra.Update { extra_from = Some _; _ } -> "executor.update_from"
  | Xtra.Update _ -> "executor.update"
  | Xtra.Delete _ -> "executor.delete"
  | _ -> "executor.other"

let is_dml = function "INSERT" | "UPDATE" | "DELETE" | "MERGE" -> true | _ -> false

(* The backend's own path for one emitted ANSI statement. *)
let exec_target tr (p : Pipeline.t) sql =
  let be = p.Pipeline.backend in
  let ast = Spans.with_ tr "backend.parse" (fun () -> Parser.parse_statement ~dialect:Dialect.Ansi sql) in
  let st =
    Spans.with_ tr "backend.bind" (fun () ->
        Binder.bind_statement (Binder.create_ctx ~dialect:Dialect.Ansi be.Backend.catalog) ast)
  in
  let st = Spans.with_ tr "backend.optimize" (fun () -> Optimizer.optimize_statement st) in
  match st with
  | Xtra.Query rel ->
      let ctx =
        Executor.create_ctx ~session_user:be.Backend.session_user
          ~domains:be.Backend.exec_domains be.Backend.storage
      in
      let rows = Spans.with_ tr "batch_exec" (fun () -> Batch_exec.exec_rows ctx rel) in
      {
        Backend.res_schema = List.map (fun (c : Xtra.col) -> (c.Xtra.name, c.Xtra.ty)) (Xtra.schema_of rel);
        res_rows = rows;
        res_rowcount = List.length rows;
        res_message = "SELECT";
      }
  | st -> Spans.with_ tr (executor_span st) (fun () -> Backend.exec_statement be st)

let no_rows = { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "OK" }

(* One statement through lex, parse, cache, bind, transform, serialize,
   backend and conversion. Returns its activity count and, for the TDF
   byte count taken after the statement's span closes, its result. *)
let replay_one tr c (p : Pipeline.t) session sql =
  let cap = p.Pipeline.cap in
  let key =
    Plan_cache.key ~rules:"" ~sql ~dialect:(Dialect.to_string Dialect.Teradata)
      ~cap:cap.Capability.name
  in
  let version = Catalog.version p.Pipeline.vcatalog in
  c.lookups <- c.lookups + 1;
  let via_pipeline name ast =
    let before = p.Pipeline.backend.Backend.queries_executed in
    let o =
      Spans.with_ tr name (fun () -> Pipeline.run_statement_ast p ~session ~sql_text:sql ast)
    in
    if name = "emulation" then begin
      c.emu_stmts <- c.emu_stmts + 1;
      c.emu_requests <- c.emu_requests + p.Pipeline.backend.Backend.queries_executed - before
    end;
    if is_dml o.Pipeline.out_activity then c.rows_written <- c.rows_written + o.Pipeline.out_count;
    (o.Pipeline.out_count, None)
  in
  let execute target no_op =
    let res = if no_op then no_rows else exec_target tr p target in
    if is_dml res.Backend.res_message then c.rows_written <- c.rows_written + res.Backend.res_rowcount;
    if res.Backend.res_rows = [] then (res.Backend.res_rowcount, None)
    else begin
      let columns =
        List.map (fun (n, ty) -> { Tdf.cd_name = n; cd_type = ty }) res.Backend.res_schema
      in
      let store =
        Spans.with_ tr "odbc.tdf_pack" (fun () ->
            let store = Result_store.create columns in
            Result_store.add_rows store res.Backend.res_rows;
            store)
      in
      let records = Spans.with_ tr "result_converter" (fun () -> Result_converter.convert columns store) in
      c.records <- c.records + List.length records;
      (res.Backend.res_rowcount, Some { Tdf.columns; rows = res.Backend.res_rows })
    end
  in
  match Spans.with_ tr "plan_cache" (fun () -> Plan_cache.find p.Pipeline.cache ~version key) with
  | Some { Plan_cache.e_plan = Some plan; _ } ->
      c.hits <- c.hits + 1;
      execute plan.Plan_cache.p_target_sql plan.Plan_cache.p_no_op
  | _ -> (
      let tokens = Spans.with_ tr "lexer" (fun () -> Lexer.tokenize sql) in
      let ast =
        Spans.with_ tr "parser" (fun () -> Parser.parse_statement_tokens ~dialect:Dialect.Teradata tokens)
      in
      if owned_before_bind p.Pipeline.vcatalog ast then via_pipeline "emulation" ast
      else
        let bctx = Binder.create_ctx ~dialect:Dialect.Teradata p.Pipeline.vcatalog in
        let bound = Spans.with_ tr "binder" (fun () -> Binder.bind_statement bctx ast) in
        match route p bound with
        | Emulated -> via_pipeline "emulation" ast
        | Ddl -> via_pipeline "ddl" ast
        | Direct ->
            let transformed, applied =
              Spans.with_ tr "transformer" (fun () ->
                  Transformer.transform ~extra_rel_rules:p.Pipeline.infer_rel_rules ~cap
                    ~counter:(ref 1_000_000) bound)
            in
            c.rules_fired <- c.rules_fired + List.fold_left (fun n (_, k) -> n + k) 0 applied;
            let target = Spans.with_ tr "serializer" (fun () -> Serializer.serialize ~cap transformed) in
            let no_op = match transformed with Xtra.No_op _ -> true | _ -> false in
            Spans.with_ tr "plan_cache" (fun () ->
                Plan_cache.add p.Pipeline.cache ~version key
                  {
                    Plan_cache.e_bound = bound;
                    e_has_params = false;
                    e_binder_features = bctx.Binder.features;
                    e_rules = List.map fst applied;
                    e_plan = Some { Plan_cache.p_target_sql = target; p_no_op = no_op };
                    e_bind_s = 0.;
                    e_translate_s = 0.;
                  });
            execute target no_op)

type traced = {
  tr : Spans.t;
  c : counts;
  counts_by_pos : int option array;  (** activity count, None = failed *)
  batch : (string * int) list;  (** Batch_exec counters over the replay *)
  morsel : (string * float) list;
  invalidations : int;
}

let traced_phase (s : stream) n =
  let p, session = fresh_pipeline s in
  let tr = Spans.create () in
  let c =
    { lookups = 0; hits = 0; rules_fired = 0; emu_stmts = 0; emu_requests = 0; rows_written = 0; tdf_bytes = 0; records = 0 }
  in
  let inv0 = (Plan_cache.stats p.Pipeline.cache).Plan_cache.invalidations in
  Batch_exec.reset_counters ();
  Morsel.reset_stats ();
  let counts_by_pos =
    Array.init n (fun pos ->
        tr.Spans.stmt <- pos;
        match Spans.with_ tr "statement" (fun () -> replay_one tr c p session (s.sql pos)) with
        | count, batch ->
            Option.iter (fun b -> c.tdf_bytes <- c.tdf_bytes + String.length (Tdf.encode b)) batch;
            Some count
        | exception Sql_error.Error _ -> None)
  in
  {
    tr;
    c;
    counts_by_pos;
    batch = Batch_exec.counters ();
    morsel = Morsel.stats ();
    invalidations = (Plan_cache.stats p.Pipeline.cache).Plan_cache.invalidations - inv0;
  }

(* --- (4) untraced in-process replay --------------------------------------- *)

let untraced_phase (s : stream) n =
  let p, session = fresh_pipeline s in
  let total = ref 0. in
  let counts =
    Array.init n (fun pos ->
        let sql = s.sql pos in
        let t = Metrics.now () in
        let r = match Pipeline.run_sql p ~session sql with o -> Some o.Pipeline.out_count | exception Sql_error.Error _ -> None in
        total := !total +. (Metrics.now () -. t);
        r)
  in
  (!total, counts)

(* --- per-layer metrics ---------------------------------------------------- *)

let run ~exe (s : stream) ~seconds =
  let n = size s.kind ~seconds in
  let wire = E2e.run ~exe ~reps:1 s ~more:(fun pos _ -> pos < n) in
  let feed, feed_failures = feed_phase s n in
  let t = traced_phase s n in
  let untraced_s, untraced_counts = untraced_phase s n in
  let spans = Spans.spans t.tr in
  let self = Spans.self_times spans in
  (try Unix.mkdir (Filename.concat "perfbench" "out") 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Spans.write
    (Filename.concat "perfbench"
       (Printf.sprintf "out/trace-%s-%d.tsv" (name s.kind) s.seed))
    spans self;
  let names = Spans.by_name spans self in
  let calls name = match Hashtbl.find_opt names name with Some (k, _) -> k | None -> 0 in
  let self_s name = match Hashtbl.find_opt names name with Some (_, x) -> x | None -> 0. in
  let mean_per_call scale name = if calls name = 0 then 0. else self_s name /. float_of_int (calls name) *. scale in
  let total =
    Array.fold_left (fun acc (sp : Spans.span) -> if sp.Spans.parent < 0 then acc +. (sp.Spans.t1 -. sp.Spans.t0) else acc) 0. spans
  in
  let share names = 100. *. List.fold_left (fun acc nm -> acc +. self_s nm) 0. names /. total in
  let translate = [ "lexer"; "parser"; "plan_cache"; "binder"; "transformer"; "serializer" ] in
  let convert = [ "odbc.tdf_pack"; "result_converter" ] in
  (* per TPC-H query: mean batch execute time *)
  let per_query = Hashtbl.create 32 in
  Array.iteri
    (fun i (sp : Spans.span) ->
      if sp.Spans.name = "batch_exec" && s.kind = Tpch_olap then begin
        let q = s.label sp.Spans.stmt in
        let k, x = Option.value ~default:(0, 0.) (Hashtbl.find_opt per_query q) in
        Hashtbl.replace per_query q (k + 1, x +. self.(i))
      end)
    spans;
  let by_pos = Hashtbl.create 1024 in
  List.iter (fun (r : E2e.record) -> Hashtbl.replace by_pos r.E2e.pos r.E2e.lat_s) wire.E2e.records;
  let wire_minus_feed =
    Array.of_list
      (List.filter_map
         (fun pos -> Option.map (fun rtt -> (rtt -. feed.(pos)) *. 1e6) (Hashtbl.find_opt by_pos pos))
         (List.init n Fun.id))
  in
  let counter name = float_of_int (try List.assoc name t.batch with Not_found -> 0) in
  let morsel name = try List.assoc name t.morsel with Not_found -> 0. in
  let disagreements =
    let d = ref 0 in
    Array.iteri (fun i c -> if c <> untraced_counts.(i) then incr d) t.counts_by_pos;
    !d
  in
  let m = Metrics.m in
  let metrics =
    [
      m "net.wire_us_p50" "us" (Metrics.median wire_minus_feed);
      m "gateway.feed_us_p50" "us" (Metrics.median (Array.map (fun x -> x *. 1e6) feed));
      m "lexer.self_us" "us" (mean_per_call 1e6 "lexer");
      m "parser.self_us" "us" (mean_per_call 1e6 "parser");
      m "binder.self_us" "us" (mean_per_call 1e6 "binder");
      m "transformer.self_us" "us" (mean_per_call 1e6 "transformer");
      m "serializer.self_us" "us" (mean_per_call 1e6 "serializer");
      m "transformer.rules_fired" "count" (float_of_int t.c.rules_fired);
      m "plan_cache.hit_ratio" "ratio" (float_of_int t.c.hits /. float_of_int (max 1 t.c.lookups));
      m "plan_cache.invalidations" "count" (float_of_int t.invalidations);
      m "emulation.self_ms" "ms" (mean_per_call 1e3 "emulation");
      m "emulation.stmts" "count" (float_of_int t.c.emu_stmts);
      m "emulation.backend_requests" "count" (float_of_int t.c.emu_requests);
      m "backend.parse_us" "us" (mean_per_call 1e6 "backend.parse");
      m "backend.bind_us" "us" (mean_per_call 1e6 "backend.bind");
      m "backend.optimize_us" "us" (mean_per_call 1e6 "backend.optimize");
    ]
    @ List.map
        (fun (q, _) ->
          let k, x = Option.value ~default:(0, 0.) (Hashtbl.find_opt per_query q) in
          m (Printf.sprintf "batch_exec.%s_ms" (String.lowercase_ascii q)) "ms"
            (if k = 0 then 0. else x /. float_of_int k *. 1e3))
        (Array.to_list Gen.tpch_queries)
    @ [
        m "batch_exec.scan_rows" "count" (counter "scan_rows");
        m "batch_exec.join_build_rows" "count" (counter "join_build_rows");
        m "batch_exec.join_probe_rows" "count" (counter "join_probe_rows");
        m "batch_exec.agg_groups" "count" (counter "agg_groups");
        m "batch_exec.fallback_ops" "count" (counter "fallback_ops");
        m "morsel.runs" "count" (morsel "parallel_runs");
        m "morsel.barrier_wait_ms" "ms" (morsel "barrier_wait_s" *. 1e3);
        m "executor.insert_values_ms" "ms" (mean_per_call 1e3 "executor.insert_values");
        m "executor.insert_select_ms" "ms" (mean_per_call 1e3 "executor.insert_select");
        m "executor.update_from_ms" "ms" (mean_per_call 1e3 "executor.update_from");
        m "executor.delete_ms" "ms" (mean_per_call 1e3 "executor.delete");
        m "storage.rows_written" "count" (float_of_int t.c.rows_written);
        m "tdf.bytes" "bytes" (float_of_int t.c.tdf_bytes);
        m "odbc.tdf_pack_ms" "ms" (mean_per_call 1e3 "odbc.tdf_pack");
        m "result_converter.self_ms" "ms" (mean_per_call 1e3 "result_converter");
        m "result_converter.records" "count" (float_of_int t.c.records);
        m "translate_share_pct" "%" (share translate);
        m "convert_share_pct" "%" (share convert);
        m "overhead_pct" "%" (share (translate @ convert));
        m "unattributed_pct" "%" (share [ "statement" ]);
        m "tracing_overhead_pct" "%" (100. *. (total -. untraced_s) /. untraced_s);
      ]
  in
  let failed =
    min n (wire.E2e.failed + feed_failures + disagreements)
  in
  Printf.printf
    "traced %d statements: traced total %.3f s, untraced total %.3f s; %d feed failures, %d traced/untraced disagreements\n"
    n total untraced_s feed_failures disagreements;
  (n, failed, metrics)
