(* The hyperq command-line driver: an interactive (or scripted) Teradata
   session against the virtualized backend — the closest offline analogue to
   pointing bteq at Hyper-Q (paper §7.2).

   Usage:
     hyperq repl                          interactive session
     hyperq run -e "SEL ..."              one statement
     hyperq script FILE.sql               run a ;-separated script
     hyperq translate --target nimbus -e "SEL ..."   print target SQL only
     hyperq analyze FILE.sql [--json]     offline compatibility report
     hyperq targets                       list modeled target profiles
     hyperq serve -p 10250                WP-A TCP front door (SIGTERM drains)
     hyperq rules load PACK.rules         screen + install a rewrite-rule pack
     hyperq tpch --sf 0.005               load TPC-H and drop into the repl *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Capability = Hyperq_transform.Capability
module Obs = Hyperq_obs.Obs
module Analyzer = Hyperq_analyze.Analyzer
module Diag = Hyperq_analyze.Diag
module Rules_dsl = Hyperq_rules.Dsl
module Rules_compile = Hyperq_rules.Compile
module Registry = Hyperq_rules.Registry
module Rules_corpus = Hyperq_workload.Rules_corpus

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* ---- rewrite-rule packs --------------------------------------------- *)

let print_rule_diags out file ds =
  List.iter (fun d -> Printf.fprintf out "%s: %s\n%!" file (Diag.to_string d)) ds

let print_pack_report file (r : Pipeline.rules_report) =
  let p = r.Pipeline.rr_pack in
  Printf.printf
    "loaded %s v%d from %s: %d rule(s), screened %d statement(s) (%d \
     skipped, %d fire(s)), %d differential quer%s%s%s\n"
    p.Registry.pi_name p.Registry.pi_version file
    (List.length p.Registry.pi_rules)
    r.Pipeline.rr_screened r.Pipeline.rr_skipped r.Pipeline.rr_screen_fires
    r.Pipeline.rr_diff_queries
    (if r.Pipeline.rr_diff_queries = 1 then "y" else "ies")
    (if r.Pipeline.rr_diff_nondet_skipped = 0 then ""
     else
       Printf.sprintf " (%d nondeterministic skipped)"
         r.Pipeline.rr_diff_nondet_skipped)
    (if r.Pipeline.rr_activated then "" else " (not activated)");
  List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d)) r.Pipeline.rr_warnings

(* Screen + install each pack file; any rejection exits 1 (CLI contract:
   a pack that fails the validator or differential gate never activates). *)
let load_rule_files ?diff pipeline files =
  List.iter
    (fun file ->
      match Rules_corpus.load_pack ?diff pipeline (read_file file) with
      | Ok r -> print_pack_report file r
      | Error ds ->
          print_rule_diags stderr file ds;
          exit 1)
    files

let print_loaded_packs pipeline =
  let packs = Registry.list_packs (Pipeline.rules_registry pipeline) in
  if packs = [] then print_endline "no rule packs loaded"
  else
    List.iter
      (fun (pi : Registry.pack_info) ->
        Printf.printf "%s v%d (gen %d, screened over %d statements for %s)%s\n"
          pi.Registry.pi_name pi.Registry.pi_version pi.Registry.pi_gen
          pi.Registry.pi_screened pi.Registry.pi_cap
          (if List.mem pi.Registry.pi_name (Pipeline.default_rule_packs pipeline)
           then " [active]"
           else "");
        List.iter
          (fun (r : Registry.rule_info) ->
            Printf.printf "  %-28s %d fire(s)\n" r.Registry.ri_id r.Registry.ri_fires)
          pi.Registry.pi_rules)
      packs

let analyze_file ?targets file =
  Analyzer.analyze_script ?targets ~script_name:file (read_file file)

let render_outcome ?(verbose = false) (o : Pipeline.outcome) =
  if o.Pipeline.out_schema <> [] then begin
    let widths =
      List.map
        (fun (name, _) -> max 8 (String.length name))
        o.Pipeline.out_schema
    in
    let header =
      String.concat " | "
        (List.map2
           (fun (name, _) w -> Printf.sprintf "%-*s" w name)
           o.Pipeline.out_schema widths)
    in
    print_endline header;
    print_endline (String.make (String.length header) '-');
    List.iter
      (fun (row : Value.t array) ->
        print_endline
          (String.concat " | "
             (List.map2
                (fun w v -> Printf.sprintf "%-*s" w (Value.to_string v))
                widths (Array.to_list row))))
      o.Pipeline.out_rows
  end;
  Printf.printf "-- %s: %d row(s)" o.Pipeline.out_activity o.Pipeline.out_count;
  if verbose then begin
    let t = o.Pipeline.out_timings in
    Printf.printf "  [translate %.2f ms, execute %.2f ms, convert %.2f ms]"
      (t.Pipeline.translate_s *. 1000.)
      (t.Pipeline.execute_s *. 1000.)
      (t.Pipeline.convert_s *. 1000.);
    if o.Pipeline.out_sql <> [] then
      Printf.printf "\n-- sent to backend: %s" (String.concat " ;; " o.Pipeline.out_sql)
  end;
  print_newline ();
  List.iter (Printf.printf "-- emulation: %s\n") o.Pipeline.out_emulation_trace

let exec_one pipeline session verbose sql =
  match
    Sql_error.protect (fun () -> Pipeline.run_sql pipeline ~session sql)
  with
  | Ok o -> render_outcome ~verbose o
  | Error e -> Printf.printf "!! %s\n" (Sql_error.to_string e)

let repl pipeline verbose =
  let session = Session.create () in
  Printf.printf
    "hyperq interactive session #%d — Teradata dialect in, statements end with ;\n"
    session.Session.session_id;
  print_endline
    "type \\q to quit, \\timing to toggle timing output, \\cache for plan-cache \
     stats, \\health for breaker/retry counters, \\metrics for Prometheus \
     exposition, \\trace [n] for recent query traces, \\slow [ms] for the \
     slow-query log/threshold, \\analyze FILE.sql for an offline \
     compatibility report, \\rules [load FILE | drop NAME] for rewrite-rule \
     packs";
  let timing = ref verbose in
  let buffer = Buffer.create 256 in
  let obs = Pipeline.obs pipeline in
  let print_traces traces =
    if traces = [] then print_endline "no traces recorded"
    else List.iter (fun qt -> print_string (Obs.trace_to_string qt)) traces
  in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "hyperq> " else "   ...> ");
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" -> ()
    | "\\timing" ->
        timing := not !timing;
        Printf.printf "timing %s\n" (if !timing then "on" else "off");
        loop ()
    | "\\cache" ->
        print_endline
          (Hyperq_core.Plan_cache.stats_to_string (Pipeline.cache_stats pipeline));
        loop ()
    | "\\health" ->
        print_endline (Pipeline.health_to_string pipeline);
        loop ()
    | "\\metrics" ->
        print_string (Obs.render_prometheus obs);
        loop ()
    | line when line = "\\trace" || String.length line > 7
                                    && String.sub line 0 7 = "\\trace " ->
        let n =
          if line = "\\trace" then 5
          else
            match int_of_string_opt (String.trim (String.sub line 7 (String.length line - 7))) with
            | Some n when n > 0 -> n
            | _ -> 5
        in
        print_traces (Obs.recent_traces ~n obs);
        loop ()
    | line when line = "\\rules" || String.length line > 7
                                    && String.sub line 0 7 = "\\rules " ->
        (match
           List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
         with
        | [ "\\rules" ] -> print_loaded_packs pipeline
        | [ "\\rules"; "load"; file ] ->
            if not (Sys.file_exists file) then Printf.printf "no such file: %s\n" file
            else (
              match Rules_corpus.load_pack pipeline (read_file file) with
              | Ok r -> print_pack_report file r
              | Error ds ->
                  List.iter
                    (fun d -> Printf.printf "!! %s\n" (Diag.to_string d))
                    ds)
        | [ "\\rules"; "drop"; name ] ->
            if Pipeline.drop_rule_pack pipeline name then
              Printf.printf "dropped %s\n" name
            else Printf.printf "pack %s is not loaded\n" name
        | _ -> print_endline "usage: \\rules | \\rules load FILE | \\rules drop NAME");
        loop ()
    | line when String.length line > 9 && String.sub line 0 9 = "\\analyze " ->
        let file = String.trim (String.sub line 9 (String.length line - 9)) in
        (if not (Sys.file_exists file) then
           Printf.printf "no such file: %s\n" file
         else
           match Sql_error.protect (fun () -> analyze_file file) with
           | Ok rep -> print_string (Analyzer.render_text rep)
           | Error e -> Printf.printf "!! %s\n" (Sql_error.to_string e));
        loop ()
    | line when line = "\\slow" || String.length line > 6
                                   && String.sub line 0 6 = "\\slow " ->
        (if line <> "\\slow" then
           match
             float_of_string_opt
               (String.trim (String.sub line 6 (String.length line - 6)))
           with
           | Some ms when ms >= 0. ->
               Obs.set_slow_threshold obs (ms /. 1000.);
               Printf.printf "slow-query threshold set to %g ms\n" ms
           | _ -> print_endline "usage: \\slow [threshold-ms]");
        Printf.printf "slow-query threshold: %g ms\n"
          (Obs.slow_threshold obs *. 1000.);
        print_traces (Obs.slow_queries obs);
        loop ()
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' then begin
          Buffer.clear buffer;
          List.iter
            (fun stmt ->
              let stmt = String.trim stmt in
              if stmt <> "" then exec_one pipeline session !timing stmt)
            (String.split_on_char ';' text)
        end;
        loop ()
  in
  loop ();
  Pipeline.end_session pipeline session

open Cmdliner

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print timings and backend SQL.")

let sql_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "execute" ] ~docv:"SQL" ~doc:"Statement to run.")

let target_arg =
  Arg.(
    value
    & opt string "ansi-engine"
    & info [ "t"; "target" ] ~docv:"TARGET" ~doc:"Target profile name.")

let rules_files_arg =
  Arg.(
    value & opt_all file []
    & info [ "rules" ] ~docv:"FILE.rules"
        ~doc:"Rewrite-rule pack to screen against the bundled corpus and \
              activate before starting (repeatable; a rejected pack aborts \
              with exit 1).")

let repl_cmd =
  let run verbose rules =
    let pipeline = Pipeline.create () in
    load_rule_files pipeline rules;
    repl pipeline verbose
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive Teradata session against the engine")
    Term.(const run $ verbose_arg $ rules_files_arg)

let run_cmd =
  let run verbose rules sql =
    let pipeline = Pipeline.create () in
    load_rule_files pipeline rules;
    exec_one pipeline (Session.create ()) verbose sql
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one statement")
    Term.(const run $ verbose_arg $ rules_files_arg $ sql_arg)

let script_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.sql")
  in
  let run verbose rules file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    let pipeline = Pipeline.create () in
    load_rule_files pipeline rules;
    let session = Session.create () in
    (match
       Sql_error.protect (fun () ->
           Hyperq_sqlparser.Parser.parse_many_spanned
             ~dialect:Hyperq_sqlparser.Dialect.Teradata text)
     with
    | Error e -> Printf.printf "!! %s\n" (Sql_error.to_string e)
    | Ok spanned ->
        List.iter
          (fun (ast, stmt_text) ->
            match
              Sql_error.protect (fun () ->
                  Pipeline.run_statement_ast pipeline ~session
                    ~sql_text:stmt_text ast)
            with
            | Ok o -> render_outcome ~verbose o
            | Error e -> Printf.printf "!! %s\n" (Sql_error.to_string e))
          spanned);
    if verbose then
      Printf.printf "-- plan cache: %s\n"
        (Hyperq_core.Plan_cache.stats_to_string (Pipeline.cache_stats pipeline));
    Pipeline.end_session pipeline session
  in
  Cmd.v (Cmd.info "script" ~doc:"Run a ;-separated SQL script file")
    Term.(const run $ verbose_arg $ rules_files_arg $ file_arg)

let translate_cmd =
  let ddl_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "ddl" ] ~docv:"FILE.sql"
          ~doc:"Schema script run through the pipeline before translating.")
  in
  let run target ddl sql =
    match Capability.find target with
    | None ->
        Printf.eprintf "unknown target %s; try: %s\n" target
          (String.concat ", "
             (List.map (fun c -> c.Capability.name) Capability.all_targets));
        exit 1
    | Some cap -> (
        let pipeline = Pipeline.create () in
        (match ddl with
        | None -> ()
        | Some file -> (
            let ic = open_in file in
            let n = in_channel_length ic in
            let text = really_input_string ic n in
            close_in ic;
            match
              Sql_error.protect (fun () ->
                  ignore (Pipeline.run_script pipeline text))
            with
            | Ok () -> ()
            | Error e ->
                Printf.eprintf "!! schema script failed: %s\n"
                  (Sql_error.to_string e);
                exit 1));
        match
          Sql_error.protect (fun () -> Pipeline.translate pipeline ~cap sql)
        with
        | Ok out -> print_endline out
        | Error e -> Printf.printf "!! %s\n" (Sql_error.to_string e))
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Translate a Teradata statement for a target (no execution). Use \
             --ddl to prime the catalog with a schema script first.")
    Term.(const run $ target_arg $ ddl_arg $ sql_arg)

let analyze_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.sql")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")
  in
  let props_arg =
    Arg.(
      value & flag
      & info [ "props" ]
          ~doc:
            "Emit the statically inferred plan properties (per-column \
             nullability, value intervals, determinism, candidate keys, \
             cardinality bounds, contradictory filters) as JSON instead of \
             the compatibility report.")
  in
  let targets_arg =
    Arg.(
      value & opt_all string []
      & info [ "t"; "target" ] ~docv:"TARGET"
          ~doc:"Target profile(s) to assess (repeatable; default: all).")
  in
  let run json props target_names file =
    let targets =
      match target_names with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun name ->
                 match Capability.find name with
                 | Some cap -> cap
                 | None ->
                     Printf.eprintf "unknown target %s; try: %s\n" name
                       (String.concat ", "
                          (List.map
                             (fun c -> c.Capability.name)
                             Capability.all_targets));
                     exit 1)
               names)
    in
    if props then
      match
        Sql_error.protect (fun () ->
            Analyzer.props_json ~script_name:file (read_file file))
      with
      | Error e ->
          Printf.eprintf "!! %s\n" (Sql_error.to_string e);
          exit 1
      | Ok s -> print_string s
    else
      match Sql_error.protect (fun () -> analyze_file ?targets file) with
      | Error e ->
          Printf.eprintf "!! %s\n" (Sql_error.to_string e);
          exit 1
      | Ok rep ->
          print_string
            (if json then Analyzer.render_json rep
             else Analyzer.render_text rep);
          if Analyzer.has_errors rep then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Offline workload compatibility analysis: classify every \
             statement of a SQL script (direct / rewrite / emulate / \
             unsupported) per target, with lint and plan-validator \
             diagnostics — no execution. Exits 1 if any statement fails to \
             parse, bind, or validate. With --props, emit the statically \
             inferred plan properties instead.")
    Term.(const run $ json_arg $ props_arg $ targets_arg $ file_arg)

let targets_cmd =
  let run () =
    List.iter
      (fun c -> Printf.printf "%s\n" c.Capability.name)
      Capability.all_targets
  in
  Cmd.v (Cmd.info "targets" ~doc:"List modeled target profiles") Term.(const run $ const ())

(* OCaml 5.1 never compacts, so the major heap only grows: at the default
   space_overhead (120) a server holding bulk data settles at ~3.5x its live
   set, and peak RSS keeps climbing with the statements served rather than
   with the data held. Once the major heap, read at the end of a major cycle,
   passes [large_heap_bytes], the server collects at 80 instead, which keeps
   the heap near the live set. This holds however the data arrived: --tpch,
   or DDL and INSERT over the wire. A server holding no bulk data stays well
   below the mark (~19 MiB RSS replaying the customer BI workloads) and keeps
   the default, since there the extra collection work only costs
   throughput. The alarm is installed once the server is about to serve:
   a bulk load at start-up then runs at the default pace, and the first
   major cycle after it sees the heap it left. *)
let large_heap_bytes = 64 * 1024 * 1024

let tighten_gc_once_heap_is_large () =
  let alarm = ref None in
  alarm :=
    Some
      (Gc.create_alarm (fun () ->
           let heap = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) in
           if heap > large_heap_bytes then begin
             Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
             Option.iter Gc.delete_alarm !alarm
           end))

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 10250 & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Address to bind.")
  in
  let inflight_arg =
    Arg.(value & opt int 32 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Statements executing concurrently; excess queues, then sheds.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Statements waiting for an execution slot.")
  in
  let queue_timeout_arg =
    Arg.(value & opt float 2.0 & info [ "queue-timeout" ] ~docv:"SECONDS"
           ~doc:"Longest a statement may wait for a slot before being shed.")
  in
  let workers_arg =
    Arg.(value & opt int 64 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker threads (= concurrently served connections).")
  in
  let drain_timeout_arg =
    Arg.(value & opt float 30. & info [ "drain-timeout" ] ~docv:"SECONDS"
           ~doc:"On SIGTERM/SIGINT: how long to wait for inflight statements.")
  in
  let latency_arg =
    Arg.(value & opt float 0. & info [ "backend-latency" ] ~docv:"SECONDS"
           ~doc:"Simulated backend round trip per request (load testing).")
  in
  let sf_arg =
    Arg.(value & opt (some float) None & info [ "tpch" ] ~docv:"SF"
           ~doc:"Load TPC-H at this scale factor before serving.")
  in
  let run port host inflight queue queue_timeout workers drain_timeout latency
      sf rules =
    let module Server = Hyperq_net.Server in
    let module Admission = Hyperq_net.Admission in
    let pipeline = Pipeline.create ~request_latency_s:latency () in
    load_rule_files pipeline rules;
    (match sf with
    | None -> ()
    | Some sf ->
        Printf.printf "loading TPC-H at SF %.3f...\n%!" sf;
        ignore (Hyperq_workload.Tpch.setup ~sf pipeline));
    tighten_gc_once_heap_is_large ();
    let server =
      Server.start
        ~config:
          {
            Server.default_config with
            host;
            port;
            workers;
            admission =
              {
                Admission.default_config with
                max_inflight = inflight;
                max_queue = queue;
                queue_timeout_s = queue_timeout;
              };
          }
        (Hyperq_core.Gateway.create pipeline)
    in
    Printf.printf
      "hyperq front door listening on %s:%d (workers=%d, max-inflight=%d, \
       queue=%d)\n%!"
      host (Server.port server) workers inflight queue;
    (* SIGTERM/SIGINT start the drain: stop accepting, shed queued work with
       wire code 3897, finish and answer every admitted statement *)
    let quit = Mutex.create () in
    let quit_cond = Condition.create () in
    let signalled = ref false in
    let on_signal _ =
      Mutex.lock quit;
      signalled := true;
      Condition.signal quit_cond;
      Mutex.unlock quit
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Mutex.lock quit;
    while not !signalled do
      Condition.wait quit_cond quit
    done;
    Mutex.unlock quit;
    Printf.printf "drain: waiting up to %gs for inflight statements...\n%!"
      drain_timeout;
    let dr = Server.shutdown ~drain:true ~timeout_s:drain_timeout server in
    let st = Server.stats server in
    Printf.printf
      "drained=%b inflight_at_signal=%d statements=%d connections=%d \
       shed=%d protocol_errors=%d\n%!"
      dr.Server.dr_drained dr.Server.dr_inflight_at_signal
      dr.Server.dr_completed st.Server.sv_connections
      (Admission.shed_total st.Server.sv_admission)
      st.Server.sv_protocol_errors;
    if not dr.Server.dr_drained then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the WP-A TCP front door: real sockets, admission control, \
             overload shedding with Teradata wire codes, SIGTERM drain.")
    Term.(
      const run $ port_arg $ host_arg $ inflight_arg $ queue_arg
      $ queue_timeout_arg $ workers_arg $ drain_timeout_arg $ latency_arg
      $ sf_arg $ rules_files_arg)

let rules_cmd =
  let no_diff_arg =
    Arg.(
      value & flag
      & info [ "no-diff" ]
          ~doc:"Skip the differential-execution phase (parser, compiler and \
                corpus screening still gate the pack).")
  in
  let load_cmd =
    let files_arg =
      Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.rules")
    in
    let run no_diff files =
      let pipeline = Pipeline.create () in
      load_rule_files ~diff:(not no_diff) pipeline files;
      Printf.printf "%d pack(s) active: %s\n"
        (List.length (Pipeline.default_rule_packs pipeline))
        (String.concat ", " (Pipeline.default_rule_packs pipeline))
    in
    Cmd.v
      (Cmd.info "load"
         ~doc:"Screen pack file(s) against the bundled analyzer corpus plus \
               a differential execution sample, and install the survivors. \
               Any validator violation or result mismatch prints a spanned \
               diagnostic and exits 1.")
      Term.(const run $ no_diff_arg $ files_arg)
  in
  let list_cmd =
    let files_arg =
      Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.rules")
    in
    let run files =
      let ok = ref true in
      List.iter
        (fun file ->
          let compiled =
            match Rules_dsl.parse (read_file file) with
            | Error ds -> Error ds
            | Ok p -> Rules_compile.compile p
          in
          match compiled with
          | Error ds ->
              ok := false;
              print_rule_diags stderr file ds
          | Ok cp ->
              Printf.printf "%s v%d (%s): %d rule(s)\n"
                cp.Rules_compile.cp_name cp.Rules_compile.cp_version file
                (List.length cp.Rules_compile.cp_rules);
              List.iter
                (fun (r : Rules_compile.crule) ->
                  Printf.printf "  %-28s %s\n" r.Rules_compile.cr_id
                    (if r.Rules_compile.cr_rel <> None then "relational"
                     else "scalar"))
                cp.Rules_compile.cp_rules)
        files;
      if not !ok then exit 1
    in
    Cmd.v
      (Cmd.info "list"
         ~doc:"Parse and statically check pack file(s) without screening: \
               print each pack's rules, or the rejection diagnostics \
               (exit 1).")
      Term.(const run $ files_arg)
  in
  let drop_cmd =
    let name_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"PACK")
    in
    let files_arg =
      Arg.(value & pos_right 0 file [] & info [] ~docv:"FILE.rules")
    in
    let run name files =
      let pipeline = Pipeline.create () in
      load_rule_files pipeline files;
      if Pipeline.drop_rule_pack pipeline name then begin
        let reg = Pipeline.rules_registry pipeline in
        Printf.printf "dropped %s; %d pack(s) remain (registry epoch %d)\n"
          name
          (List.length (Registry.list_packs reg))
          (Registry.epoch reg)
      end
      else begin
        Printf.eprintf "pack %s is not loaded\n" name;
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "drop"
         ~doc:"Load the given pack file(s), then drop PACK by name — \
               demonstrates deactivation and the registry epoch bump that \
               invalidates cached plans. Exits 1 if PACK was not loaded.")
      Term.(const run $ name_arg $ files_arg)
  in
  Cmd.group
    (Cmd.info "rules"
       ~doc:"Manage runtime-loadable rewrite-rule packs: validator-gated \
             load, static listing, drop.")
    [ load_cmd; list_cmd; drop_cmd ]

let tpch_cmd =
  let sf_arg =
    Arg.(value & opt float 0.005 & info [ "sf" ] ~docv:"SF" ~doc:"Scale factor.")
  in
  let run verbose rules sf =
    let pipeline = Pipeline.create () in
    load_rule_files pipeline rules;
    Printf.printf "loading TPC-H at SF %.3f...\n%!" sf;
    let _ = Hyperq_workload.Tpch.setup ~sf pipeline in
    List.iter
      (fun (n, c) -> Printf.printf "  %-9s %7d rows\n" n c)
      (Hyperq_workload.Tpch.row_counts pipeline);
    repl pipeline verbose
  in
  Cmd.v (Cmd.info "tpch" ~doc:"Load TPC-H through Hyper-Q and start a repl")
    Term.(const run $ verbose_arg $ rules_files_arg $ sf_arg)

let () =
  let doc = "Adaptive Data Virtualization: Teradata applications on a different backend" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "hyperq" ~version:"1.0.0" ~doc)
          [
            repl_cmd; run_cmd; script_cmd; translate_cmd; analyze_cmd;
            targets_cmd; serve_cmd; rules_cmd; tpch_cmd;
          ]))
