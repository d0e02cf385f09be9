(* The server under test: the shipped [hyperq serve] front door, run as a
   child process with shipped defaults (1 execution domain, plan cache of
   512, telemetry on; run.py clears the HYPERQ_* environment). Every child
   is stopped and reaped before exit. *)

type t = { pid : int; ic : in_channel; port : int }

(* What [hyperq serve] prints after its SIGTERM drain. *)
type stats = { statements : int; shed : int; protocol_errors : int }

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start ~exe ~tpch =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "serve"; "-p"; "0" ]
    @ if tpch then [ "--tpch"; Printf.sprintf "%g" Gen.tpch_sf ] else []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let ic = Unix.in_channel_of_descr r in
  let rec wait_port () =
    match input_line ic with
    | line -> (
        match
          Scanf.sscanf_opt line "hyperq front door listening on %_s@:%d" Fun.id
        with
        | Some port -> port
        | None -> wait_port ())
    | exception End_of_file -> failwith "server exited before listening"
  in
  { pid; ic; port = wait_port () }

(* Peak resident set of the server process so far, in MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* SIGTERM drain, then reap; returns the server's own counters ([None]
   when it was stopped before its signal handler was installed). *)
let stop t =
  Unix.kill t.pid Sys.sigterm;
  let stats = ref None in
  (try
     while true do
       let line = input_line t.ic in
       match
         Scanf.sscanf_opt line
           "drained=%_s inflight_at_signal=%_d statements=%d connections=%_d \
            shed=%d protocol_errors=%d"
           (fun statements shed protocol_errors -> { statements; shed; protocol_errors })
       with
       | Some s -> stats := Some s
       | None -> ()
     done
   with End_of_file -> ());
  close_in t.ic;
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live;
  !stats
