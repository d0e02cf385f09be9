(* Benchmark runner. Usage:
     hqbench.exe run --server EXE --workload W --seed N --seconds S --trace 0|1
                     [--min-rounds K]   (whole rounds a timed run completes)
     hqbench.exe oracle      regenerate the TPC-H reference digests
     hqbench.exe selftest    check span arithmetic, the tail rule and the oracle
   Run from the repository root; perfbench/run.py builds and calls it. *)

let usage () =
  prerr_endline
    "usage: hqbench.exe run --server EXE --workload W --seed N --seconds S \
     --trace 0|1 [--min-rounds K] | oracle | selftest";
  exit 2

let arg args name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "oracle" :: _ -> Oracle.tpch_refresh ()
  | "selftest" :: _ -> Selftest.run ()
  | "run" :: args -> (
      let get name = match arg args name with Some v -> v | None -> usage () in
      let kind =
        match Workload.of_string (get "--workload") with
        | Some k -> k
        | None -> usage ()
      in
      let seed = int_of_string (get "--seed") in
      let seconds = float_of_string (get "--seconds") in
      let exe = get "--server" in
      let min_rounds =
        match arg args "--min-rounds" with
        | Some v -> int_of_string v
        | None -> Workload.min_rounds kind
      in
      let s = Workload.stream kind ~seed in
      match get "--trace" with
      | "0" ->
          let o =
            E2e.run ~exe ~reps:5 s ~more:(E2e.timed_more kind ~seconds ~min_rounds)
          in
          let attempted = List.length o.E2e.records in
          print_endline
            (Metrics.result_line ~correct:(o.E2e.failed = 0) ~attempted
               ~failed:o.E2e.failed (E2e.metrics o))
      | "1" ->
          let attempted, failed, metrics = Traced.run ~exe s ~seconds in
          print_endline
            (Metrics.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
      | _ -> usage ())
  | _ -> usage ()
