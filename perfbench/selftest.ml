(* Self-tests of the benchmark's own arithmetic and oracle. *)

module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let close a b = Float.abs (a -. b) < 1e-9

let span id parent name t0 t1 = { Spans.id; parent; stmt = 0; name; t0; t1 }

(* Self time subtracts the union of the children, so nested or
   overlapping children are never subtracted twice, and nested spans of one
   name never add up to more than their root. *)
let self_time_arithmetic () =
  let spans =
    [|
      span 0 (-1) "statement" 0. 10.;
      span 1 0 "a" 1. 4.;
      span 2 0 "b" 3. 6.;  (* overlaps a *)
      span 3 1 "c" 2. 3.;  (* nested in a *)
      span 4 0 "d" 8. 12.;  (* runs past its parent's end *)
    |]
  in
  let self = Spans.self_times spans in
  check "root self time counts overlapping children once" (close self.(0) 3.);
  check "child self time excludes its own child" (close self.(1) 2.);
  check "leaf self time is its duration" (close self.(2) 3. && close self.(3) 1.);
  check "interval union" (close (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.); (2., 3.) ]) 5.);
  let nested =
    [|
      span 0 (-1) "statement" 0. 10.;
      span 1 0 "project" 0. 10.;
      span 2 1 "project" 1. 9.;
      span 3 2 "project" 2. 8.;
    |]
  in
  let self = Spans.self_times nested in
  let _, project = Hashtbl.find (Spans.by_name nested self) "project" in
  check "nested same-name spans do not exceed their root" (close project 10.)

(* Answers from an in-process batch pipeline (as the server runs it). *)
let batch_answers p session sqls =
  List.map (fun sql -> Oracle.of_outcome (Pipeline.run_sql p ~session sql)) sqls

let corrupt (a : Oracle.answer) = { a with Oracle.count = a.Oracle.count + 1; digest = a.Oracle.digest ^ "x" }

let oracle_catches_corruption () =
  (* tpch: stored digests accept the real answers, reject a corrupted one *)
  let p = Pipeline.create () in
  ignore (Hyperq_workload.Tpch.setup ~sf:Gen.tpch_sf p);
  let session = Session.create () in
  let expected = Oracle.tpch_expected () in
  let q06 = snd Gen.tpch_queries.(5) in
  let a = List.hd (batch_answers p session [ q06 ]) in
  check "tpch: real answer matches its reference digest" (Oracle.tpch_check expected "Q06" a);
  let rows, d = Hashtbl.find expected "Q06" in
  Hashtbl.replace expected "Q06" (rows, String.map (fun c -> if c = '0' then '1' else '0') d);
  check "tpch: corrupted reference digest is caught" (not (Oracle.tpch_check expected "Q06" a));
  (* etl: one cycle against the row-interpreter replay *)
  let cycle = batch_answers p session (Gen.etl_cycle ~seed:5 0) in
  let arr = Array.of_list cycle in
  check "etl: real cycle matches the reference" (Oracle.etl_mismatches ~seed:5 [ arr ] = 0);
  let bad = Array.copy arr in
  let last_read = Array.length bad - 2 in
  bad.(last_read) <- corrupt bad.(last_read);
  check "etl: corrupted table digest is caught" (Oracle.etl_mismatches ~seed:5 [ bad ] = 1);
  (* bi: multiset of outcomes over a stream prefix *)
  let stream = Gen.bi_stream ~seed:5 in
  let p = Pipeline.create () in
  List.iter (fun sql -> ignore (Pipeline.run_sql p ~session sql)) (Gen.bi_setup ~seed:5);
  let executed =
    List.init 300 (fun i ->
        let idx = stream.Gen.order.(i) in
        (idx, List.hd (batch_answers p session [ stream.Gen.distinct.(idx) ])))
  in
  let executed = List.map (fun (i, a) -> (i, { a with Oracle.digest = "" })) executed in
  check "bi: interleaved outcomes match as a multiset" (Oracle.bi_mismatches ~seed:5 stream (List.rev executed) = 0);
  let bad = match executed with (i, a) :: tl -> (i, corrupt a) :: tl | [] -> [] in
  check "bi: corrupted activity count is caught" (Oracle.bi_mismatches ~seed:5 stream bad = 1)

let tail_rule () =
  let sorted = Array.init 1000 float_of_int in
  let p, v = Metrics.tail sorted in
  let beyond = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 sorted in
  check "tail: p99 of 1000 samples, 10 beyond it" (close p 99. && beyond = 10);
  let p, _ = Metrics.tail (Array.init 15 float_of_int) in
  check "tail: fewer than 20 samples fall back to p50" (p = 50.)

let run () =
  self_time_arithmetic ();
  tail_rule ();
  oracle_catches_corruption ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
