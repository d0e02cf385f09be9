(* Order statistics and the result line. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Linear-interpolated percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p /. 100. *. float_of_int (n - 1) in
    let i = truncate x in
    let j = min (n - 1) (i + 1) in
    sorted.(i) +. ((x -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = percentile (sorted_copy a) 50.

(* The tail percentile: the highest one that leaves at least ten samples
   beyond it, 100 * (1 - 10/n) (p50 when there are fewer than 20). *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  let p = Float.max 50. (100. *. (1. -. (10. /. n))) in
  (p, percentile sorted p)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A metric with no samples (every statement failed) prints as 0; the
   result then also reads "correct": false. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
