(* In-memory spans recorded around the benchmark's own calls into each
   layer's public functions, and their self-time arithmetic. *)

type span = {
  id : int;
  parent : int;  (** -1 for a statement's root span *)
  stmt : int;  (** statement id: position in the replayed stream *)
  name : string;
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable stmt : int;
}

let create () = { spans = [||]; len = 0; stack = []; stmt = -1 }

let push t sp =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) sp in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- sp;
  t.len <- t.len + 1

(* Record [f ()] as a span named [name], child of the innermost open span. *)
let with_ t name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let sp = { id = t.len; parent; stmt = t.stmt; name; t0 = Metrics.now (); t1 = nan } in
  push t sp;
  t.stack <- sp.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      sp.t1 <- Metrics.now ();
      t.stack <- List.tl t.stack)
    f

let spans t = Array.sub t.spans 0 t.len

(* Length of the union of [intervals], each clipped to [lo, hi]: overlapping
   or nested children are covered once, never twice. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   direct children cover. *)
let self_times (spans : span array) =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- (s.t0, s.t1) :: children.(s.parent))
    spans;
  Array.map
    (fun s -> s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 children.(s.id))
    spans

(* Per span name: (calls, summed self time in seconds). *)
let by_name spans self =
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let n, x = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, x +. self.(i)))
    spans;
  tbl

let write path spans self =
  let oc = open_out path in
  output_string oc "id\tparent\tstmt\tname\tstart_us\tdur_us\tself_us\n";
  let base = if Array.length spans > 0 then spans.(0).t0 else 0. in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\n" s.id s.parent s.stmt
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        (self.(i) *. 1e6))
    spans;
  close_out oc
