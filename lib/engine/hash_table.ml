(* Radix-partitioned open-addressing hash table for joins and aggregation.

   Entries (key rows) live in one global insertion-ordered store; the slot
   directory is split into 2^4 partitions selected by the high bits of the
   mixed hash, each an open-addressed array probed linearly. Every slot
   carries a one-byte tag derived from other hash bits (0 = empty, high bit
   always set when occupied), so a probe rejects almost all non-matching
   slots on a single byte compare before touching the entry store. Group
   keys are hashed once per row — not re-hashed as boxed lists on every
   bucket visit like the legacy row path.

   [null_equal] selects SQL grouping semantics (NULL keys coalesce, used by
   GROUP BY / DISTINCT / set operations). With [null_equal = false] the
   table is in join mode: NULL never equals NULL, and because callers must
   drop NULL keys before build/probe (a NULL join key can match nothing),
   the table asserts that no NULL key ever reaches it. *)

open Hyperq_sqlvalue

let radix_bits = 4
let num_parts = 1 lsl radix_bits

type part = {
  mutable tags : Bytes.t;
  mutable slots : int array;  (** global entry index per occupied slot *)
  mutable mask : int;
  mutable used : int;
}

type t = {
  parts : part array;
  mutable keys : Value.t array array;  (** entry store, insertion order *)
  mutable hashes : int array;  (** unmixed hash per entry *)
  mutable count : int;
  null_equal : bool;
}

let initial_part_slots = 16

let make_part () =
  {
    tags = Bytes.make initial_part_slots '\000';
    slots = Array.make initial_part_slots 0;
    mask = initial_part_slots - 1;
    used = 0;
  }

let create ~null_equal _size_hint =
  {
    parts = Array.init num_parts (fun _ -> make_part ());
    keys = Array.make 64 [||];
    hashes = Array.make 64 0;
    count = 0;
    null_equal;
  }

let count t = t.count
let entry_key t i = t.keys.(i)

(* Same per-value hash as the row path ([Value.hash] is compatible with
   [Value.equal_group]), folded over the key row. *)
let hash_key (key : Value.t array) =
  let h = ref 17 in
  for i = 0 to Array.length key - 1 do
    h := (!h * 31) + Value.hash key.(i)
  done;
  !h

(* Fibonacci-style finalizer: the fold above is weak in its high bits, and
   the directory consumes high bits for partition, tag, and low bits for the
   slot, so spread the entropy. The constant is the 60-bit prefix of
   2^64 / phi. *)
let mix h =
  let h = h * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let part_of t mixed = t.parts.((mixed lsr 55) land (num_parts - 1))
let tag_of mixed = Char.unsafe_chr (((mixed lsr 45) land 0x7f) lor 0x80)

let key_equal t (a : Value.t array) (b : Value.t array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    if i >= n then true
    else begin
      assert (t.null_equal || not (Value.is_null a.(i) || Value.is_null b.(i)));
      Value.equal_group a.(i) b.(i) && go (i + 1)
    end
  in
  go 0

(* Probe [p] for an entry equal to [key]; returns the matching slot or the
   first empty slot (linear probing never wraps past an empty slot because
   we keep load factor under 0.7). *)
let probe t p key h mixed tag =
  let rec go s =
    let c = Bytes.unsafe_get p.tags s in
    if c = '\000' then (s, -1)
    else if
      c = tag
      && (let e = p.slots.(s) in
          t.hashes.(e) = h && key_equal t t.keys.(e) key)
    then (s, p.slots.(s))
    else go ((s + 1) land p.mask)
  in
  go (mixed land p.mask)

let grow_part t p =
  let old_tags = p.tags and old_slots = p.slots in
  let cap = 2 * (p.mask + 1) in
  p.tags <- Bytes.make cap '\000';
  p.slots <- Array.make cap 0;
  p.mask <- cap - 1;
  for s = 0 to Bytes.length old_tags - 1 do
    let c = Bytes.unsafe_get old_tags s in
    if c <> '\000' then begin
      let e = old_slots.(s) in
      let mixed = mix t.hashes.(e) in
      (* find the first empty slot in the new directory *)
      let rec place s =
        if Bytes.unsafe_get p.tags s = '\000' then begin
          Bytes.unsafe_set p.tags s c;
          p.slots.(s) <- e
        end
        else place ((s + 1) land p.mask)
      in
      place (mixed land p.mask)
    end
  done

let ensure_entry_room t =
  if t.count >= Array.length t.keys then begin
    let cap = 2 * Array.length t.keys in
    let keys = Array.make cap [||] and hashes = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.count;
    Array.blit t.hashes 0 hashes 0 t.count;
    t.keys <- keys;
    t.hashes <- hashes
  end

(* Returns [(entry_index, inserted)]. The key array is retained by the table
   on insert — callers must not mutate it afterwards. *)
let find_or_insert t key h =
  let mixed = mix h in
  let p = part_of t mixed in
  let tag = tag_of mixed in
  let s, e = probe t p key h mixed tag in
  if e >= 0 then (e, false)
  else begin
    ensure_entry_room t;
    let e = t.count in
    t.keys.(e) <- key;
    t.hashes.(e) <- h;
    t.count <- e + 1;
    Bytes.unsafe_set p.tags s tag;
    p.slots.(s) <- e;
    p.used <- p.used + 1;
    if 10 * (p.used + 1) > 7 * (p.mask + 1) then grow_part t p;
    (e, true)
  end

(* Probe-only lookup; [-1] when absent. *)
let find t key h =
  let mixed = mix h in
  let p = part_of t mixed in
  let _, e = probe t p key h mixed (tag_of mixed) in
  e

(* --- equi-join build: one chain of items per distinct key ------------ *)

(* A join-mode table whose entries each head a chain of the items (row
   numbers) added under that key, newest first. The batch hash join and the
   DML matcher build on it. Callers never add an item whose key holds a
   NULL: such a key can match nothing. Built by one domain; once built,
   [first_item] and [next_item] only read it, so any number of domains may
   probe it at once. *)
type chains = {
  table : t;
  mutable heads : int array;  (** entry -> newest item under its key *)
  mutable links : int array;  (** item -> next older item under the same key *)
}

let create_chains () =
  {
    table = create ~null_equal:false 0;
    heads = Array.make 64 (-1);
    links = Array.make 64 (-1);
  }

(* [a] with room for index [i]; new slots hold -1 *)
let ensure_index a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_item c key item =
  let e, inserted = find_or_insert c.table key (hash_key key) in
  c.links <- ensure_index c.links item;
  if inserted then c.heads <- ensure_index c.heads e
  else c.links.(item) <- c.heads.(e);
  c.heads.(e) <- item

(* The newest item added under [key], or -1; [next_item] walks the older
   ones and returns -1 past the last. *)
let first_item c key =
  let e = find c.table key (hash_key key) in
  if e < 0 then -1 else c.heads.(e)

let next_item c item = c.links.(item)
