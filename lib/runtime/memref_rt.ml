(* Runtime buffers backing FIR arrays and memrefs.

   All array data lives in float64 Bigarrays with explicit strides; FIR
   arrays and the memrefs derived from them are column-major (dimension 0
   contiguous), matching Fortran. Integer and logical array elements are
   stored as floats (exact for |n| < 2^53) — a simulator simplification
   recorded in DESIGN.md. *)

type t = {
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  dims : int array;
  strides : int array;
  (* unique id used by the GPU/MPI simulators to track residency *)
  buf_id : int;
  (* set once by [release]; the finaliser then leaves the storage alone *)
  released : bool Atomic.t;
}

(* Buffers are created on every domain (pool workers, server
   workers); a duplicated id would merge two buffers' residency. *)
let next_id =
  let c = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add c 1 + 1

let column_major_strides dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = 1 to n - 1 do
    strides.(i) <- strides.(i - 1) * dims.(i - 1)
  done;
  strides

let size t = Array.fold_left ( * ) 1 t.dims

let bytes t = 8 * size t

(* ---- storage arena ----

   Retired data arrays keyed by exact element count, recycled into
   later [create] calls of the same size. A buffer's storage is
   recycled when its record is collected: the record is the only
   durable path to the data (engines extract [t.data] only transiently,
   while [t] is live), so an unreachable record means unreachable
   storage. [create] zero-fills recycled arrays before reuse, exactly
   like fresh ones — a pooled [create] is indistinguishable from a cold
   one. [create_uninit] takes the same path without the fill: its cells
   hold whatever the recycled (or fresh) storage held, so its callers
   must write every cell before reading any — a whole-grid initialiser,
   a scatter, or a kernel whose spec overwrites the buffer
   ([Fsc_analysis.Footprint.overwrites]).

   [release] hands a buffer's storage back before the collector finds
   the record: a served request releases its grids once its reply is
   built, so the next request's creates hit the arena instead of
   allocating fresh storage that counts against the major-GC budget.
   The record's [released] flag is set exactly once, by whichever
   release wins it, and the finaliser skips released records, so no
   storage is ever retired twice.

   Why this matters: re-running a linked artifact re-allocates every
   program grid, and grids above glibc's mmap threshold each cost an
   mmap + munmap + first-touch fault storm per run. Under sustained
   re-runs that churn dominates short programs; recycling pins a small
   stable arena instead. Only grids are pooled (>= 4096 elements) —
   scalar temporaries are cheap and would bloat the size-class table.

   A linked artifact's [Pipeline.run] releases the previous run's
   grids the same way before its program allocates, and a dist run
   releases the previous run's rank blocks: re-runs then draw every
   grid from the arena, and a create that finds no storage there
   bumps [rt.arena_misses].

   Finalisers may fire at any allocation point, including inside the
   arena's own critical sections, so they take the lock with
   [try_lock] and drop the array when it is unavailable — dropping a
   recyclable array is always correct. Takes and releases never run
   inside a finaliser and block on the lock: grids created on several
   domains at once (server workers, concurrent callers of the shared
   pool) must not miss the arena because another domain holds it. *)

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let arena : (int, data list) Hashtbl.t = Hashtbl.create 16
let arena_lock = Mutex.create ()
let arena_min_elems = 4096
let arena_class_max = 8
let arena_max_bytes = 64 * 1024 * 1024
let arena_bytes = ref 0
let arena_hit_count = ref 0
let arena_retire_count = ref 0
let c_releases = Fsc_obs.Obs.counter "rt.arena_releases"
let c_misses = Fsc_obs.Obs.counter "rt.arena_misses"

(* [lock] is [Mutex.try_lock] inside finalisers (see above) and a
   blocking lock for [release], which runs outside any critical
   section. *)
let arena_retire ~lock (data : data) =
  let n = Bigarray.Array1.dim data in
  n >= arena_min_elems && lock arena_lock
  && begin
    let free = Option.value (Hashtbl.find_opt arena n) ~default:[] in
    let kept =
      List.length free < arena_class_max
      && !arena_bytes + (8 * n) <= arena_max_bytes
    in
    if kept then begin
      Hashtbl.replace arena n (data :: free);
      arena_bytes := !arena_bytes + (8 * n);
      incr arena_retire_count
    end;
    Mutex.unlock arena_lock;
    kept
  end

let arena_take n =
  if n < arena_min_elems then None
  else begin
    Mutex.lock arena_lock;
    let r =
      match Hashtbl.find_opt arena n with
      | Some (d :: rest) ->
        Hashtbl.replace arena n rest;
        arena_bytes := !arena_bytes - (8 * n);
        incr arena_hit_count;
        Some d
      | _ -> None
    in
    Mutex.unlock arena_lock;
    r
  end

let arena_stats () = (!arena_hit_count, !arena_retire_count)

let create_uninit dims =
  let dims = Array.of_list dims in
  let total = max (Array.fold_left ( * ) 1 dims) 1 in
  let data =
    match arena_take total with
    | Some d -> d
    | None ->
      if total >= arena_min_elems then Fsc_obs.Obs.incr c_misses;
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout total
  in
  let t = { data; dims; strides = column_major_strides dims;
            buf_id = next_id (); released = Atomic.make false } in
  if total >= arena_min_elems then
    Gc.finalise
      (fun t ->
        if not (Atomic.get t.released) then
          ignore (arena_retire ~lock:Mutex.try_lock t.data))
      t;
  t

let release t =
  if Atomic.compare_and_set t.released false true
     && arena_retire ~lock:(fun m -> Mutex.lock m; true) t.data
  then Fsc_obs.Obs.incr c_releases

let create dims =
  let t = create_uninit dims in
  Bigarray.Array1.fill t.data 0.0;
  t

let scalar () = create [ 1 ]

let rank t = Array.length t.dims

let offset t (indices : int array) =
  let off = ref 0 in
  for i = 0 to Array.length indices - 1 do
    off := !off + (indices.(i) * t.strides.(i))
  done;
  !off

let get t indices = Bigarray.Array1.get t.data (offset t indices)

let set t indices v = Bigarray.Array1.set t.data (offset t indices) v

let get_flat t i = Bigarray.Array1.get t.data i
let set_flat t i v = Bigarray.Array1.set t.data i v

let fill t v = Bigarray.Array1.fill t.data v

let copy_into ~src ~dst =
  if size src <> size dst then invalid_arg "Memref_rt.copy_into: size";
  Bigarray.Array1.blit src.data dst.data

let clone t =
  let t' = create_uninit (Array.to_list t.dims) in
  Bigarray.Array1.blit t.data t'.data;
  t'

(* Initialise with a function of the flat index (deterministic test data). *)
let init t f =
  for i = 0 to size t - 1 do
    set_flat t i (f i)
  done

(* max |a - b| over all elements. A NaN difference would compare false
   against the running maximum and vanish, so a NaN on one side only
   (or infinities of opposite sign) counts as infinitely different;
   equal infinities and NaN on both sides count as equal. *)
let max_abs_diff a b =
  if size a <> size b then invalid_arg "Memref_rt.max_abs_diff: size";
  let m = ref 0.0 in
  for i = 0 to size a - 1 do
    let x = get_flat a i and y = get_flat b i in
    let d = Float.abs (x -. y) in
    let d =
      if not (Float.is_nan d) then d
      else if x = y || (Float.is_nan x && Float.is_nan y) then 0.0
      else Float.infinity
    in
    if d > !m then m := d
  done;
  !m

(* Element i weighs [(i mod 97) + 1]; the weight is carried as a float
   counter that wraps at 97 instead of a division per element. Same
   terms, same summation order: bitwise the per-element formula. *)
let checksum t =
  let d = t.data in
  let acc = ref 0.0 and w = ref 1.0 in
  for i = 0 to size t - 1 do
    acc := !acc +. (Bigarray.Array1.get d i *. !w);
    w := if !w = 97.0 then 1.0 else !w +. 1.0
  done;
  !acc
