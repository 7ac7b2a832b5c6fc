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

   Why this matters: re-running a linked artifact re-allocates every
   program grid, and grids above glibc's mmap threshold each cost an
   mmap + munmap + first-touch fault storm per run. Under sustained
   re-runs that churn dominates short programs; recycling pins a small
   stable arena instead. Only grids are pooled (>= 4096 elements) —
   scalar temporaries are cheap and would bloat the size-class table.

   Finalisers may fire at any allocation point, including inside the
   arena's own critical sections, so both paths take the lock with
   [try_lock] and fall back to the plain allocator/free path when it
   is unavailable — dropping a recyclable array is always correct. *)

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let arena : (int, data list) Hashtbl.t = Hashtbl.create 16
let arena_lock = Mutex.create ()
let arena_min_elems = 4096
let arena_class_max = 8
let arena_max_bytes = 64 * 1024 * 1024
let arena_bytes = ref 0
let arena_hit_count = ref 0
let arena_retire_count = ref 0

let arena_retire (data : data) =
  let n = Bigarray.Array1.dim data in
  if n >= arena_min_elems && Mutex.try_lock arena_lock then begin
    let free = Option.value (Hashtbl.find_opt arena n) ~default:[] in
    if List.length free < arena_class_max
       && !arena_bytes + (8 * n) <= arena_max_bytes
    then begin
      Hashtbl.replace arena n (data :: free);
      arena_bytes := !arena_bytes + (8 * n);
      incr arena_retire_count
    end;
    Mutex.unlock arena_lock
  end

let arena_take n =
  if n < arena_min_elems || not (Mutex.try_lock arena_lock) then None
  else begin
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
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout total
  in
  let t = { data; dims; strides = column_major_strides dims;
            buf_id = next_id () } in
  if total >= arena_min_elems then
    Gc.finalise (fun t -> arena_retire t.data) t;
  t

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

let checksum t =
  let acc = ref 0.0 in
  for i = 0 to size t - 1 do
    acc := !acc +. (get_flat t i *. float_of_int ((i mod 97) + 1))
  done;
  !acc
