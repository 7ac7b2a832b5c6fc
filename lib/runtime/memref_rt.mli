(** Runtime buffers backing FIR arrays and memrefs.

    All array data lives in float64 Bigarrays with explicit strides; FIR
    arrays (and the memrefs derived from them) are column-major
    (dimension 0 contiguous), matching Fortran. Integer and logical
    array elements are stored as floats (exact for |n| < 2^53) — a
    simulator simplification recorded in DESIGN.md. *)

type t = {
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  dims : int array;
  strides : int array;  (** column-major: [strides.(0) = 1] *)
  buf_id : int;  (** unique id; the GPU/MPI simulators key residency on it *)
  released : bool Atomic.t;  (** set by {!release}; never read the buffer then *)
}

(** Total element count / byte size. *)
val size : t -> int

val bytes : t -> int

(** Zero-filled buffer with the given extents. Grid-sized buffers
    (>= 4096 elements) draw their storage from a recycling arena when a
    same-sized buffer has been collected — re-running a linked artifact
    then reuses a stable set of pages instead of paying an
    mmap/munmap/fault cycle per run. Pooled or fresh, the buffer is
    zero-filled and carries a fresh [buf_id]. A grid-sized create that
    finds no storage in the arena bumps the [rt.arena_misses]
    counter. *)
val create : int list -> t

(** Like {!create}, from the same arena, but without the zero-fill: the
    cells hold arbitrary values (a recycled buffer's old contents, or
    whatever fresh storage holds). The caller must write every cell
    before any read — a whole-grid initialiser, a scatter, or a kernel
    whose spec overwrites the buffer
    ([Fsc_analysis.Footprint.overwrites]). *)
val create_uninit : int list -> t

(** Hand a grid-sized buffer's storage back to the arena now, instead
    of when the collector finalises the buffer, so the next {!create} of
    the same size reuses it. Storage comes back by three routes: the
    finaliser of a collected buffer; a served request releasing its
    grids once its reply is built; and a re-run of a linked artifact,
    which releases the previous run's grids ([Pipeline.run]) and dist
    rank blocks ([Dist_kernel.begin_run]) before anything allocates. The caller guarantees that nothing reads or
    writes the buffer, or any view sharing its data, afterwards: the
    storage may already back another buffer. Idempotent — a second
    release, and the buffer's finaliser after a release, do nothing —
    and a no-op on buffers under 4096 elements. Each release that puts
    storage in the arena bumps the [rt.arena_releases] counter. *)
val release : t -> unit

(** Cumulative [(hits, retires)] of the storage arena: how many creates
    were served from recycled storage, and how many buffers donated
    theirs (collected, or released by {!release}). Monotone process-wide
    counters (tests diff them). *)
val arena_stats : unit -> int * int

(** A 1-element buffer. *)
val scalar : unit -> t

val rank : t -> int

(** Flat offset of a multi-dimensional index. *)
val offset : t -> int array -> int

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit
val fill : t -> float -> unit

(** @raise Invalid_argument on size mismatch. *)
val copy_into : src:t -> dst:t -> unit

val clone : t -> t

(** Initialise from a function of the flat index (deterministic data). *)
val init : t -> (int -> float) -> unit

(** max |a - b| over all elements; the differential tests' metric. A
    NaN on one side only, or infinities of opposite sign, count as an
    infinite difference; NaN on both sides and equal infinities count as
    equal. *)
val max_abs_diff : t -> t -> float

(** Position-weighted checksum (orders of elements matter). *)
val checksum : t -> float
