(** Domain decomposition for distributed-memory execution: following the
    paper's Figure 6 setup, the 3-D grid is decomposed over its two
    outermost (non-contiguous) dimensions into a 2-D process grid, one
    MPI rank per core, with single-cell halos swapped every iteration. *)

(** A decomposition request that cannot produce a valid process grid —
    more ranks than cells along the decomposed dimensions, non-positive
    extents, or an x-decomposed partition. The payload is a located
    diagnostic the CLI renders like any other compiler error. *)
exception Invalid_decomp of Fsc_analysis.Diag.t

type t = {
  global : int * int * int;  (** interior extents nx, ny, nz *)
  py : int;  (** ranks along y *)
  pz : int;  (** ranks along z *)
}

(** Near-square factorisation [p = py * pz] with [py <= pz] (not
    grid-aware; {!create} picks the near-square pair that fits). *)
val factorize : int -> int * int

(** Build the process grid: the closest-to-square divisor pair
    [py * pz = ranks] with [py <= ny] and [pz <= nz], so every rank owns
    at least one cell per decomposed dimension.
    @raise Invalid_decomp when no divisor pair fits (e.g. [ranks > ny*nz]
    or a prime [ranks] exceeding both extents). *)
val create : global:int * int * int -> ranks:int -> t

val nranks : t -> int

(** [split n p i] is the 1-based inclusive range of piece [i] when [n]
    cells are divided into [p] near-equal contiguous pieces. *)
val split : int -> int -> int -> int * int

(** The 1-based global interior ranges owned by a rank, per dimension
    (x is never decomposed). *)
val local_range : t -> int -> (int * int) * (int * int) * (int * int)

val local_extents : t -> int -> int * int * int

type direction =
  | Y_low
  | Y_high
  | Z_low
  | Z_high

(** [None] at a global boundary. *)
val neighbor : t -> int -> direction -> int option

val directions : direction list
val opposite : direction -> direction
val tag_of_direction : direction -> int

(** Bytes exchanged per rank per halo swap (for the network model). *)
val halo_bytes : t -> int -> int

(** Every interior cell is owned by exactly one rank.
    @raise Invalid_decomp when the partition decomposes x. *)
val check_partition : t -> bool
