(** Concurrent SPMD executor: runs a halo-exchange computation over a
    {!Decomp.t} with simulated MPI, validating that the auto-parallelised
    pipeline computes the same grid as serial execution. Local grids
    carry one-cell halos in the decomposed (y, z) dimensions; the x
    (contiguous) dimension is never decomposed.

    Ranks execute in parallel on a {!Fsc_rt.Domain_pool}. A superstep is
    a list of phases; a pinned-team barrier publishes one phase's sends
    to the next phase's receives. *)

module Mpi = Fsc_rt.Mpi_sim
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool

(** Superstep discipline. [Blocking] is the paper's non-overlapped DMP
    lowering: all halo traffic completes globally, then every rank
    sweeps its whole local interior (three rendezvous per superstep).
    [Overlap] computes the halo-independent interior block while
    messages are in flight, then finishes the boundary shells once the
    halos have landed (two rendezvous, compute hiding communication).
    Without a pool the ranks run sequentially and overlap has nothing
    to hide behind, so [Overlap] collapses to the blocking schedule. *)
type mode =
  | Blocking
  | Overlap

val mode_name : mode -> string

(** A sub-range of one rank's local interior, in local 1-based interior
    coordinates: [j] over y in [w_jlo..w_jhi], [k] over z in
    [w_klo..w_khi] (2-D fields have k = 1..1). *)
type window = {
  w_jlo : int;
  w_jhi : int;
  w_klo : int;
  w_khi : int;
}

type rank_state = {
  rs_rank : int;
  mutable rs_fields : (string * Rt.t) list;
      (** (lx+2)(ly+2)[(lz+2)] local grids *)
  rs_range : (int * int) * (int * int) * (int * int);
      (** global 1-based interior ranges owned by the rank *)
}

type t = {
  decomp : Decomp.t;
  mpi : Mpi.t;
  ranks : rank_state array;
  pool : Pool.t option;
  field_rank : int;  (** 2 or 3 *)
  mutable fb_thin_y : int;
      (** overlap fallbacks because an active y axis is thinner than 3 *)
  mutable fb_thin_z : int;  (** same, z axis *)
}

(** Create the distributed state. [init name (i,j,k)] gives the global
    value of field [name] at 0-based array coordinates (halos included;
    [k] is 0 for 2-D fields). With a pool, superstep phases run ranks
    concurrently; per-rank sweeps must not themselves use the pool. *)
val create :
  ?pool:Pool.t ->
  ?field_rank:int ->
  Decomp.t ->
  fields:string list ->
  init:(string -> int * int * int -> float) ->
  t

(** Add a field on every rank (or re-initialise an existing one; the
    per-rank field list is deduplicated on overwrite so a stale
    duplicate binding can never shadow the authoritative buffer). *)
val set_field : t -> string -> (int * int * int -> float) -> unit

(** Like {!set_field}, but scatters from a global
    (nx+2)(ny+2)[(nz+2)] buffer by contiguous row copies — the fast
    path behind kernel scatter. @raise Invalid_argument when the buffer
    shape does not match the decomposition's global extents. *)
val set_field_from_global : t -> string -> Rt.t -> unit

val has_field : t -> string -> bool
val field : rank_state -> string -> Rt.t

(** The whole local interior of a rank. *)
val interior : t -> int -> window

(** Whether the rank's local block is thick enough to split into a
    halo-independent interior block plus boundary shells: interior
    extent >= 3 in every *active* axis (an axis actually decomposed by
    the process grid — a single process row exchanges nothing there, so
    that axis's halos are static global boundaries and impose no
    thickness requirement). Thin ranks fall back to the blocking
    whole-sweep inside an [Overlap] superstep, counted per reason in
    [fb_thin_y] / [fb_thin_z]. *)
val overlap_capable : t -> int -> bool

(** Interior block (reads no exchanged halo cell under one-cell-offset
    stencils) and its complementary boundary shells; disjoint, union =
    interior. *)
val interior_block : t -> int -> window

val shells : t -> int -> window list

(** (thin-y, thin-z) overlap fallback counts accumulated by this
    executor's [Overlap] supersteps (one count per affected rank per
    superstep). *)
val fallback_reasons : t -> int * int

(** Pack the swap set [names] for the neighbour in [dir] into one
    self-describing payload: header = field count + per-field absolute
    offsets, then the halo planes in swap-set order. Exposed for
    round-trip testing. *)
val pack_coalesced :
  t -> names:string list -> rank:int -> dir:Decomp.direction -> float array

(** Unpack a coalesced payload received from the neighbour in [dir]
    into [rank]'s halo planes. @raise Invalid_argument when the header
    does not match the receiver's swap set or an offset escapes the
    payload. *)
val unpack_coalesced :
  t ->
  names:string list ->
  rank:int ->
  dir:Decomp.direction ->
  float array ->
  unit

(** Build one superstep as a phase list (each phase a per-rank body):
    swap the halos of [swap_fields] (one message per neighbour for the
    whole swap set), run the windowed [sweep] over every rank's
    interior (split per [mode]), then the per-rank [finish]. An empty
    swap set builds a single compute-only phase. Callers may concatenate many supersteps' phases into one
    {!run_phases} call. *)
val superstep_phases :
  t ->
  swap_fields:string list ->
  mode:mode ->
  sweep:(rank:int -> window -> unit) ->
  ?finish:(rank:int -> unit) ->
  unit ->
  (rank:int -> unit) list

(** Execute a phase list over all ranks: one pool-team launch with a
    barrier between phases; sequential without a pool. *)
val run_phases : t -> (rank:int -> unit) list -> unit

(** One superstep: {!superstep_phases} followed by {!run_phases}. *)
val superstep :
  t ->
  swap_fields:string list ->
  mode:mode ->
  sweep:(rank:int -> window -> unit) ->
  ?finish:(rank:int -> unit) ->
  unit ->
  unit

(** Run [iters] supersteps inside a single pool launch. *)
val iterate :
  t ->
  ?mode:mode ->
  iters:int ->
  swap_fields:string list ->
  sweep:(t -> rank:int -> window -> unit) ->
  ?finish:(t -> rank:int -> unit) ->
  unit ->
  unit

(** Gather a field into a global grid. Each rank contributes its
    interior plus only global-boundary halo planes (interior halos are
    other ranks' cells and may be one exchange stale). *)
val gather : t -> string -> Rt.t

val gather_into : t -> string -> Rt.t -> unit

(** (messages, bytes) moved so far. *)
val stats : t -> int * int
