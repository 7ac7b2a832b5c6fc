(** Concurrent SPMD executor: runs a halo-exchange computation over a
    {!Decomp.t} with simulated MPI, validating that the auto-parallelised
    pipeline computes the same grid as serial execution. Local grids
    carry one-cell halos in the decomposed (y, z) dimensions; the x
    (contiguous) dimension is never decomposed.

    Ranks execute in parallel on a {!Fsc_rt.Domain_pool}. A superstep is
    a list of phases; a pinned-team barrier publishes one phase's sends
    to the next phase's receives. There is one superstep schedule, the
    paper's blocking DMP lowering in two phases: every rank posts its
    halo planes; then every rank consumes its neighbours' planes and
    sweeps its whole local interior. *)

module Mpi = Fsc_rt.Mpi_sim
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool

(** A neighbour of a rank: the direction it lies in, its rank, and the
    tags of the messages sent to it and received from it. *)
type link = {
  ln_dir : Decomp.direction;
  ln_nbr : int;
  ln_send_tag : int;
  ln_recv_tag : int;
}

type rank_state = {
  rs_rank : int;
  mutable rs_fields : (string * Rt.t) list;
      (** (lx+2)(ly+2)[(lz+2)] local grids *)
  rs_range : (int * int) * (int * int) * (int * int);
      (** global 1-based interior ranges owned by the rank *)
  rs_links : link list;  (** neighbours, in {!Decomp.directions} order *)
  mutable rs_payloads : (Decomp.direction * float array) list;
      (** the halo payloads the rank posts, one per (direction,
          length), reused across supersteps (see {!pack_coalesced}) *)
}

type t = {
  decomp : Decomp.t;
  mpi : Mpi.t;
  ranks : rank_state array;
  pool : Pool.t option;
  field_rank : int;  (** 2 or 3 *)
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

(** Add field [name] on every rank (or overwrite an existing one's
    values) by scattering a global (nx+2)(ny+2)[(nz+2)] buffer with
    contiguous row copies — the kernel scatter. Each rank's block,
    halos included, mirrors the global buffer afterwards.
    @raise Invalid_argument when the buffer shape does not match the
    decomposition's global extents. *)
val set_field_from_global : t -> string -> Rt.t -> unit

(** Add field [name] on every rank without initialising it: the blocks'
    cells hold arbitrary values until written. For a field whose next
    kernel overwrites every cell, where a scatter would be wasted. *)
val alloc_field : t -> string -> unit

val field : rank_state -> string -> Rt.t

(** Start over on the same fields: drop undelivered messages and zero
    the {!stats} counters. Rank blocks and halo payloads stay. *)
val reset : t -> unit

(** Pack the swap set [names] for the neighbour in [dir] into one
    self-describing payload: header = field count + per-field absolute
    offsets, then the halo planes in swap-set order. The payload is
    [rank]'s own array for [dir] and its length: the next pack for the
    same rank, direction and length writes into the same array, so a
    payload is valid until then. Exposed for round-trip testing. *)
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
    post the halos of [swap_fields] (one message per neighbour for the
    whole swap set); then consume them and run [sweep] on each rank. A
    payload is a snapshot taken at post and consuming writes only the
    receiving rank's halo planes, so [sweep] may read and write any of
    its own rank's cells, including a copy-back after the sweep proper.
    An empty swap set builds a single compute-only phase. Callers may
    concatenate many supersteps' phases into one {!run_phases} call. *)
val superstep_phases :
  t ->
  swap_fields:string list ->
  sweep:(rank:int -> unit) ->
  (rank:int -> unit) list

(** Execute a phase list over all ranks: one pool-team launch with a
    barrier between phases; sequential without a pool. *)
val run_phases : t -> (rank:int -> unit) list -> unit

(** Run [iters] supersteps inside a single pool launch. *)
val iterate :
  t ->
  iters:int ->
  swap_fields:string list ->
  sweep:(t -> rank:int -> unit) ->
  unit

(** Gather a field into a new global grid. Each rank contributes its
    interior plus only global-boundary halo planes (interior halos are
    other ranks' cells and may be one exchange stale). *)
val gather : t -> string -> Rt.t

(** Gather every [(field, global grid)] pair into its grid, as
    {!gather} does, in one {!run_phases} launch: each team member
    copies its own ranks' disjoint regions. *)
val gather_fields : t -> (string * Rt.t) list -> unit

(** (messages, bytes) moved so far. *)
val stats : t -> int * int
