(** Distributed execution of compiled stencil kernels: the runtime half
    of the paper's DMP lowering. Kernel specs from
    {!Fsc_rt.Kernel_compile} are re-targeted at SPMD execution over a
    {!Decomp} — each rank runs ownership-clipped local bounds through
    the vector engine, with {!Dist_exec} supersteps providing
    the halo swaps.

    Coherence follows the GPU device-resident contract: buffers live
    scattered across ranks while distributed kernels run and are
    gathered back into the host globals only at {!sync_back} (end of
    run) or before a host-side fallback ({!run_fallback}). *)

module Kc = Fsc_rt.Kernel_compile
module Rt = Fsc_rt.Memref_rt

type state

(** [create ?pool ~ranks ()] — one state per linked artifact.
    [pool] runs ranks concurrently. The superstep schedule is fixed and
    every part of it preserves bitwise results:
    - a stage is one {!Dist_exec} superstep: post the halos, then
      consume them and run the stage's nests in program order over each
      rank's whole local interior, through one runner per rank;
    - a stage's exchange is skipped when every swap field's halos are
      already fresh (scattered or exchanged since last written), so
      e.g. the superstep right after a scatter pays no messages;
    - a stage's whole swap set travels as one message per neighbour
      behind a field-offset header;
    - a written field's halos stay fresh when the stage's write
      footprint ({!Fsc_analysis.Footprint}) provably misses every
      mirrored boundary plane of the decomposition, so interior-band
      or global-edge writes fuse away the next exchange. *)
val create :
  ?pool:Fsc_rt.Domain_pool.t ->
  ranks:int ->
  unit ->
  state

(** The interior planes some rank's halo mirrors, per decomposed axis
    [(y planes, z planes)]: the first/last owned plane of every block
    that has a neighbour on that side. Exposed for tests. *)
val mirror_planes : Decomp.t -> int list * int list

(** Does a write with this global footprint invalidate any rank's halo?
    True iff the region covers a mirrored plane in some decomposed
    dimension ([ddims] indexes into the region; a region too short to
    constrain a decomposed dimension counts as covering). *)
val write_stales :
  ddims:int list ->
  planes:int list * int list ->
  Fsc_analysis.Footprint.region ->
  bool

(** Reset per-run coherence state. Call at the start of every program
    run: the host buffers are allocated fresh each run, so no group
    stays valid and every buffer is placed again by its first kernel.
    Groups keep their rank blocks, halo payloads and per-rank runner
    bindings, so a re-run allocates none of them; group message counts
    restart from zero. *)
val begin_run : state -> unit

(** Gather every valid group back into the host's global buffers. Call
    once at the end of a program run. *)
val sync_back : state -> unit

(** Run a host-side (non-distributed) computation: gathers all valid
    groups first and marks them invalid so the next distributed kernel
    re-scatters. Used for kernels that cannot be distributed. Each call
    is one [ds_fallback_runs] and one [dmp.fallbacks] count; nothing
    else bumps that counter. *)
val run_fallback : state -> reason:string -> (unit -> 'a) -> 'a

(** Execute one compiled kernel distributed over the ranks, falling back
    to [host] (via {!run_fallback}) when the kernel's accesses cannot be
    split along the decomposed dimensions.
    @raise Decomp.Invalid_decomp when the buffers' grid cannot host the
    requested rank count. *)
val run_kernel :
  state ->
  name:string ->
  Kc.spec ->
  host:(unit -> unit) ->
  bufs:Rt.t array ->
  scalars:float array ->
  unit

type group_stats = {
  gs_dims : int list;  (** global buffer shape *)
  gs_py : int;
  gs_pz : int;
  gs_msgs : int;  (** halo messages since the last {!begin_run} *)
  gs_bytes : int;
}

type stats = {
  ds_ranks : int;
  ds_groups : group_stats list;
  ds_dist_runs : int;  (** distributed kernel executions, cumulative *)
  ds_fallback_runs : int;  (** host fallback runs, cumulative *)
  ds_exchanged_stages : int;
      (** supersteps that exchanged halos, cumulative (a stage with no
          swap set is neither exchanged nor fused) *)
  ds_fused_stages : int;
      (** supersteps whose halo exchange was fused away (halos already
          fresh), cumulative *)
  ds_stales_avoided : int;
      (** stage writes whose footprint was proven off every mirrored
          plane, leaving the field's halos fresh; cumulative *)
  ds_scatters_skipped : int;
      (** buffers not scattered because the calling kernel overwrites
          every cell ({!Fsc_analysis.Footprint.overwrites}); cumulative *)
  ds_vec_nests : int;
      (** vectorised / total nests over the compiled per-rank runners,
          one runner per (stage, rank) *)
  ds_total_nests : int;
}

val stats : state -> stats
