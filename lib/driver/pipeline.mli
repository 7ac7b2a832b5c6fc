(** End-to-end compilation and execution pipelines — the paper's Figure 1
    as code. Each flow takes Fortran source text and produces a runnable
    {!artifact}. *)

open Fsc_ir

(** A typed, renderable driver error. The CLI catches it, renders the
    diagnostic through {!Fsc_analysis.Diag} and exits nonzero. *)
exception Error_diag of Fsc_analysis.Diag.t

(** GPU data-management strategy (Section 4.3 / Figure 5). *)
type gpu_strategy =
  | Gpu_initial  (** [gpu.host_register]: page everything, every launch *)
  | Gpu_optimised  (** the bespoke data-placement pass: device-resident *)

type target =
  | Serial
  | Openmp of int  (** auto-parallelised, thread count *)
  | Gpu of gpu_strategy
  | Dist of int
      (** distributed-memory lowering over simulated MPI, rank count *)

(** Human-readable target, e.g. ["openmp(4)"] — the one spelling used by
    the CLI, the batch/serve job printer and error messages. *)
val target_name : target -> string

(** Target without link-time parameters (["openmp"], no thread count):
    the spelling that identifies {e compiled code}, and therefore the one
    that belongs in cache keys — an OpenMP artifact is reusable across
    thread counts because the pool view is only taken at {!link}
    time. *)
val target_kind : target -> string

(** Which execution tier runs compiled kernels on CPU targets. The
    engine is link-time state (like the pool size): it never changes the
    compiled IR, so it is not part of {!options} or the cache key. GPU
    targets always execute the vector plan on the simulator's device
    twins. *)
type exec_engine =
  | Engine_interp  (** force the tree-walking interpreter *)
  | Engine_vector
      (** {!Fsc_rt.Kernel_bytecode}'s row engine; per-nest automatic
          fallback to {!Fsc_rt.Kernel_compile}'s closure JIT outside the
          vectorisable shape or the bounds proof *)
  | Engine_native
      (** {!Fsc_codegen.Native}: kernels emitted as OCaml source,
          compiled with [ocamlfind ocamlopt -shared] and Dynlink'ed;
          serves from the vector engine until the plugin is ready and
          falls back to it per nest (emit/bounds) or per kernel
          (toolchain/build/load failures). CPU targets only (see
          {!resolve_engine}). *)

val engine_name : exec_engine -> string

(** Inverse of {!engine_name}; [None] for unknown spellings. *)
val engine_of_name : string -> exec_engine option

(** Every engine, in ladder order. *)
val all_engines : exec_engine list

(** Valid [--exec-engine] spellings, for diagnostics. *)
val engine_names : string list

(** The engine that runs a target's kernels when [engine] is requested,
    with the reason when they differ: native on [Dist] and [Gpu] runs
    vector plans. {!link} and [sfc run] both decide through it. *)
val resolve_engine : exec_engine -> target -> exec_engine * string option

(** How a kernel is executed at runtime. *)
type kernel_impl =
  | Vectorised of Fsc_rt.Kernel_compile.spec * Fsc_rt.Kernel_bytecode.plan
      (** row-vectorised engine (inspect the plan for per-nest
          fallbacks) *)
  | Native_jit of Fsc_rt.Kernel_compile.spec * Fsc_codegen.Native.kernel
      (** native JIT tier (query {!Fsc_codegen.Native.report} for build
          origin, timing and per-nest fallbacks) *)
  | Interpreted of string  (** fallback, with the analyser's reason *)

type artifact = {
  a_host : Op.op;  (** the FIR host module *)
  a_stencil : Op.op option;  (** extracted module after lowering *)
  a_ctx : Fsc_rt.Interp.context;  (** linked execution context *)
  a_kernels : (string * kernel_impl) list;
  a_target : target;
  a_dist : Fsc_dmp.Dist_kernel.state option;
      (** distributed runtime ([Dist] targets under the vector and
          native engines) *)
  a_unzeroed : (string * string) list;
      (** grids allocated without a zero-fill, each with the kernel
          whose first call overwrites every cell, in program order (see
          {!link}) *)
}

type stencil_stats = {
  st_discovered : int;
  st_merged : int;
  st_kernels : int;
}

(** Everything {!compile} is parameterised by. One record so the cache
    key and the compiler agree by construction on what defines an
    artifact's identity. *)
type options = {
  opt_target : target;
  opt_merge : bool;  (** ablation: stencil merging *)
}

val default_options : ?target:target -> ?merge:bool -> unit -> options

(** The pure, serializable half of a stencil compilation: IR modules and
    metadata only — no interpreter context, no domain pool, no GPU
    simulator, no Bigarrays, no closures. It is exactly the value the
    artifact cache stores (as printed IR) and {!link} consumes. *)
type compiled_artifact = {
  ca_host : Op.op;  (** FIR host module after extraction *)
  ca_stencil : Op.op;  (** extracted module after lowering *)
  ca_kernels : string list;  (** stencil kernel symbols, in order *)
  ca_managed : string list;
      (** kernels whose GPU data placement was hoisted (optimised GPU) *)
  ca_footprints : (string * Fsc_analysis.Footprint.t) list;
      (** per-kernel affine read/write footprints (analysable kernels
          only), printed by [sfc compile --stats]; part of the cache
          contract, recomputed and compared on every hit *)
  ca_stats : stencil_stats;
  ca_options : options;
}

(** The Listing-4 pipeline's output for a GPU artifact (tile 32,32,1),
    rebuilt on a clone of [ca_stencil] at each call; nothing executes
    it.
    @raise Invalid_argument off GPU targets. *)
val gpu_ir : compiled_artifact -> Op.op

(** The baseline: frontend to FIR, no stencil optimisation, naive
    execution (the paper's "Flang only" series). *)
val flang_only : string -> artifact

(** Pure front half of the Figure-1 pipeline: frontend, discovery,
    merge, extraction, GPU data placement and lowering. Deterministic in
    [options] and the source text, and free of runtime state — the
    cacheable unit. *)
val compile : options -> string -> compiled_artifact

(** Impure back half: create the interpreter context, register the host
    and stencil modules, take a view of the shared pool / create the GPU
    simulator for the artifact's target, and compile each kernel for
    the engine {!resolve_engine} picks for [engine] and the target
    (default {!Engine_vector}; falls back to the interpreter outside
    the analysable shape, and per nest to the closure JIT of
    {!Fsc_rt.Kernel_compile} outside the vectorisable shape or the
    bounds proof). Safe to call several times on one
    artifact; each call yields an independent runnable.

    Link spawns no domain: an [Openmp n] or [Dist r] artifact runs on a
    view of [min n (recommended_size ())] (or [min r ...]) participants
    of the process-wide {!Fsc_rt.Domain_pool.shared} pool, created on
    first use, and launches of artifacts run from concurrent callers
    take turns on its workers. For [Dist] targets ranks execute
    concurrently on that view (a one-participant view runs them in
    turn), under the one superstep schedule
    of {!Fsc_dmp.Dist_kernel}: overlapped where the blocks allow it,
    exchanges fused away while halos stay fresh, one coalesced message
    per neighbour, and footprint-aware staling. Under {!Engine_interp}
    the program runs entirely on the host interpreter (no
    distribution).

    [native] supplies the {!Engine_native} context (cache directory,
    build mode, toolchain); without it a process-wide default ctx
    (async builds, default cache directory) is created on first use.
    It is ignored unless native kernels run.

    Link also decides which grids skip their zero-fill: an array
    [fir.alloca] in [_QQmain]'s top-level block whose first use (seeing
    through [fir.convert]) is a call to a compiled kernel whose spec
    {!Fsc_analysis.Footprint.overwrites} that argument is allocated
    with {!Fsc_rt.Memref_rt.create_uninit}. A first use inside a
    region, a host access, a call to an interpreted kernel or a grid
    passed twice to one call keeps the fill. *)
val link :
  ?engine:exec_engine ->
  ?native:Fsc_codegen.Native.ctx ->
  compiled_artifact ->
  artifact

(** The full stencil pipeline: {!compile} then {!link}. [merge]
    defaults to [true] and exists for ablation studies. *)
val stencil :
  ?target:target ->
  ?merge:bool ->
  ?engine:exec_engine ->
  ?native:Fsc_codegen.Native.ctx ->
  string ->
  artifact * stencil_stats

(** Execute the program's [_QQmain]; for GPU targets, synchronise device
    mirrors back to the host afterwards; for [Dist] targets, gather the
    scattered rank-local buffers back into the host globals.

    Before [_QQmain] allocates, the previous run's named grids (and
    their GPU twins) and [Dist] rank blocks go back to the storage
    arena ({!Fsc_rt.Memref_rt.release}), so a re-run reuses their
    storage: a grid from {!buffer} is valid until this artifact's next
    [run]. Clone it to keep it longer.

    An artifact is run by one caller at a time, as its
    {!Fsc_rt.Interp} context already requires (so are its kernels'
    bound runners).
    @raise Fsc_dmp.Decomp.Invalid_decomp when a distributed kernel's
    grid cannot host the requested rank count. *)
val run : artifact -> unit

(** Drain any in-flight native builds, so short runs still publish their
    compiled plugins to the artifact cache. Joins no domain: the
    artifact's workers belong to the shared pool and serve the next
    artifact. The artifact stays runnable. *)
val shutdown : artifact -> unit

(** Look up a named Fortran array allocated during the last run. Valid
    until the artifact's next {!run}, which hands its storage back to
    the arena. *)
val buffer : artifact -> string -> Fsc_rt.Memref_rt.t option

val buffer_exn : artifact -> string -> Fsc_rt.Memref_rt.t
