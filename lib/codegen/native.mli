(** The native JIT tier: emitted OCaml, compiled with
    [ocamlopt -shared], Dynlink'ed, cached. The compiler is the one
    [ocamlfind ocamlopt -only-show] resolves, probed once per process
    and then run directly; on Linux plugins link with [ld -shared]
    rather than the gcc driver.

    A {!ctx} owns the toolchain probe, the content-addressed artifact
    cache (generated [.ml], built [.cmxs] and a toolchain [.stamp] as
    sidecars, revalidated at startup) and the in-flight build table. A
    {!kernel} binds on its first call — strides are call-time facts —
    emits source with everything baked in, and serves from the vector
    engine until its plugin is resident ([Async] mode builds on a
    background thread; [Sync] builds inline for tests and benches).

    v2: emission is a scheduling codegen ({!Emit}) — rolling register
    windows, row blits, unrolling and cross-nest fusion — and execution
    dispatches emitted {e groups} with an in-plugin [pfor] work-sharer
    instead of chunking around per-nest entries.

    The fallback chain never fails a run: missing toolchain, emit
    unsupported, compile/Dynlink failure (including an unusable cache
    or temp directory), stale stamps, bounds
    validation and shape guards all drop to the vector engine (per nest
    for emit/bounds failures, per kernel otherwise), counted on
    [codegen.*] Obs counters and summarised by {!report}. Results are
    bitwise identical to the interp and vector engines. *)

module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Cache = Fsc_cache.Cache

(** Cache format/codegen generation; part of every artifact key. *)
val format_version : int

type mode =
  | Async  (** build in the background, vector serves meanwhile *)
  | Sync  (** build inline on the first call (tests, benches) *)

type ctx
type kernel

(** [create ()] probes the toolchain and revalidates cached sidecars
    against its stamp. [ocamlfind] (or the [SFC_NATIVE_OCAMLFIND] env
    var) names the findlib driver that resolves the compiler; builds
    run the resolved compiler directly. [cache] defaults to a fresh
    disk cache in the default directory; pass the driver's cache to
    share one directory. [l2_kb] is accepted and ignored: nothing
    derives from a cache budget any more, and the benchmark harness
    still passes one. Probe failure is recorded, not raised: every
    kernel of the ctx then runs on the vector engine. *)
val create :
  ?cache:Cache.t -> ?mode:mode -> ?ocamlfind:string -> ?l2_kb:int -> unit ->
  ctx

val cache : ctx -> Cache.t

(** Why the native tier is disabled, if it is. *)
val toolchain_error : ctx -> string option

(** One line for [--stats]: the resolved compiler every build runs, its
    version and the link command, or why the tier is off. *)
val toolchain_summary : ctx -> string

(** Sidecar sets dropped by startup revalidation: their stamp is not
    this toolchain's (compiler, shim or flags changed — the flags
    include the link command). *)
val stale_dropped : ctx -> int

(** Wrap one analysed kernel. Compiles the vector fallback plan
    immediately; emission and the native build happen lazily at the
    first {!run}. *)
val prepare : ctx -> name:string -> Kc.spec -> kernel

val name : kernel -> string

(** The vector-engine plan used whenever the native path is not. *)
val plan : kernel -> Kb.plan

(** Execute the kernel: emitted groups where ready and proven in
    bounds, the vector engine everywhere else. Parallel outer levels
    are work-shared {e inside} the plugin when [pool] has more than one
    worker; shift-fused groups dispatch their members' standalone
    entries in that case (the fused schedule is serial). Never fails
    due to the native tier. One caller at a time: the vector fallbacks
    are {!Kb.runner}s kept on the kernel.
    @raise Kc.Fallback on mismatched buffer extents (as {!Kb.runner}). *)
val run :
  kernel ->
  ?pool:Fsc_rt.Domain_pool.t ->
  bufs:Fsc_rt.Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** Block until the kernel's build (if one started) completed. *)
val await : kernel -> unit

(** {!await} plus reaping the build thread — run at artifact shutdown
    so short processes still publish their plugins to the cache. *)
val drain : kernel -> unit

type origin =
  | Origin_built  (** cold: compiled in this process *)
  | Origin_cache  (** warm: Dynlink'ed a stamped cached [.cmxs] *)
  | Origin_memo  (** an identical plugin was already resident *)

type report = {
  rp_engine : string;  (** ["native"], ["mixed"] or ["vector"] *)
  rp_detail : string;  (** one human line for [--stats] *)
  rp_build_ms : float option;  (** compile wall time, cold builds only *)
  rp_origin : origin option;
  rp_native_nests : int;
  rp_total_nests : int;
  rp_fused_nests : int;  (** nests running inside multi-nest groups *)
  rp_reuse_windows : int;  (** rolling register windows in the module *)
  rp_copy_blits : int;  (** innermost copy loops emitted as row blits *)
  rp_par_mode : string option;
      (** how the last native run work-shared: ["in-plugin pool(N)"] or
          ["serial"]; [None] before the first native run *)
  rp_pending_runs : int;  (** calls served by vector mid-build *)
  rp_guard_misses : int;  (** calls whose shapes differed from bind *)
}

val report : kernel -> report

(** [= (report k).rp_detail] *)
val describe : kernel -> string
