(** Row-at-a-time vectorised execution engine for compiled stencil
    kernels — the default CPU tier, with {!Kernel_compile}'s closure JIT
    as its per-nest fallback.

    Each nest's statements compile once into either a fused loop (at
    unit stride only: copy rows, and plain 4- or 6-point sums with an
    optional whole-sum scale) or a three-address row program: each
    instruction [dst := a op b] runs as one tight loop over the
    innermost row, and its operands are row registers, buffer rows read
    in place inside the op's loop, or invariant slots. Subtrees without
    loads are hoisted out of the row passes: evaluated once per row when
    they read no innermost induction value (constants, scalars, outer
    ivs), once per run into a fixed row when the innermost iv is all
    they read. Outer sequential dimensions execute in cache tiles of
    consecutive rows (sized by the ["cpu_tile"] annotation; a nest
    without one runs as a single tile), and the leading parallel loop
    levels are flattened and work-shared over the {!Domain_pool}.

    Results are bitwise identical to the closure engine: no float
    reassociation (a fused sum adds its loads in the tree's
    left-leaning order; row programs and hoisted subtrees run the same
    operations in the same order), and nests whose statements read
    a buffer the nest writes — where row batching could change the
    read/write interleaving — fall back to the closure engine, as do
    unsupported shapes (compile time) and nests the bounds proof
    rejects (run time). Fallbacks are visible per nest via {!summary} /
    {!fallbacks} and counted on the ["rt.vector.fallbacks"] Obs
    counter; execution volume appears on ["rt.vector.rows"] and
    ["rt.vector.tiles"]. *)

module Kc = Kernel_compile

(** A compiled execution plan for one kernel (every nest, in order). *)
type plan

(** How one statement runs: [s_kind] is ["copy"], ["wsum"] or ["expr"];
    [s_row_ops] is its passes over the row per execution (1 for a copy
    or a 4-/6-point sum; one per instruction of a row program, plus a
    store pass when its root is hoisted); [s_invariants] counts the
    subtrees it evaluates outside the row passes (per row, or once per
    run). *)
type stmt_shape = {
  s_kind : string;
  s_row_ops : int;
  s_invariants : int;
}

(** How one nest compiled. [N_vector shapes] lists the per-statement row
    shapes; [N_scalar reason] means the nest runs on the closure
    engine. *)
type nest_compile =
  | N_vector of stmt_shape list
  | N_scalar of string

(** Compile every nest of a kernel spec. Never fails: unsupported nests
    become closure-engine fallbacks recorded in the plan. *)
val compile_spec : Kc.spec -> plan

(** Per-nest compilation outcome, in nest order. *)
val summary : plan -> nest_compile list

(** [(nest index, reason)] for every nest that fell back at compile
    time. *)
val fallbacks : plan -> (int * string) list

val nest_count : plan -> int
val vectorised_nests : plan -> int

(** One line for [--stats]: vectorised nest count, each nest's shape
    (e.g. ["wsum+copy"], ["expr 7 row ops, 1 invariant"], or
    ["closure"]) and the reason of every fallback, e.g.
    ["vectorised (1/2 nests: expr 7 row ops, 1 invariant; closure);
    nest 2 -> closure: ..."]. *)
val describe : plan -> string

(** Execute the whole kernel: every nest in order, vectorised where the
    plan allows and on the closure engine otherwise. Parallel nests are
    work-shared over [pool] when given.
    @raise Kc.Fallback on mismatched buffer extents (as {!Kc.run}). *)
val run :
  plan ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** [runner plan] is a pool-less [run plan] for repeated calls by one
    caller at a time. It binds every nest on its first call (the checks,
    the row closures and row buffers {!run} builds on every call) and
    reuses that binding while the buffers are physically the same and
    the scalars bitwise the same, rebinding otherwise. Binding reads
    the buffers' shapes and storage, never their contents, so a reused
    binding computes exactly what {!run} would.
    @raise Kc.Fallback as {!run}. *)
val runner : plan -> bufs:Memref_rt.t array -> scalars:float array -> unit

(** Execute only the nest at [index] (0-based, nest order), with the
    same per-nest vectorised/closure selection and bind-time fallback
    as {!run}. For engines that interleave their own nest execution
    with vector-executed ones — the native JIT runs its emitted nests
    itself and routes skipped ones here.
    @raise Kc.Fallback as {!run}; [Failure] if [index] is out of
    range. *)
val run_nest :
  plan ->
  int ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit
