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
    they read. The leading parallel loop levels are flattened and
    work-shared over the {!Domain_pool}; each parallel index sweeps its
    sequential rows in order.
    A plan runs only through {!runner}, which binds each nest to its
    buffers and scalars once and re-runs that binding.

    Results are bitwise identical to the closure engine: no float
    reassociation (a fused sum adds its loads in the tree's
    left-leaning order; row programs and hoisted subtrees run the same
    operations in the same order), and nests whose statements read
    a buffer the nest writes — where row batching could change the
    read/write interleaving — fall back to the closure engine, as do
    unsupported shapes (compile time) and nests the bounds proof
    rejects (run time). Fallbacks are visible per nest via {!summary} /
    {!fallbacks} and counted on the ["rt.vector.fallbacks"] Obs
    counter; execution volume appears on ["rt.vector.rows"]. *)

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

(** [runner ?pool plan], the engine's one execution entry point, runs
    every nest of the kernel in order. A runner serves one caller at a
    time: calls must not overlap. Parallel nests are work-shared over
    [pool] when given, each chunk on an executor of its own. It binds
    every nest on its first call (the bounds proof, the row closures
    and scratch rows) and reuses that binding while each buffer has
    physically the same storage and equal extents and strides (a new
    record over the same storage, as a re-run's arena-recycled grid,
    keeps it) and the scalars are bitwise the same, rebinding
    otherwise; binding reads the buffers' shapes and storage, never
    their contents. Nests the plan or the bounds proof reject run on
    the checked closure engine, with [pool].
    @raise Kc.Fallback on mismatched buffer extents (as {!Kc.run}). *)
val runner :
  ?pool:Domain_pool.t ->
  plan ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit

(** The plan of the nest at [index] (0-based) alone, for engines that
    run their own nests and route the others to the vector engine (the
    native JIT's per-nest fallback). [index] must be in range. *)
val nest_plan : plan -> int -> plan
