(** Closure-compiling "JIT" for lowered stencil kernels.

    The interpreter executes any IR but pays tree-walking overhead per
    operation; this module compiles the restricted shape produced by the
    stencil lowering — perfect scf/omp loop nests over memref loads at
    constant offsets, pure float arithmetic, memref stores — into nested
    OCaml closures over the raw Bigarray data with precomputed
    flat-offset deltas. This is the real, measured performance gap behind
    the paper's "Stencil vs Flang only" series: the domain restriction is
    what makes the specialised compilation possible.

    A kernel function may contain several sequential loop nests (e.g. the
    Gauss-Seidel sweep plus its copy-back); each compiles independently
    and they run in order. Kernels outside the supported shape report a
    reason and run on the interpreter instead. *)

open Fsc_ir

type index_form =
  | Iv of int * int  (** loop level, constant offset *)
  | Cst of int

type fexpr =
  | F_load of int * index_form list  (** buffer arg index, per-dim index *)
  | F_scalar of int  (** scalar arg index *)
  | F_const of float
  | F_ivf of int * int  (** float of (loop iv + offset): stencil.index *)
  | F_unary of string * fexpr
  | F_binary of string * fexpr * fexpr

type store_stmt = {
  st_buf : int;
  st_index : index_form list;
  st_expr : fexpr;
}

type loop_spec = {
  l_level : int;  (** 0 = outermost within its nest *)
  l_dim : int;  (** buffer dimension this level walks *)
  l_lb : int;
  l_ub : int;  (** exclusive *)
  l_parallel : bool;
}

type nest = {
  n_loops : loop_spec list;  (** outermost first *)
  n_stores : store_stmt list;
  n_uses_iv : bool;  (** body reads induction values *)
  n_flops_per_cell : int;
  n_loads_per_cell : int;
}

type spec = {
  k_nests : nest list;
  k_num_bufs : int;
  k_num_scalars : int;
}

(** Raised when the kernel analysis rejects a kernel ({!try_analyze}
    returns it as [Error]) and by {!run} on buffer-shape violations;
    carries the reason shown in diagnostics. *)
exception Fallback of string

(** Analyse a lowered kernel [func.func]; [Error] when the kernel is
    outside the supported shape. *)
val try_analyze : Op.op -> (spec, string) result

(** Shared helpers for alternative execution engines
    ({!Kernel_bytecode}): validate that all buffers share extents and
    return their stride vector.
    @raise Fallback on mismatched buffer extents. *)
val check_buffers : Memref_rt.t array -> int array

(** Constant flat-offset delta of an index-form list under [strides]
    (the per-dimension constant offsets; induction contributions are
    added separately from the loop bases). *)
val delta_of : int array -> index_form list -> int

(** [compile_expr ~unchecked bufs scalars strides ivs e] is the closure
    engine's evaluator for [e]: applied to a cell's base flat offset,
    it reads loads at [base + delta_of strides idx] (Bigarray's checked
    accesses unless [unchecked]) and induction values from [ivs]
    (indexed by loop level) at call time. *)
val compile_expr :
  unchecked:bool ->
  Memref_rt.t array ->
  float array ->
  int array ->
  int array ->
  fexpr ->
  int ->
  float

(** Raised by {!check_nest_bounds}; carries the offending access. *)
exception Out_of_bounds of string

(** [check_nest_bounds ~strides ~bufs nest] proves that every access of
    the nest's whole iteration space lands inside its buffer, at the
    flat offset the engines compute (loop base plus {!delta_of}). Every
    engine that skips Bigarray's bounds checks (closure, vector, native)
    runs it before dispatching a nest, and skips them only when it
    passes. An empty iteration space passes. A successful check
    allocates nothing.
    @raise Out_of_bounds naming the first access outside its buffer, or
    a buffer index the call did not pass. *)
val check_nest_bounds :
  strides:int array -> bufs:Memref_rt.t array -> nest -> unit

(** Execute one nest: on unchecked accesses when {!check_nest_bounds}
    proves the nest in range, otherwise on Bigarray's checked accesses.
    @raise Invalid_argument on the first access outside its buffer. *)
val run_nest :
  nest ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** Execute the whole kernel: every nest in order. All buffers must share
    extents (one stencil program's index space).
    @raise Fallback on mismatched buffer extents.
    @raise Invalid_argument on an access outside its buffer (see
    {!run_nest}). *)
val run :
  spec ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

val flops : spec -> int
val loads : spec -> int
