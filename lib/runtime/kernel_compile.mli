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
  l_vector_width : int;  (** > 1 on specialised (unroll + unchecked) *)
}

type nest = {
  n_loops : loop_spec list;  (** outermost first *)
  n_stores : store_stmt list;
  n_uses_iv : bool;  (** body reads induction values *)
  n_flops_per_cell : int;
  n_loads_per_cell : int;
  n_tile : int list;
      (** rows-per-cache-tile hint from the ["cpu_tile"] annotation set by
          {!Fsc_lowering.Loop_tiling.annotate_cpu}; [[]] when absent *)
}

type spec = {
  k_nests : nest list;
  k_num_bufs : int;
  k_num_scalars : int;
}

(** Raised by {!analyze} (and by {!run} on buffer-shape violations);
    carries the reason shown in diagnostics. *)
exception Fallback of string

(** Analyse a lowered kernel [func.func].
    @raise Fallback when the kernel is outside the supported shape. *)
val analyze : Op.op -> spec

(** Non-raising wrapper around {!analyze}. *)
val try_analyze : Op.op -> (spec, string) result

(** Is this nest's innermost loop specialised (enabling bounds-check-free
    accesses and unrolling)? *)
val nest_specialized : nest -> bool

(** Shared helpers for alternative execution engines
    ({!Kernel_bytecode}): validate that all buffers share extents and
    return their stride vector.
    @raise Fallback on mismatched buffer extents. *)
val check_buffers : Memref_rt.t array -> int array

(** Constant flat-offset delta of an index-form list under [strides]
    (the per-dimension constant offsets; induction contributions are
    added separately from the loop bases). *)
val delta_of : int array -> index_form list -> int

(** Raised by {!check_nest_bounds}; carries the offending access. *)
exception Out_of_bounds of string

(** [check_nest_bounds ~strides ~bufs nest] proves that every access of
    the nest's whole iteration space lands inside its buffer, at the
    flat offset the engines compute (loop base plus {!delta_of}). The
    engines that skip Bigarray's bounds checks (vector, native) run it
    before dispatching a nest. An empty iteration space passes. A
    successful check allocates nothing.
    @raise Out_of_bounds naming the first access outside its buffer, or
    a buffer index the call did not pass. *)
val check_nest_bounds :
  strides:int array -> bufs:Memref_rt.t array -> nest -> unit

(** Execute one nest. *)
val run_nest :
  nest ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** Execute the whole kernel: every nest in order. All buffers must share
    extents (one stencil program's index space).
    @raise Fallback on mismatched buffer extents. *)
val run :
  spec ->
  ?pool:Domain_pool.t ->
  bufs:Memref_rt.t array ->
  scalars:float array ->
  unit ->
  unit

(** Cells written / flops / memory accesses per invocation (summed over
    nests) — inputs to the GPU simulator's roofline accounting. *)
val cells : spec -> int

val flops : spec -> int
val loads : spec -> int
