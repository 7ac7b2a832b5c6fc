(** Dialect registry.

    Real MLIR tools only accept operations whose dialect they register:
    the paper's module-splitting design exists because Flang does not
    register builtin/scf/memref and mlir-opt does not register FIR. A
    {!context} is the set of dialects one "tool" knows about; the
    verifier rejects modules containing operations outside it.

    Dialects also carry per-operation structural expectations, custom
    verifiers, and the purity/terminator traits the generic passes
    (CSE, DCE, greedy rewriting) rely on. *)

type op_verifier = Op.op -> (unit, string) result

type op_info = {
  oi_name : string;
  oi_num_operands : int;  (** -1 = variadic/unchecked *)
  oi_num_results : int;
  oi_num_regions : int;
  oi_verify : op_verifier option;
  oi_pure : bool;  (** pure ops may be CSE'd and DCE'd *)
  oi_terminator : bool;  (** must be the last op of its block *)
}

type dialect = {
  d_name : string;
  mutable d_ops : (string, op_info) Hashtbl.t;
}

(** Get-or-create a dialect in the global table. *)
val define_dialect : string -> dialect

(** Register an operation with its dialect. [num_*] default to
    unchecked; [pure] and [terminator] default to [false]. *)
val define_op :
  ?num_operands:int ->
  ?num_results:int ->
  ?num_regions:int ->
  ?verify:op_verifier ->
  ?pure:bool ->
  ?terminator:bool ->
  dialect ->
  string ->
  unit

(** ["arith.addf"] -> ["arith"]. *)
val dialect_of_op_name : string -> string

(** [in_dialect name d] is [dialect_of_op_name name = d], without
    building the substring. *)
val in_dialect : string -> string -> bool

val lookup_op : string -> op_info option
val op_is_pure : Op.op -> bool

(** A tool's registry: the set of dialect names it accepts. *)
type context = { ctx_name : string; mutable ctx_dialects : string list }

(** The three tool registries of the paper's pipeline: Flang (FIR +
    arith/math/func/cf/omp/llvm, but no builtin/scf/memref/gpu/stencil),
    mlir-opt (everything standard, no FIR), and xDSL (everything,
    including stencil/dmp/mpi). *)

val flang_context : unit -> context
val mlir_opt_context : unit -> context

(** Like {!op_registered} but [builtin.module] itself is accepted by
    every tool. *)
val op_accepted : context -> Op.op -> bool
