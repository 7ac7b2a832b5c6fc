(** Affine analysis of FIR index expressions.

    The discovery pass must understand the expressions feeding each
    dimension of a [fir.coordinate_of]: it walks backwards through
    [fir.convert] and i32 arithmetic to decide whether an index is "loop
    variable plus constant offset" ([data(j, i-1)] style), a constant, or
    something non-affine that disqualifies the candidate store. *)

open Fsc_ir

(** Result of analysing one index expression. *)
type form =
  | Affine of Op.value * int
      (** [Affine (iv, c)]: the index is the [fir.do_loop] induction
          block-argument [iv] plus the compile-time constant [c]. *)
  | Const of int  (** a compile-time constant subscript *)
  | Unknown  (** anything else (indirect, multiplicative in an iv, ...) *)

(** Analyse an index value into its affine {!form}. Walks through
    [fir.convert], [arith.index_cast], [fir.no_reassoc] and combines
    [arith.addi]/[subi]/[muli] where the result stays affine. *)
val analyze : Op.value -> form

(** Constant-evaluate an integer/index expression (used on loop bounds,
    which the frontend emits as convert chains over parameters). Returns
    [None] when the value is not compile-time constant. *)
val eval_const : Op.value -> int option

(** The "root" of an array reference: the storage object a
    [fir.coordinate_of] ultimately addresses. *)
type array_root = {
  root_value : Op.value;
      (** the [fir.alloca] result (stack array, or the pointer cell of a
          heap array) or a function entry-block argument (dummy array) *)
  root_name : string;  (** Fortran variable name, when recorded *)
  root_elem : Types.t;  (** element type *)
  root_extents : int list;  (** per-dimension extents; [-1] = dynamic *)
}

(** Resolve the root of an access base value, handling both FIR array
    representations: the stack route (base is the [fir.alloca] itself)
    and the heap route (base is a [fir.load] of the pointer cell — the
    cell is returned so both routes to one array share a root). *)
val resolve_root : Op.value -> array_root option

(** Are all extents compile-time known? *)
val root_is_static : array_root -> bool
