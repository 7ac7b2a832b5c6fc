(** FIR — the Fortran IR dialect produced by the mini-Flang frontend.

    Modelled on flang's FIR, restricted to the operations the paper's
    discovery pass walks. The stack/heap representation split the paper
    calls out is real here: stack arrays are accessed straight off the
    [fir.alloca] result while heap (allocatable) arrays go through a
    pointer cell that must be [fir.load]ed before [fir.coordinate_of]. *)

open Fsc_ir

(** {2 Storage} *)

(** Stack allocation; result is [!fir.ref<in_type>]. [name] becomes the
    [bindc_name] attribute carrying the Fortran variable name. *)
val alloca : Builder.t -> ?name:string -> Types.t -> Op.value

(** Heap allocation; result is [!fir.heap<in_type>]. *)
val allocmem : Builder.t -> ?name:string -> Types.t -> Op.value

val freemem : Builder.t -> Op.value -> unit

(** Pointee type of a [!fir.ref]/[!fir.heap] value. *)
val referenced_type : Op.value -> Types.t

val load : Builder.t -> Op.value -> Op.value
val store : Builder.t -> Op.value -> Op.value -> unit

(** Address of an array element: base is an array reference, indices are
    zero-based per-dimension coordinates (index-typed). *)
val coordinate_of : Builder.t -> Op.value -> Op.value list -> Op.value

(** {2 Value operations} *)

val convert : Builder.t -> to_:Types.t -> Op.value -> Op.value

(** Reassociation fence (Fortran parentheses). *)
val no_reassoc : Builder.t -> Op.value -> Op.value

(** {2 Control flow} *)

(** Fortran DO loop: index runs [lb..ub] {e inclusive} with [step]. The
    body callback receives the induction variable and iteration values,
    returning the next iteration values. *)
val do_loop :
  Builder.t ->
  lb:Op.value ->
  ub:Op.value ->
  step:Op.value ->
  ?iter_args:Op.value list ->
  (Builder.t -> Op.value -> Op.value list -> Op.value list) ->
  Op.value list

(** While-style loop: [cond] builds the condition region (returning the
    i1 to test), [body] the body region. *)
val iterate_while :
  Builder.t ->
  cond:(Builder.t -> Op.value) ->
  body:(Builder.t -> unit) ->
  Op.op

(** Fortran EXIT / CYCLE of the innermost enclosing loop. *)
val exit_ : Builder.t -> unit

val cycle : Builder.t -> unit

val if_ :
  Builder.t ->
  Op.value ->
  ?else_:(Builder.t -> unit) ->
  (Builder.t -> unit) ->
  Op.op

val call :
  Builder.t -> callee:string -> results:Types.t list -> Op.value list -> Op.op

(** {2 Queries used by the discovery pass} *)

val is_store : Op.op -> bool
val is_load : Op.op -> bool
val is_coordinate_of : Op.op -> bool

(** (lb, ub, step) operands of a [fir.do_loop]. *)
val do_loop_bounds : Op.op -> Op.value * Op.value * Op.value

val do_loop_body : Op.op -> Op.block
val do_loop_induction_var : Op.op -> Op.value

(** The [bindc_name] of an allocation, when present. *)
val var_name : Op.op -> string option
