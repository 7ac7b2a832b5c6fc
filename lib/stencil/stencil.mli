(** The stencil dialect of the Open Earth Compiler (Gysi et al., TACO
    2021), as used by the paper via xDSL.

    Value vocabulary:
    - [!stencil.field<[l,h]x...xT>] — storage backing a grid (created
      from a memref by [stencil.external_load]);
    - [!stencil.temp<...>] — a value-semantics snapshot of a field,
      input/output of [stencil.apply];
    - [stencil.apply] — the computation: its region executes once per
      output cell; [stencil.access] reads an input temp at a constant
      offset from the current cell; [stencil.return] yields the value.

    Bounds are inclusive on both ends, as in the paper's Listing 2:
    [[-1,255]] means indices [-1..255] are addressable. *)

open Fsc_ir

(** The dialect handle (registration happens at module initialisation). *)
val d : Dialect.dialect

(** {2 Types} *)

val field_type : Types.bounds -> Types.t -> Types.t
val temp_type : Types.bounds -> Types.t -> Types.t

(** Bounds of a field/temp type.
    @raise Invalid_argument on other types. *)
val type_bounds : Types.t -> Types.bounds

(** Element type of a field/temp type. *)
val type_elem : Types.t -> Types.t

(** {2 Builders} *)

(** [external_load b memref ~bounds] wraps backing storage as a field. *)
val external_load : Builder.t -> Op.value -> bounds:Types.bounds -> Op.value

(** [load b field] snapshots a field into a temp. *)
val load : Builder.t -> Op.value -> Op.value

(** [store b temp field ~lb ~ub] writes the temp back over the inclusive
    index box [lb..ub]. *)
val store :
  Builder.t -> Op.value -> Op.value -> lb:int list -> ub:int list -> unit

(** [apply b ~inputs ~out_bounds ~out_elems body] builds a
    [stencil.apply]. [body] receives a builder positioned in the region
    and the block arguments (one per input) and returns the per-cell
    values handed to [stencil.return]. Returns the result temps. *)
val apply :
  Builder.t ->
  inputs:Op.value list ->
  out_bounds:Types.bounds ->
  out_elems:Types.t list ->
  (Builder.t -> Op.value list -> Op.value list) ->
  Op.value list

(** [access b temp ~offset] reads the input at a constant offset from
    the current output cell. *)
val access : Builder.t -> Op.value -> offset:int list -> Op.value

(** [index b ~dim] is the current cell's absolute index along [dim]. *)
val index : Builder.t -> dim:int -> Op.value

(** {2 Queries} *)

val is_apply : Op.op -> bool
val is_store : Op.op -> bool
val is_load : Op.op -> bool

(** Offset attribute of a [stencil.access]. *)
val access_offset : Op.op -> int list

(** [(lb, ub)] attributes of a [stencil.store]. *)
val store_bounds : Op.op -> int list * int list

(** The single body block of a [stencil.apply]. *)
val apply_body : Op.op -> Op.block

(** All accesses inside an apply as [(input index, offset)] pairs. *)
val apply_accesses : Op.op -> (int * int list) list

(** {2 Shape inference}

    Propagate bounds backwards from the [stencil.store] demands: each
    apply's results take the union of their stores' boxes, each input
    temp grows to cover the output box expanded by every offset it is
    accessed at, and field types absorb their temps' needs. *)
val infer_shapes_in_func : Op.op -> unit
