(** Core SSA IR: values, operations, blocks and regions.

    The representation mirrors MLIR: an operation has operands (SSA
    values), results (SSA values it defines), an attribute dictionary and
    nested regions; a region holds blocks; a block holds block arguments
    and a doubly-linked list of operations. Everything is mutable because
    the paper's transformations (discovery, extraction, merging,
    lowering) are all in-place IR surgery.

    Invariant: every value knows its uses — the (op, operand-index) pairs
    referencing it. All operand mutation must go through {!set_operand} /
    {!set_operands} / {!erase} so use lists stay consistent. *)

type value = {
  v_id : int;  (** process-unique id *)
  mutable v_type : Types.t;
  mutable v_def : def;
  mutable v_uses : use list;
}

and def =
  | Op_result of op * int
  | Block_arg of block * int

and use = {
  u_op : op;
  u_index : int;  (** which operand slot of [u_op] *)
}

and op = {
  o_id : int;
  mutable o_name : string;  (** e.g. ["arith.addf"] *)
  mutable o_operands : value array;
  mutable o_results : value array;
  mutable o_attrs : (string * Attr.t) list;
  mutable o_regions : region array;
  mutable o_parent : block option;
  mutable o_prev : op option;
  mutable o_next : op option;
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_parent : region option;
}

and region = {
  g_id : int;
  mutable g_blocks : block list;
  mutable g_parent : op option;
}

(** {2 Values} *)

val value_type : value -> Types.t
val has_uses : value -> bool
val num_uses : value -> int

(** [None] for block arguments. *)
val defining_op : value -> op option

(** {2 Use-list-preserving mutation} *)

val set_operand : op -> int -> value -> unit
val replace_all_uses_with : value -> value -> unit

(** {2 Construction} *)

val create_region : unit -> region

(** A detached block with arguments of the given types. *)
val create_block : ?args:Types.t list -> unit -> block

val add_block : region -> block -> unit

(** A fresh region containing a fresh (possibly argumented) block. *)
val region_with_block : ?args:Types.t list -> unit -> region * block

(** Create a detached operation. Result values are created from
    [results] types; regions are adopted. *)
val create :
  ?operands:value list ->
  ?results:Types.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:region list ->
  string ->
  op

(** {2 Accessors} *)

val result : ?index:int -> op -> value
val results : op -> value list
val operand : ?index:int -> op -> value
val operands : op -> value list
val num_operands : op -> int
val num_results : op -> int
val region : ?index:int -> op -> region
val regions : op -> region list

val has_attr : op -> string -> bool
val attr : op -> string -> Attr.t option

(** @raise Invalid_argument when missing. *)
val attr_exn : op -> string -> Attr.t

val set_attr : op -> string -> Attr.t -> unit

(** The frontend source location carried by the op's ["loc"] attribute
    ([Attr.Loc_a]), when present: [(line, col)]. *)
val location : op -> (int * int) option
val int_attr : op -> string -> int
val string_attr : op -> string -> string

(** {2 Linked-list surgery} *)

val parent_block : op -> block option

(** The operation owning the region the op's block belongs to. *)
val parent_op : op -> op option

(** Detach from the current block (no-op when detached). *)
val unlink : op -> unit

val append_to : block -> op -> unit
val prepend_to : block -> op -> unit

(** @raise Invalid_argument when [anchor] is detached. *)
val insert_before : anchor:op -> op -> unit

val insert_after : anchor:op -> op -> unit

(** Unlink [op] and drop its operand uses. Its own results must be
    unused.
    @raise Invalid_argument otherwise. *)
val erase : op -> unit

(** Move the producer chain of a value before [anchor] when positioned
    after it in the same block (dependencies first). Only correct for
    pure chains; callers are responsible. *)
val hoist_chain_before : anchor:op -> value -> unit

(** {2 Iteration} *)

val block_ops : block -> op list

(** Safe against removal of the currently visited op. *)
val iter_block_ops : (op -> unit) -> block -> unit

val first_op : block -> op option
val last_op : block -> op option
val block_arg : ?index:int -> block -> value
val block_args : block -> value list

(** Pre-order walk over [op] and everything nested in its regions. *)
val walk : (op -> unit) -> op -> unit

(** Like {!walk} but excluding [op] itself. *)
val walk_inner : (op -> unit) -> op -> unit

val collect_ops : (op -> bool) -> op -> op list

(** {2 Modules} *)

val create_module : unit -> op
val module_block : op -> block
val is_module : op -> bool

(** {2 Cloning} *)

(** Deep-copy [op] including nested regions. [mapping] (value id -> new
    value) translates free values; values defined inside the clone are
    remapped automatically and recorded in [mapping]. The clone is
    detached. *)
val clone : ?mapping:(int, value) Hashtbl.t -> op -> op

(** {2 Debug} *)

val to_debug_string : op -> string
