(** Parser for the generic operation syntax emitted by {!Printer}.

    Scannerless recursive descent over the raw string: MLIR's shaped-type
    syntax (e.g. [memref<10x20xf64>]) does not tokenise cleanly, so
    everything is parsed character-wise. *)

exception Parse_error of string * int  (** message, byte offset *)

(** Parser state; exposed so {!parse_type} / {!parse_attr} can be used
    directly on type/attribute fragments (as the tests do). *)
type state = {
  src : string;
  mutable pos : int;
  values : (string, Op.value) Hashtbl.t;  (** [%name] -> value *)
  blocks : (string, Op.block) Hashtbl.t;  (** [^label] -> block *)
}

(** Parse one type at the current position. *)
val parse_type : state -> Types.t

(** Parse one attribute at the current position. *)
val parse_attr : state -> Attr.t

val parse_module_exn : string -> Op.op

val parse_module_result : string -> (Op.op, string) result
