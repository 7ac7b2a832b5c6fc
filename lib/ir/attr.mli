(** Operation attributes: compile-time constant metadata attached to
    operations, mirroring MLIR's attribute dictionary. The textual form
    ({!to_string}) round-trips through {!Parser.parse_attr}. *)

type t =
  | Unit_a
  | Bool_a of bool
  | Int_a of int
  | Float_a of float
  | Str_a of string
  | Type_a of Types.t
  | Arr_a of t list
  | Index_a of int list  (** [#stencil.index<0, -1>] and friends *)
  | Sym_a of string  (** [@symbol] reference *)
  | Dict_a of (string * t) list
  | Loc_a of int * int
      (** source location [loc(line:col)] threaded from the Fortran
          frontend onto lowered operations *)

val to_string : t -> string

(** Append {!to_string}'s text to a buffer; [add_type] prints the
    [Type_a] payloads ({!Types.to_buffer}, or a printer's cached
    form). *)
val to_buffer :
  add_type:(Buffer.t -> Types.t -> unit) -> Buffer.t -> t -> unit

(** [s] quoted with OCaml escapes, as [Printf "%S"] prints it (the form
    {!Parser} reads back). *)
val add_quoted : Buffer.t -> string -> unit

(** {2 Accessors}

    All raise [Invalid_argument] on a shape mismatch — verifier bugs
    should be loud. [as_float] accepts ints; [as_index] accepts arrays of
    ints; [as_string] accepts symbols. *)

val as_int : t -> int
val as_string : t -> string
val as_index : t -> int list
