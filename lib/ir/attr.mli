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
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** {2 Accessors}

    All raise [Invalid_argument] on a shape mismatch — verifier bugs
    should be loud. [as_float] accepts ints; [as_index] accepts arrays of
    ints; [as_string] accepts symbols. *)

val as_int : t -> int
val as_float : t -> float
val as_string : t -> string
val as_index : t -> int list
