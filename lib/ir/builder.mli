(** Insertion-point based IR builder, the work-horse of every lowering. *)

type insertion =
  | At_end of Op.block
  | At_start of Op.block
  | Before of Op.op
  | After of Op.op
      (** after inserting, the point advances so consecutive inserts stay
          in source order *)

type t = { mutable point : insertion; mutable loc : (int * int) option }

val create : insertion -> t
val at_end : Op.block -> t
val before : Op.op -> t
val after : Op.op -> t

(** Current source location [(line, col)]. While set, every op built via
    {!op}/{!op1} carries it as a ["loc"] attribute ({!Attr.Loc_a}) — the
    frontend lowering updates it per statement/expression so diagnostics
    can point back into the Fortran source. *)
val set_loc : t -> (int * int) option -> unit

val loc : t -> (int * int) option

(** Insert an already-created op at the current point. *)
val insert : t -> Op.op -> Op.op

(** Create an op and insert it; attaches the builder's current source
    location unless [attrs] already has a ["loc"] entry. *)
val op :
  t ->
  ?operands:Op.value list ->
  ?results:Types.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  Op.op

(** Like {!op} for single-result operations; returns the result value. *)
val op1 :
  t ->
  ?operands:Op.value list ->
  ?results:Types.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  Op.value

(** The block the insertion point lives in. *)
val block : t -> Op.block
