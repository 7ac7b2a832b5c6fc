(** Int-keyed table for IR ids (which are always positive), allocating
    nothing on the minor heap per lookup or insert. *)

type t

(** A table sized for about [n] entries (it grows as needed). *)
val create : int -> t

(** The value bound to an id, or [-1]. *)
val find : t -> int -> int

(** Bind an id (> 0) to a value. *)
val replace : t -> int -> int -> unit
