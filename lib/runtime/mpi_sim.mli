(** Simulated MPI: SPMD execution of ranks inside one process with real
    message buffers — the functional layer backing the distributed-memory
    experiments (Figure 6). Thread-safe: each destination rank owns a
    mutex-guarded mailbox, so ranks may post and take messages
    concurrently from pool workers. Superstep ordering (all sends of a
    phase visible before the next phase's receives) is the caller's
    rendezvous barrier, not this module's. *)

type message = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_payload : float array;
}

type t

(** @raise Invalid_argument when [nranks < 1]. *)
val create : int -> t

(** Drop every undelivered message and zero {!messages} and {!bytes}.
    No send or receive may run concurrently. *)
val reset : t -> unit

(** Post a message into [dst]'s mailbox. Both endpoints are validated.
    @raise Invalid_argument on an out-of-range [src] or [dst]. *)
val send : t -> src:int -> dst:int -> tag:int -> float array -> unit

(** Take the oldest matching message out of [dst]'s mailbox
    (non-blocking).
    @raise Invalid_argument when absent — the error includes a summary
    of what {e is} pending for [dst], so a mismatched tag or a skipped
    exchange is diagnosable. *)
val recv : t -> src:int -> dst:int -> tag:int -> float array

(** Undelivered (src, dst, tag) triples across all mailboxes, oldest
    first per mailbox. *)
val pending : t -> (int * int * int) list

(** Total messages posted so far. *)
val messages : t -> int

(** Total payload bytes posted so far. *)
val bytes : t -> int
