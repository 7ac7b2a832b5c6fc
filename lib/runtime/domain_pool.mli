(** Work-sharing pool over OCaml domains: the OpenMP runtime of this
    substrate. A pool of [size] persistent workers executes parallel-for
    loops with guided work-stealing (per-worker contiguous segments,
    geometrically shrinking chunk claims, chunk stealing from other
    segments when a worker's own segment is drained); the calling domain
    participates as worker 0. Scheduling activity is visible through the
    [pool.*] Obs counters ([pool.chunks.caller], [pool.chunks.worker],
    [pool.steals]). *)

type t

(** Spawn a pool with [size] participants ([size - 1] worker domains
    plus the caller). *)
val create : int -> t

(** Number of participants (worker domains + caller). *)
val size : t -> int

(** Join all worker domains. The pool must be idle. *)
val shutdown : t -> unit

(** [parallel_for pool ~lo ~hi body] work-shares [lo, hi): [body lo' hi']
    is invoked on disjoint chunks covering the range, concurrently across
    the pool. Blocks until every chunk completed. [chunk] sets the
    minimum chunk granularity (clamped to [>= 1]); workers claim
    geometrically shrinking chunks down to that floor. Ranges smaller
    than twice the pool size run inline on the caller. When a chunk
    raises, no further chunks start, and the first exception is
    re-raised in the caller once every participant has stopped; the
    pool stays usable. *)
val parallel_for :
  ?chunk:int -> t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** [team pool ~members body] launches a fixed team: participant [m]
    (member 0 is the caller, members [1 .. members-1] are pinned pool
    workers) runs [body ~member:m ~barrier] exactly once. [barrier ()]
    is a reusable hybrid spin-then-block phase rendezvous over exactly
    the [members] participants — one team launch plus any number of
    cheap barriers replaces one full pool join per phase. Blocks until
    every member returned. Teams are not stealable: each member keeps
    its identity (and whatever state is keyed on it) across every
    phase of the launch. With [members = 1] the body runs inline and
    the barrier is a no-op.

    When a member raises, the team's barrier is poisoned: members
    waiting at it, and every member reaching it later, stop there; the
    first exception is re-raised in the caller once every member has
    returned, and the pool stays usable.

    The body must not use the pool itself (a nested [parallel_for] or
    [team] would deadlock). @raise Invalid_argument when [members < 1]
    or [members > size pool]. *)
val team :
  t -> members:int -> (member:int -> barrier:(unit -> unit) -> unit) -> unit

(** The machine's recommended worker count. *)
val recommended_size : unit -> int

(** A lazily created process-wide pool of {!recommended_size}. *)
val get_default : unit -> t

(** Run [f] with a fresh pool, shutting it down afterwards. *)
val with_pool : int -> (t -> 'a) -> 'a
