(** Quota-fair concurrent job scheduler: per-client bounded queues
    drained by weighted round-robin over a fixed pool of domain
    workers — the request-multiplexing layer under [sfc batch] and
    [sfc serve].

    Contract highlights:

    - {b backpressure}: {!submit} never blocks; a full scheduler yields
      [Error `Queue_full] (global capacity) or [Error `Quota_exceeded]
      (the client's in-flight bound) immediately and the caller decides
      whether to retry, shed or report;
    - {b fairness}: each backlogged client owns a queue; workers visit
      clients round-robin, dequeuing up to [weight] jobs per visit, so
      one client flooding the scheduler adds latency for itself, not
      for everyone else;
    - {b deadlines}: a job past its deadline resolves to {!Timed_out} —
      whether it is still queued (the worker sheds it unrun) or
      executing (the awaiter stops waiting; the worker's eventual result
      is discarded, since a running domain cannot be interrupted);
    - {b cancellation}: a job submitted with [cancelled] is shed at
      dequeue once the closure turns true (e.g. its client
      disconnected), resolving to {!Cancelled}; the same closure is
      available to the job body for mid-flight phase checks;
    - {b shutdown drains}: {!shutdown} stops intake, lets the workers
      finish every queued job, then joins them — submitted work is never
      silently dropped.

    Every job execution is recorded as an obs span ([cat:"server"]) and
    the scheduler keeps aggregate and per-client counters (see
    {!stats}). *)

type t

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the job raised; carries [Printexc.to_string] *)
  | Timed_out  (** deadline exceeded while queued or running *)
  | Cancelled  (** shed at dequeue: the [cancelled] closure turned true *)

(** A handle on one submitted job. *)
type 'a ticket

type reject =
  [ `Queue_full  (** backpressure: global capacity reached *)
  | `Quota_exceeded  (** the client's in-flight quota is exhausted *)
  | `Shutting_down  (** submitted after {!shutdown} began *) ]

(** [create ~workers ()] spawns [workers] domains; [queue_capacity]
    bounds the total queued jobs across clients (default 64);
    [default_quota] bounds each client's in-flight jobs unless
    overridden by {!configure_client} ([<= 0] means unbounded). *)
val create : ?queue_capacity:int -> ?default_quota:int -> workers:int -> unit -> t

(** Set a client's round-robin [weight] (jobs dequeued per rotation
    visit, min 1) and in-flight [quota] ([<= 0] clears it). Creates the
    client if it has not submitted yet. *)
val configure_client :
  t -> id:string -> ?weight:int -> ?quota:int -> unit -> unit

(** Forget a client once it has no queued or in-flight job: at once if
    it is idle, else when its last job resolves. Its jobs stay in the
    aggregate counters. Configured clients (see {!configure_client})
    are kept; an unknown id is ignored. [sfc serve] releases each
    connection's default client when the connection ends. *)
val release_client : t -> string -> unit

(** Enqueue a job. [client] names the submitting identity (default: a
    shared anonymous client); [deadline_s] is relative to submission
    time; [cancelled] is polled at dequeue — and may be polled by the
    job itself between phases. *)
val submit :
  t ->
  ?client:string ->
  ?cancelled:(unit -> bool) ->
  ?deadline_s:float ->
  (unit -> 'a) ->
  ('a ticket, reject) result

(** Block until the job resolves (or its deadline passes). Safe to call
    from any domain or thread, and repeatedly — the outcome is sticky.
    The job is already accounted when [await] returns: {!stats} read
    then no longer counts it in flight. *)
val await : 'a ticket -> 'a outcome

(** Jobs currently queued (not yet picked up), across all clients. *)
val queue_depth : t -> int

(** Drain then stop: reject new work, run everything queued, join the
    workers. Idempotent. *)
val shutdown : t -> unit

type client_stats = {
  c_id : string;
  c_weight : int;
  c_quota : int option;
  c_inflight : int;  (** queued + running right now *)
  c_queued : int;
  c_submitted : int;
  c_completed : int;
  c_rejected : int;
  c_shed : int;  (** dropped unrun at dequeue: expired or cancelled *)
}

type stats = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  shed : int;  (** jobs dropped unrun at dequeue (expired or cancelled) *)
  max_queue_depth : int;
  total_wait_s : float;  (** summed time jobs spent queued *)
  clients : client_stats list;  (** sorted by id *)
}

val stats : t -> stats
