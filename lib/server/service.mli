(** The compilation service protocol shared by [sfc batch] and
    [sfc serve]: newline-delimited JSON jobs in, newline-delimited JSON
    results out, jobs multiplexed over a {!Scheduler} pool with the
    artifact cache deduplicating repeated compiles.

    Job lines:

    {v
{"src": "path.f90", "target": "openmp", "threads": 4, "action": "run"}
{"source": "program p\n...", "action": "compile", "client": "team-a"}
{"action": "metrics"}                        (serve only)
{"action": "shutdown"}                       (serve only)
    v}

    [src] names a Fortran file; [source] carries inline text instead.
    [target] is serial (default) / openmp / gpu-initial / gpu-optimised;
    [threads] requires (or, absent a target, implies) openmp. [action]
    is [run] (default) or [compile]. An optional numeric [id] is echoed
    back; it defaults to the line's position. An optional [client]
    string names the scheduling identity (quota and fair-share bucket);
    it defaults to a per-connection identity under [serve] and a shared
    one under [run_batch].

    Result lines carry [id], [src], [action], [target], [status]
    (ok | error | timeout | cancelled | rejected), cache hit/miss/off,
    compile/run timings in milliseconds, the kernel count, per-grid
    checksums (full-precision strings, so equal grids give byte-equal
    results) and, when [status] is [error], the message — or, when
    [rejected], a [reason] (overloaded | quota-exceeded |
    shutting-down). A malformed or failing job fails {e alone}: its
    result line carries the error and every other job proceeds.

    A [{"action": "metrics"}] line is answered (in order, like a job)
    with one JSON object carrying the scheduler totals, per-client
    stats, queue depth, cache stats (including disk byte usage), the
    shared pool's participant count ([pool_size]) and the process-wide
    Obs counters — among them [pool.domains_spawned] (at most
    [pool_size - 1]: served openmp and dist jobs borrow the shared
    pool's workers) and [rt.arena_misses] (grid creates that found no
    recycled storage). A counter that never moved is absent. Its
    [artifact_pool] object holds the linked-artifact pool's [idle]
    count and [cap]; the [serve.artifact_reuses],
    [serve.artifact_evictions] and [serve.artifact_drops] counters
    track it. A pooled re-run never reaches the artifact cache, so it
    moves none of the [cache] stats. *)

type action =
  | Compile
  | Run

type job = {
  j_id : int;
  j_src : [ `Path of string | `Inline of string ];
  j_target : Fsc_driver.Pipeline.target;
  j_action : action;
  j_client : string option;  (** scheduling identity, if the job names one *)
}

type status =
  | Ok_
  | Error_ of string
  | Timeout
  | Cancelled_  (** client vanished; work shed before completion *)
  | Rejected_ of string  (** admission shed; carries the reason *)

type result_rec = {
  r_id : int;
  r_label : string;  (** the [src] path, or ["<inline>"] *)
  r_target : string;
  r_action : string;
  r_status : status;
  r_cache : [ `Hit | `Miss | `Off ];
  r_compile_ms : float;
  r_run_ms : float;
  r_kernels : int;
  r_checksums : (string * float) list;  (** sorted by grid name *)
}

(** Parse a target name as both the CLI and the job protocol spell it:
    serial, openmp (machine-default threads), gpu-initial, and
    gpu / gpu-optimised / gpu-optimized. *)
val target_of_name : string -> (Fsc_driver.Pipeline.target, string) result

(** Combine an optional target with an optional thread count: threads
    require (or, absent a target, imply) openmp, and must be >= 1.
    Shared by the CLI flags and the job protocol so both reject the
    same nonsense the same way. *)
val resolve_target :
  Fsc_driver.Pipeline.target option ->
  int option ->
  (Fsc_driver.Pipeline.target, string) result

(** Parse one job line. [index] supplies the default id. *)
val parse_job : index:int -> string -> (job, string) result

(** Should [serve] stop after this line? *)
val is_shutdown : string -> bool

(** Is this line a [{"action": "metrics"}] control line? *)
val is_metrics : string -> bool

(** Idle linked artifacts that repeated run requests re-run: keyed by
    the compile-cache key and the full target name, at most
    {!artifact_pool_cap} of them, least recently returned evicted
    first. Safe to share between workers: a job takes its artifact out
    of the pool for its run alone. [run_batch] and [serve] each own one
    for their lifetime. *)
type artifact_pool

(** The pool's bound on idle artifacts. *)
val artifact_pool_cap : int

val create_pool : unit -> artifact_pool

(** How many artifacts sit idle in the pool now. *)
val idle_artifacts : artifact_pool -> int

(** Compile (and for [Run], link + execute) one job. Never raises:
    failures become [Error_]. [should_cancel] is polled before the
    compile and again between the compile and run phases; once true the
    result is [Cancelled_] and the remaining phases are skipped. A
    completed run releases its grids to the storage arena
    ({!Fsc_rt.Memref_rt.release}) once their checksums are taken.

    With a [cache] and a [pool], a [Run] job first looks for an idle
    artifact of its source and target: one found is run again with no
    compile and no link (the reply still says [cache: hit];
    [compile_ms] is the pool lookup), a [serve.artifact_reuses] count.
    After a clean run an artifact whose compile was a cache hit (or
    that came from the pool) goes back to the pool, its grids released;
    one whose run raises, or whose job is cancelled between the phases,
    is dropped instead ([serve.artifact_drops]). *)
val execute :
  ?cache:Fsc_cache.Cache.t ->
  ?pool:artifact_pool ->
  ?should_cancel:(unit -> bool) ->
  job ->
  result_rec

(** Run a list of job lines through a worker pool. Results come back in
    input order regardless of completion order. [workers] defaults to
    the machine's recommended size; [deadline_s] applies per job.
    Submission retries for at most [overload_budget_s] seconds
    (default 30) when the queue is full, then sheds the job with a
    typed [rejected: overloaded] result — backpressure is latency up to
    a bound, never an infinite spin. With a [cache], repeated run jobs
    re-run pooled artifacts (see {!execute}); the pool lives as long as
    the call. *)
val run_batch :
  ?cache:Fsc_cache.Cache.t ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?deadline_s:float ->
  ?overload_budget_s:float ->
  string list ->
  string list

(** Serve the same protocol over a Unix domain socket. [handlers]
    connection-handler threads (default 4) of the calling domain accept
    concurrently, so a slow or stalled client occupies one handler, not
    the server; the accept loop survives transient failures ([EINTR],
    fd exhaustion). The scheduler's [workers] are the only domains
    spawned.
    Jobs from all connections share one scheduler with weighted
    round-robin fairness; [default_quota] bounds each client's
    in-flight jobs and [client_weights] pins per-client weights. A
    job line without a ["client"] field runs as its connection's
    client, which is released when the connection ends.
    [idle_timeout_s] disconnects (and cancels) a client that sends no
    complete line for that long. Returns after a client sends a
    shutdown line (the scheduler is drained and the socket file
    removed). Any stale socket file at [socket] is replaced. When a
    [cache] is given its disk store is swept (orphaned temp files
    removed, byte budget enforced) before serving, and repeated run
    jobs re-run pooled artifacts (see {!execute}) for as long as the
    server runs. Every socket the server opens is close-on-exec, so a
    process it spawns holds no client connection. *)
val serve :
  ?cache:Fsc_cache.Cache.t ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?deadline_s:float ->
  ?handlers:int ->
  ?default_quota:int ->
  ?client_weights:(string * int) list ->
  ?idle_timeout_s:float ->
  socket:string ->
  unit ->
  unit

(** Client helper: connect to [socket], send the job lines, half-close,
    and return the response lines (used by tests and scripts). *)
val request : socket:string -> string list -> string list
