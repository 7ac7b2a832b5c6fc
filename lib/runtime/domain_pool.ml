(* Work-sharing pool over OCaml domains: the OpenMP runtime of this
   substrate. A pool of [size] persistent worker domains executes
   parallel-for loops; the calling domain acts as worker 0. Like the
   OpenMP runtime's one persistent thread team, linked artifacts share
   one process-wide pool ([shared]) through views of the width they
   ask for; private pools ([create]) serve tests and examples.

   Scheduling is guided work-stealing rather than a single shared index:
   the range is pre-split into one contiguous segment per worker, each
   worker claims geometrically shrinking chunks off its own segment's
   atomic cursor, and a worker that drains its segment steals chunks
   from the other segments. This keeps chunk claiming mostly
   uncontended, preserves locality (each worker sweeps one contiguous
   slab), and rebalances automatically when the per-chunk cost is skewed
   — the failure mode of the previous fixed [range / (size * 4)]
   chunking. *)

module Obs = Fsc_obs.Obs

(* Utilisation counters: "caller" chunks are executed by the domain that
   issued the parallel_for, "worker" chunks by pool workers, "steals"
   counts chunks executed off another worker's segment. caller >> worker
   means the range was too small (or the workers too slow to wake) for
   the pool to help; a large steal count means the load was skewed. *)
let c_parallel_for = Obs.counter "pool.parallel_for"
let c_serial_for = Obs.counter "pool.serial_for"
let c_caller_chunks = Obs.counter "pool.chunks.caller"
let c_worker_chunks = Obs.counter "pool.chunks.worker"
let c_steals = Obs.counter "pool.steals"
let c_teams = Obs.counter "pool.teams"
let c_team_barriers = Obs.counter "pool.team_barriers"

(* A reusable phase barrier: [await] blocks until all [parties] arrive,
   then releases the phase together.

   Hybrid spin-then-block, ticket based: arrival order is a monotone
   atomic ticket counter, a party's generation is [ticket / parties],
   and the last arriver of a generation publishes [phase = gen + 1].
   Early arrivers spin briefly on the phase word — a phase released
   while every party is still on-CPU costs no syscall — then fall back
   to a condition wait. The publish happens under the mutex before the
   broadcast, and blocked waiters re-check the phase under the same
   mutex, so no wakeup can be lost. Tickets never reset, which is what
   makes immediate reuse across back-to-back phases race-free: a fast
   party re-arriving before slow parties have observed the release
   simply lands in the next generation.

   A barrier can be poisoned (a team member raised): waiters wake up,
   and every current and later [await] raises [Aborted] instead of
   waiting for a party that will never arrive. *)
exception Aborted

module Barrier = struct
  type t = {
    b_parties : int;
    b_tickets : int Atomic.t; (* monotone arrival counter *)
    b_phase : int Atomic.t;   (* completed generations *)
    b_spin : int;             (* bounded spin before blocking *)
    b_mutex : Mutex.t;
    b_cond : Condition.t;
    b_poisoned : bool Atomic.t;
  }

  (* The default spin is deliberately small: on an oversubscribed host
     (more parties than cores) the release can only come after a
     reschedule, so long spins just burn the releaser's timeslice. *)
  let create ?(spin = 300) parties =
    { b_parties = parties; b_tickets = Atomic.make 0;
      b_phase = Atomic.make 0; b_spin = spin; b_mutex = Mutex.create ();
      b_cond = Condition.create (); b_poisoned = Atomic.make false }

  let poison b =
    Mutex.lock b.b_mutex;
    Atomic.set b.b_poisoned true;
    Condition.broadcast b.b_cond;
    Mutex.unlock b.b_mutex

  let await b =
    if Atomic.get b.b_poisoned then raise Aborted;
    if b.b_parties > 1 then begin
      let ticket = Atomic.fetch_and_add b.b_tickets 1 in
      let gen = ticket / b.b_parties in
      if ticket mod b.b_parties = b.b_parties - 1 then begin
        Mutex.lock b.b_mutex;
        Atomic.set b.b_phase (gen + 1);
        Condition.broadcast b.b_cond;
        Mutex.unlock b.b_mutex
      end
      else begin
        let spins = ref b.b_spin in
        while Atomic.get b.b_phase <= gen && !spins > 0 do
          decr spins;
          Domain.cpu_relax ()
        done;
        if Atomic.get b.b_phase <= gen then begin
          Mutex.lock b.b_mutex;
          while Atomic.get b.b_phase <= gen && not (Atomic.get b.b_poisoned)
          do
            Condition.wait b.b_cond b.b_mutex
          done;
          Mutex.unlock b.b_mutex;
          if Atomic.get b.b_phase <= gen then raise Aborted
        end
      end
    end
end

type task = {
  t_body : int -> int -> unit; (* lo, hi (exclusive) *)
  (* per-worker segment cursors and (exclusive) segment ends *)
  t_pos : int Atomic.t array;
  t_end : int array;
  t_min_chunk : int;
  (* the first exception a chunk raised, re-raised by the caller *)
  t_error : (exn * Printexc.raw_backtrace) option Atomic.t;
}

(* Two kinds of published work: a stealable parallel-for task, or a
   fixed-membership team in which participant [m] runs the body exactly
   once with its member index and a phase barrier shared by the team.
   Team work is deliberately not stealable: each member owns its slice
   of state for the whole launch, so the barrier can be the only
   synchronisation between phases. *)
type work =
  | W_for of task
  | W_team of {
      tm_members : int;
      tm_run : int -> unit; (* run member [m]; never raises *)
    }

(* One set of worker domains and its launch state. A [t] is a view of
   [width] participants over a core: a private pool's view spans its
   whole core, the shared core serves views of any width up to its
   size. [finish.(k)] is the completion barrier of a launch with [k]
   active participants (the caller and workers [1 .. k-1]); workers at
   or beyond the launch's participant count sit it out. [launch] is
   the guard under which callers take turns: one launch at a time per
   core, from whichever domain or thread issues it. *)
type core = {
  size : int;
  mutable workers : unit Domain.t array;
  work : work option ref;
  work_mutex : Mutex.t;
  work_cond : Condition.t;
  finish : Barrier.t array;
  launch : Mutex.t;
  mutable generation : int;
  mutable shutdown : bool;
  shared : bool;
}

type t = {
  core : core;
  width : int;
}

let size pool = pool.width

(* Claim the next chunk from segment [seg]: a quarter of what remains,
   never below the task's minimum chunk. fetch_and_add may over-claim
   past the segment end when racing a thief; the claimed window is
   clipped, so every index is still executed exactly once. Once a chunk
   has raised, nothing more is claimed. *)
let claim task seg =
  let pos = Array.unsafe_get task.t_pos seg in
  let seg_end = Array.unsafe_get task.t_end seg in
  let cur = Atomic.get pos in
  if cur >= seg_end || Option.is_some (Atomic.get task.t_error) then None
  else begin
    let remaining = seg_end - cur in
    let c = max task.t_min_chunk ((remaining + 3) / 4) in
    let lo = Atomic.fetch_and_add pos c in
    if lo >= seg_end then None else Some (lo, min (lo + c) seg_end)
  end

(* A raising chunk must not kill its worker domain or skip the
   completion barrier: the exception is recorded for the caller. *)
let run_chunk task lo hi =
  try task.t_body lo hi
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set task.t_error None (Some (e, bt)))

let drain task seg counter =
  let rec go () =
    match claim task seg with
    | Some (lo, hi) ->
      Obs.incr counter;
      run_chunk task lo hi;
      go ()
    | None -> ()
  in
  go ()

(* Own segment first, then sweep the other segments stealing chunks
   until one full sweep finds no work anywhere. *)
let run_task ~self task =
  let n = Array.length task.t_pos in
  drain task self (if self = 0 then c_caller_chunks else c_worker_chunks);
  if n > 1 then begin
    let progressed = ref true in
    while !progressed do
      progressed := false;
      for k = 1 to n - 1 do
        let victim = (self + k) mod n in
        match claim task victim with
        | Some (lo, hi) ->
          progressed := true;
          Obs.incr c_steals;
          run_chunk task lo hi;
          drain task victim c_steals
        | None -> ()
      done
    done
  end

(* Participants of a launch: the parallel-for's segment count or the
   team's member count. *)
let participants = function
  | W_for task -> Array.length task.t_pos
  | W_team tm -> tm.tm_members

let worker_loop core self () =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock core.work_mutex;
    while (not core.shutdown) && core.generation = !seen do
      Condition.wait core.work_cond core.work_mutex
    done;
    if core.shutdown then Mutex.unlock core.work_mutex
    else begin
      seen := core.generation;
      let work = !(core.work) in
      Mutex.unlock core.work_mutex;
      (match work with
      | Some w when self < participants w ->
        (match w with
        | W_for task -> run_task ~self task
        | W_team tm -> tm.tm_run self);
        Barrier.await core.finish.(participants w)
      | _ -> ());
      loop ()
    end
  in
  loop ()

let c_spawned = Obs.counter "pool.domains_spawned"

let make_core ~shared size =
  let size = max 1 size in
  let core =
    { size; workers = [||]; work = ref None; work_mutex = Mutex.create ();
      work_cond = Condition.create ();
      finish = Array.init (size + 1) (fun k -> Barrier.create (max 1 k));
      launch = Mutex.create (); generation = 0; shutdown = false; shared }
  in
  Obs.add c_spawned (size - 1);
  core.workers <-
    Array.init (size - 1) (fun i -> Domain.spawn (worker_loop core (i + 1)));
  core

let create size =
  let core = make_core ~shared:false size in
  { core; width = core.size }

let shutdown pool =
  let core = pool.core in
  if core.shared then
    invalid_arg "Domain_pool.shutdown: the shared pool lives for the process";
  Mutex.lock core.work_mutex;
  core.shutdown <- true;
  Condition.broadcast core.work_cond;
  Mutex.unlock core.work_mutex;
  Array.iter Domain.join core.workers;
  core.workers <- [||]

(* Publish [work] to the core's workers, run the caller's share, and
   wait for the launch's participants; under the launch guard, so
   concurrent callers take turns instead of overwriting each other's
   published work or mixing arrivals at a completion barrier. *)
let launch core work ~caller =
  Mutex.protect core.launch (fun () ->
      Mutex.lock core.work_mutex;
      core.work := Some work;
      core.generation <- core.generation + 1;
      Condition.broadcast core.work_cond;
      Mutex.unlock core.work_mutex;
      caller ();
      Barrier.await core.finish.(participants work))

(* Parallel for over [lo, hi): [body lo' hi'] must handle any subrange.
   [chunk] is the minimum chunk granularity (clamped to >= 1); workers
   claim geometrically shrinking chunks down to that floor. Ranges too
   small to give every participant at least two indices run inline. *)
let parallel_for ?chunk pool ~lo ~hi body =
  if hi <= lo then ()
  else if pool.width = 1 || hi - lo < pool.width * 2 then begin
    Obs.incr c_serial_for;
    body lo hi
  end
  else begin
    Obs.incr c_parallel_for;
    let range = hi - lo in
    let min_chunk = match chunk with Some c -> max 1 c | None -> 1 in
    let n = pool.width in
    let seg_start i = lo + (i * range / n) in
    let task =
      { t_body = body;
        t_pos = Array.init n (fun i -> Atomic.make (seg_start i));
        t_end = Array.init n (fun i -> seg_start (i + 1));
        t_min_chunk = min_chunk; t_error = Atomic.make None }
    in
    (* the caller participates as worker 0 *)
    launch pool.core (W_for task) ~caller:(fun () -> run_task ~self:0 task);
    match Atomic.get task.t_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* Launch a fixed team of [members] participants: each runs
   [body ~member ~barrier] exactly once, with [member 0] being the
   caller and a fresh phase barrier of [members] parties shared by the
   team. One launch then an arbitrary number of cheap barrier
   rendezvous inside the body replaces a pool join per phase — the
   launch/join cost and the steal-thrash of chunked scheduling are paid
   once per team, not once per phase. The body must not use the pool
   itself ([parallel_for] or a nested [team] would deadlock waiting for
   workers that are pinned to this team). *)
let team pool ~members body =
  if members < 1 then invalid_arg "Domain_pool.team: members must be >= 1";
  if members > pool.width then
    invalid_arg
      (Printf.sprintf "Domain_pool.team: %d members exceed pool size %d"
         members pool.width);
  if members = 1 then body ~member:0 ~barrier:(fun () -> ())
  else begin
    Obs.incr c_teams;
    let phase = Barrier.create members in
    let barrier () =
      Obs.incr c_team_barriers;
      Barrier.await phase
    in
    (* A raising member must neither kill its worker nor strand the
       others at the phase barrier: the first exception is recorded and
       poisons the barrier, so every member stops at its next phase
       boundary; [Aborted] from the poisoned barrier is not recorded. *)
    let error = Atomic.make None in
    let run member =
      try body ~member ~barrier with
      | Aborted -> ()
      | e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)));
        Barrier.poison phase
    in
    launch pool.core
      (W_team { tm_members = members; tm_run = run })
      ~caller:(fun () -> run 0);
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let recommended_size () =
  match Domain.recommended_domain_count () with
  | n when n >= 1 -> n
  | _ -> 1

(* The process-wide core, spawned by the first view wider than one
   participant. It is never joined: its workers block in [worker_loop]
   between launches and end with the process. *)
let shared_mutex = Mutex.create ()
let shared_core : core option ref = ref None

(* Views of one participant never launch (every range runs inline), so
   they share a worker-less core and spawn nothing. *)
let solo = make_core ~shared:true 1

let shared n =
  let width = max 1 (min n (recommended_size ())) in
  if width = 1 then { core = solo; width }
  else
    let core =
      Mutex.protect shared_mutex (fun () ->
          match !shared_core with
          | Some c -> c
          | None ->
            let c = make_core ~shared:true (recommended_size ()) in
            shared_core := Some c;
            c)
    in
    { core; width }

let with_pool size f =
  let pool = create size in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
