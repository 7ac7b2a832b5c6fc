(* Quota-fair bounded scheduler over domain workers.

   Jobs are queued per client and drained by weighted round-robin: the
   rotation visits each backlogged client in turn and lets it dequeue up
   to [weight] jobs before yielding, so one client flooding the queue
   cannot starve the others (the head-of-line blocking the single FIFO
   had). Admission is bounded twice — globally ([queue_capacity], the
   overload shed) and per client ([quota] on in-flight jobs, the
   fairness shed).

   Locking discipline: [t.mutex] guards the client table, rotation,
   intake flag and aggregate counters; each ticket carries its own
   mutex/condvar for its resolution state. The two are never held at
   once (claim the ticket, bump counters, then publish the outcome), so
   there is no lock ordering to get wrong. Because the awaiter wakes
   only at publication, stats read after [await] returns already count
   the job.

   Timeouts and cancellation are cooperative by necessity — a running
   domain cannot be interrupted — so they are enforced at the points
   where they can be: the worker sheds expired or cancelled jobs at
   dequeue instead of starting them, the awaiter stops waiting at the
   deadline, and a late worker result loses the resolution race against
   the awaiter's [Timed_out] (first resolution wins, later ones are
   dropped). Job thunks that want mid-flight cancellation poll the same
   [cancelled] closure between their own phases. *)

module Obs = Fsc_obs.Obs

type 'a outcome =
  | Done of 'a
  | Failed of string
  | Timed_out
  | Cancelled

type reject =
  [ `Queue_full
  | `Quota_exceeded
  | `Shutting_down ]

type client_stats = {
  c_id : string;
  c_weight : int;
  c_quota : int option;
  c_inflight : int;
  c_queued : int;
  c_submitted : int;
  c_completed : int;
  c_rejected : int;
  c_shed : int;
}

type stats = {
  submitted : int;
  rejected : int;
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  shed : int;
  max_queue_depth : int;
  total_wait_s : float;
  clients : client_stats list;
}

type client = {
  cl_id : string;
  mutable cl_weight : int;
  mutable cl_quota : int option; (* max in-flight (queued + running) *)
  mutable cl_inflight : int;
  cl_queue : (float * (unit -> unit)) Queue.t; (* enqueue time, thunk *)
  mutable cl_credit : int;
  mutable cl_in_rotation : bool;
  mutable cl_submitted : int;
  mutable cl_completed : int;
  mutable cl_rejected : int;
  mutable cl_shed : int; (* expired-at-dequeue + cancelled *)
  mutable cl_configured : bool; (* weight or quota set: never released *)
  mutable cl_released : bool; (* drop the record once nothing is in flight *)
}

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  clients : (string, client) Hashtbl.t;
  rotation : client Queue.t; (* backlogged clients, round-robin order *)
  capacity : int;
  default_quota : int option;
  mutable total_queued : int;
  mutable accepting : bool;
  mutable domains : unit Domain.t list;
  mutable s_submitted : int;
  mutable s_rejected : int;
  mutable s_completed : int;
  mutable s_failed : int;
  mutable s_timed_out : int;
  mutable s_cancelled : int;
  mutable s_shed : int;
  mutable s_max_depth : int;
  mutable s_wait : float;
}

type 'a state =
  | Waiting
  | Claimed (* a resolver won the ticket and is accounting it *)
  | Resolved of 'a outcome

type 'a ticket = {
  tk_mutex : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_state : 'a state;
  tk_deadline : float option; (* absolute, seconds *)
  tk_cancelled : (unit -> bool) option;
  tk_client : client;
  tk_sched : t;
}

let c_completed = Obs.counter "server.jobs_completed"
let c_failed = Obs.counter "server.jobs_failed"
let c_timed_out = Obs.counter "server.jobs_timed_out"
let c_rejected = Obs.counter "server.jobs_rejected"
let c_cancelled = Obs.counter "server.jobs_cancelled"
let c_shed = Obs.counter "server.jobs_shed"
let c_wait_us = Obs.counter "server.queue_wait_us"

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let default_client_id = "_default"

(* t.mutex held *)
let get_client t id =
  match Hashtbl.find_opt t.clients id with
  | Some c -> c
  | None ->
    let c =
      { cl_id = id; cl_weight = 1; cl_quota = t.default_quota;
        cl_inflight = 0; cl_queue = Queue.create (); cl_credit = 1;
        cl_in_rotation = false; cl_submitted = 0; cl_completed = 0;
        cl_rejected = 0; cl_shed = 0; cl_configured = false;
        cl_released = false }
    in
    Hashtbl.add t.clients id c;
    c

(* t.mutex held. A released record leaves the table with its last
   in-flight job; a job the awaiter timed out may still sit in the
   queue, but the rotation holds the record, not the table. *)
let drop_if_released t c =
  if c.cl_released && c.cl_inflight = 0 then Hashtbl.remove t.clients c.cl_id

let release_client t id =
  locked t.mutex (fun () ->
      match Hashtbl.find_opt t.clients id with
      | Some c when not c.cl_configured ->
        c.cl_released <- true;
        drop_if_released t c
      | _ -> ())

let configure_client t ~id ?weight ?quota () =
  locked t.mutex (fun () ->
      let c = get_client t id in
      c.cl_configured <- true;
      Option.iter (fun w -> c.cl_weight <- max 1 w) weight;
      Option.iter (fun q -> c.cl_quota <- if q <= 0 then None else Some q) quota)

let already_resolved ticket =
  locked ticket.tk_mutex (fun () ->
      match ticket.tk_state with
      | Claimed | Resolved _ -> true
      | Waiting -> false)

let expired ticket now =
  match ticket.tk_deadline with Some d -> now >= d | None -> false

let is_cancelled ticket =
  match ticket.tk_cancelled with Some f -> f () | None -> false

(* Account the winning resolution. [~shed] marks outcomes decided at
   dequeue (the worker dropped the job unrun). Called without any lock
   held. *)
let account t ticket outcome ~shed =
  let c = ticket.tk_client in
  locked t.mutex (fun () ->
      c.cl_inflight <- c.cl_inflight - 1;
      drop_if_released t c;
      if shed then begin
        t.s_shed <- t.s_shed + 1;
        c.cl_shed <- c.cl_shed + 1
      end;
      match outcome with
      | Done _ ->
        t.s_completed <- t.s_completed + 1;
        c.cl_completed <- c.cl_completed + 1
      | Failed _ -> t.s_failed <- t.s_failed + 1
      | Timed_out -> t.s_timed_out <- t.s_timed_out + 1
      | Cancelled -> t.s_cancelled <- t.s_cancelled + 1);
  if shed then Obs.incr c_shed;
  match outcome with
  | Done _ -> Obs.incr c_completed
  | Failed _ -> Obs.incr c_failed
  | Timed_out -> Obs.incr c_timed_out
  | Cancelled -> Obs.incr c_cancelled

(* First resolution wins: the winner claims the ticket, accounts the
   outcome, and only then publishes it and wakes the awaiter. A later
   resolution (a worker finishing a job the awaiter timed out) is
   dropped. *)
let resolve t ticket outcome ~shed =
  let won =
    locked ticket.tk_mutex (fun () ->
        match ticket.tk_state with
        | Claimed | Resolved _ -> false
        | Waiting ->
          ticket.tk_state <- Claimed;
          true)
  in
  if won then begin
    account t ticket outcome ~shed;
    locked ticket.tk_mutex (fun () ->
        ticket.tk_state <- Resolved outcome;
        Condition.broadcast ticket.tk_cond)
  end

(* Runs on a worker domain, outside any lock. *)
let run_job t ticket f =
  if already_resolved ticket then ()
    (* the awaiter timed it out while queued; already accounted *)
  else if is_cancelled ticket then resolve t ticket Cancelled ~shed:true
  else if expired ticket (Unix.gettimeofday ()) then
    resolve t ticket Timed_out ~shed:true
  else begin
    match Obs.with_span ~cat:"server" "job.exec" f with
    | v -> resolve t ticket (Done v) ~shed:false
    | exception e ->
      resolve t ticket (Failed (Printexc.to_string e)) ~shed:false
  end

(* t.mutex held; t.total_queued > 0. Weighted round-robin: the client
   at the head of the rotation dequeues until its credit (= weight) is
   spent or its queue empties, then moves to the back with fresh
   credit. *)
let rec take_next t =
  let c = Queue.peek t.rotation in
  if Queue.is_empty c.cl_queue then begin
    ignore (Queue.pop t.rotation);
    c.cl_in_rotation <- false;
    take_next t
  end
  else begin
    let job = Queue.pop c.cl_queue in
    t.total_queued <- t.total_queued - 1;
    c.cl_credit <- c.cl_credit - 1;
    if c.cl_credit <= 0 || Queue.is_empty c.cl_queue then begin
      ignore (Queue.pop t.rotation);
      c.cl_credit <- c.cl_weight;
      if Queue.is_empty c.cl_queue then c.cl_in_rotation <- false
      else Queue.push c t.rotation
    end;
    job
  end

let rec worker t =
  Mutex.lock t.mutex;
  while t.total_queued = 0 && t.accepting do
    Condition.wait t.not_empty t.mutex
  done;
  if t.total_queued = 0 then Mutex.unlock t.mutex (* drained: exit *)
  else begin
    let enqueued_at, thunk = take_next t in
    let wait = Unix.gettimeofday () -. enqueued_at in
    t.s_wait <- t.s_wait +. wait;
    Mutex.unlock t.mutex;
    Obs.add c_wait_us (int_of_float (1e6 *. wait));
    thunk ();
    worker t
  end

let create ?(queue_capacity = 64) ?default_quota ~workers () =
  let t =
    { mutex = Mutex.create (); not_empty = Condition.create ();
      clients = Hashtbl.create 16; rotation = Queue.create ();
      capacity = max 1 queue_capacity;
      default_quota =
        Option.bind default_quota (fun q -> if q <= 0 then None else Some q);
      total_queued = 0; accepting = true; domains = []; s_submitted = 0;
      s_rejected = 0; s_completed = 0; s_failed = 0; s_timed_out = 0;
      s_cancelled = 0; s_shed = 0; s_max_depth = 0; s_wait = 0. }
  in
  t.domains <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t ?client ?cancelled ?deadline_s f =
  let now = Unix.gettimeofday () in
  let id = Option.value client ~default:default_client_id in
  locked t.mutex (fun () ->
      let c = get_client t id in
      let reject r =
        t.s_rejected <- t.s_rejected + 1;
        c.cl_rejected <- c.cl_rejected + 1;
        Obs.incr c_rejected;
        Error r
      in
      if not t.accepting then reject `Shutting_down
      else if t.total_queued >= t.capacity then reject `Queue_full
      else if
        match c.cl_quota with Some q -> c.cl_inflight >= q | None -> false
      then reject `Quota_exceeded
      else begin
        let ticket =
          { tk_mutex = Mutex.create (); tk_cond = Condition.create ();
            tk_state = Waiting;
            tk_deadline = Option.map (fun d -> now +. d) deadline_s;
            tk_cancelled = cancelled; tk_client = c; tk_sched = t }
        in
        Queue.push (now, fun () -> run_job t ticket f) c.cl_queue;
        if not c.cl_in_rotation then begin
          c.cl_credit <- c.cl_weight;
          c.cl_in_rotation <- true;
          Queue.push c t.rotation
        end;
        t.total_queued <- t.total_queued + 1;
        c.cl_inflight <- c.cl_inflight + 1;
        t.s_submitted <- t.s_submitted + 1;
        c.cl_submitted <- c.cl_submitted + 1;
        t.s_max_depth <- max t.s_max_depth t.total_queued;
        Condition.signal t.not_empty;
        Ok ticket
      end)

let await ticket =
  let deadline_hit = ref false in
  let outcome =
    locked ticket.tk_mutex (fun () ->
        let rec wait () =
          match ticket.tk_state with
          | Resolved o -> o
          | Claimed ->
            (* won by a resolver: published as soon as it is accounted *)
            Condition.wait ticket.tk_cond ticket.tk_mutex;
            wait ()
          | Waiting -> (
            match ticket.tk_deadline with
            | None ->
              Condition.wait ticket.tk_cond ticket.tk_mutex;
              wait ()
            | Some d ->
              let now = Unix.gettimeofday () in
              if now >= d then begin
                (* we are the resolver: the worker's eventual result
                   will lose the race and be discarded *)
                ticket.tk_state <- Resolved Timed_out;
                Condition.broadcast ticket.tk_cond;
                deadline_hit := true;
                Timed_out
              end
              else begin
                (* no timed condition wait in the stdlib: poll at a
                   resolution far below any plausible deadline *)
                Mutex.unlock ticket.tk_mutex;
                Unix.sleepf (Float.min 0.002 (d -. now));
                Mutex.lock ticket.tk_mutex;
                wait ()
              end)
        in
        wait ())
  in
  if !deadline_hit then
    account ticket.tk_sched ticket Timed_out ~shed:false;
  outcome

let queue_depth t = locked t.mutex (fun () -> t.total_queued)

let shutdown t =
  let domains =
    locked t.mutex (fun () ->
        t.accepting <- false;
        Condition.broadcast t.not_empty;
        let d = t.domains in
        t.domains <- [];
        d)
  in
  List.iter Domain.join domains

let stats t =
  locked t.mutex (fun () ->
      let clients =
        Hashtbl.fold
          (fun _ c acc ->
            { c_id = c.cl_id; c_weight = c.cl_weight; c_quota = c.cl_quota;
              c_inflight = c.cl_inflight;
              c_queued = Queue.length c.cl_queue;
              c_submitted = c.cl_submitted; c_completed = c.cl_completed;
              c_rejected = c.cl_rejected; c_shed = c.cl_shed }
            :: acc)
          t.clients []
        |> List.sort (fun a b -> String.compare a.c_id b.c_id)
      in
      { submitted = t.s_submitted; rejected = t.s_rejected;
        completed = t.s_completed; failed = t.s_failed;
        timed_out = t.s_timed_out; cancelled = t.s_cancelled;
        shed = t.s_shed; max_queue_depth = t.s_max_depth;
        total_wait_s = t.s_wait; clients })
