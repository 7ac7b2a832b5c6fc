(* The JSONL job protocol. [run_batch] and [serve] are thin transports
   over the same core: parse_request -> Scheduler.submit -> execute ->
   result_to_line, with results emitted in input order so identical
   inputs give identical outputs whatever the completion order. Each
   owns a pool of idle linked artifacts that repeated run requests
   re-run.

   [serve] multiplexes connections over a pool of handler threads that
   all accept on the same listening socket; the accept loop is guarded
   (EINTR and fd-exhaustion are survived, not fatal), and each
   connection carries a cancellation flag that sheds its remaining work
   once the client vanishes. *)

module J = Fsc_obs.Obs.Json
module Obs = Fsc_obs.Obs
module P = Fsc_driver.Pipeline
module CC = Fsc_driver.Compile_cache
module Cache = Fsc_cache.Cache
module Interp = Fsc_rt.Interp
module Rt = Fsc_rt.Memref_rt

type action =
  | Compile
  | Run

type job = {
  j_id : int;
  j_src : [ `Path of string | `Inline of string ];
  j_target : P.target;
  j_action : action;
  j_client : string option;
}

type status =
  | Ok_
  | Error_ of string
  | Timeout
  | Cancelled_
  | Rejected_ of string (* reason: overloaded | quota-exceeded | ... *)

type result_rec = {
  r_id : int;
  r_label : string;
  r_target : string;
  r_action : string;
  r_status : status;
  r_cache : [ `Hit | `Miss | `Off ];
  r_compile_ms : float;
  r_run_ms : float;
  r_kernels : int;
  r_checksums : (string * float) list;
}

(* ---------------- job parsing ---------------- *)

let ( let* ) = Result.bind

let target_of_name = function
  | "serial" -> Ok P.Serial
  | "openmp" -> Ok (P.Openmp (Fsc_rt.Domain_pool.recommended_size ()))
  | "gpu-initial" -> Ok (P.Gpu P.Gpu_initial)
  | "gpu" | "gpu-optimised" | "gpu-optimized" -> Ok (P.Gpu P.Gpu_optimised)
  | "dist" -> Ok (P.Dist 4)
  | s -> Error ("unknown target " ^ s)

(* An explicit thread count overrides the openmp default sizing;
   combining it with a non-OpenMP target is an error instead of being
   silently ignored. With no target at all, threads imply openmp. *)
let resolve_target target threads =
  match (target, threads) with
  | _, Some n when n < 1 ->
    Error (Printf.sprintf "threads must be >= 1 (got %d)" n)
  | None, None -> Ok P.Serial
  | None, Some n -> Ok (P.Openmp n)
  | Some (P.Openmp _), Some n -> Ok (P.Openmp n)
  | Some ((P.Serial | P.Gpu _ | P.Dist _) as t), Some _ ->
    Error
      (Printf.sprintf "threads only apply to the openmp target (target is %s)"
         (P.target_name t))
  | Some t, None -> Ok t

let str_field name json =
  match J.member name json with
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

let int_field name json =
  match J.member name json with
  | Some (J.Num f) -> Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
  | None -> Ok None

let job_of_json ~index json =
  let* src = str_field "src" json in
  let* source = str_field "source" json in
  let* target = str_field "target" json in
  let* threads = int_field "threads" json in
  let* action = str_field "action" json in
  let* id = int_field "id" json in
  let* j_client = str_field "client" json in
  let* j_src =
    match (src, source) with
    | Some p, None -> Ok (`Path p)
    | None, Some s -> Ok (`Inline s)
    | Some _, Some _ -> Error "give \"src\" or \"source\", not both"
    | None, None -> Error "missing \"src\" (or inline \"source\")"
  in
  let* j_action =
    match action with
    | None | Some "run" -> Ok Run
    | Some "compile" -> Ok Compile
    | Some a -> Error ("unknown action " ^ a)
  in
  let* target =
    match target with
    | None -> Ok None
    | Some name ->
      let* t = target_of_name name in
      Ok (Some t)
  in
  let* j_target = resolve_target target threads in
  Ok
    { j_id = Option.value id ~default:index; j_src; j_target; j_action;
      j_client }

type request =
  | Job of job
  | Shutdown
  | Metrics

(* One parse per line, whole Fortran source included: the control
   actions are recognised on the parsed object before it is read as a
   job. *)
let parse_request ~index line =
  match J.of_string line with
  | exception J.Parse_error e -> Error ("bad job JSON: " ^ e)
  | json -> (
    match J.member "action" json with
    | Some (J.Str "shutdown") -> Ok Shutdown
    | Some (J.Str "metrics") -> Ok Metrics
    | _ -> Result.map (fun j -> Job j) (job_of_json ~index json))

let parse_job ~index line =
  match parse_request ~index line with
  | Ok (Job j) -> Ok j
  | Ok Shutdown -> Error "\"shutdown\" is a control line, not a job"
  | Ok Metrics -> Error "\"metrics\" is a control line, not a job"
  | Error e -> Error e

let is_shutdown line = parse_request ~index:0 line = Ok Shutdown
let is_metrics line = parse_request ~index:0 line = Ok Metrics

(* ---------------- execution ---------------- *)

let action_name = function Compile -> "compile" | Run -> "run"

let blank_result ~id ~label ~target ~action =
  { r_id = id; r_label = label; r_target = target; r_action = action;
    r_status = Ok_; r_cache = `Off; r_compile_ms = 0.; r_run_ms = 0.;
    r_kernels = 0; r_checksums = [] }

let job_result job =
  blank_result ~id:job.j_id
    ~label:(match job.j_src with `Path p -> p | `Inline _ -> "<inline>")
    ~target:(P.target_name job.j_target)
    ~action:(action_name job.j_action)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- idle linked artifacts ----------------

   A repeated run request re-runs the linked artifact an earlier request
   left idle, instead of decoding its cache entry, linking it and
   binding fresh runners. Idle artifacts are keyed by the compile-cache
   key and the full target name (threads and ranks are link-time
   state), most recently returned first. A worker takes one out for its
   job alone and gives it back after the run, so no two workers ever run
   one artifact. Only an artifact whose compile was a cache hit enters:
   a one-off source never takes a slot. An idle artifact holds no host
   grid (its run released them to the arena before it came back), so
   the cap bounds IR, interpreter contexts and runner bindings; past
   it the least recently returned artifact is evicted. *)

let artifact_pool_cap = 32

type artifact_pool = {
  ap_lock : Mutex.t;
  mutable ap_idle : (string * P.artifact) list;
}

let c_reuses = Obs.counter "serve.artifact_reuses"
let c_evictions = Obs.counter "serve.artifact_evictions"
let c_drops = Obs.counter "serve.artifact_drops"

let create_pool () = { ap_lock = Mutex.create (); ap_idle = [] }

let idle_artifacts pool =
  Mutex.protect pool.ap_lock (fun () -> List.length pool.ap_idle)

let pool_key cache options source =
  P.target_name options.P.opt_target ^ " " ^ CC.key cache options source

let take pool key =
  Mutex.protect pool.ap_lock (fun () ->
      match List.assoc_opt key pool.ap_idle with
      | None -> None
      | Some a ->
        pool.ap_idle <- List.filter (fun (_, b) -> b != a) pool.ap_idle;
        Obs.incr c_reuses;
        Some a)

let give_back pool key a =
  Mutex.protect pool.ap_lock (fun () ->
      let idle = (key, a) :: pool.ap_idle in
      if List.length idle <= artifact_pool_cap then pool.ap_idle <- idle
      else begin
        pool.ap_idle <- List.filteri (fun i _ -> i < artifact_pool_cap) idle;
        Obs.incr c_evictions
      end)

let checksums a =
  a.P.a_ctx.Interp.named_buffers
  |> List.map (fun (name, buf) -> (name, Rt.checksum buf))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let execute ?cache ?pool ?(should_cancel = fun () -> false) job =
  let base = job_result job in
  if should_cancel () then { base with r_status = Cancelled_ }
  else
    try
      let source =
        match job.j_src with `Inline s -> s | `Path p -> read_file p
      in
      let options = P.default_options ~target:job.j_target () in
      let t0 = Unix.gettimeofday () in
      (* a run request keyed in the pool: an idle artifact there skips
         the compile (cache lookup and decode) and the link *)
      let pooled =
        match (job.j_action, cache, pool) with
        | Run, Some c, Some pool ->
          let key = pool_key c options source in
          Some (pool, key, take pool key)
        | _ -> None
      in
      let linked, outcome, kernels =
        match pooled with
        | Some (_, _, Some a) -> (`Linked a, `Hit, List.length a.P.a_kernels)
        | _ ->
          let ca, outcome = CC.compile ?cache options source in
          (`Compiled ca, outcome, ca.P.ca_stats.P.st_kernels)
      in
      let compile_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
      let base =
        { base with r_cache = outcome; r_compile_ms = compile_ms;
          r_kernels = kernels }
      in
      match job.j_action with
      | Compile -> base
      | Run ->
        (* the pool slot a clean run returns its artifact to: only a
           cache hit (or a pooled artifact) has one *)
        let slot =
          match (pooled, outcome) with
          | Some (pool, key, _), `Hit -> Some (pool, key)
          | _ -> None
        in
        let drop a =
          P.release a;
          if Option.is_some slot then Obs.incr c_drops
        in
        (* phase boundary: a cancelled client's job stops here instead
           of occupying a worker for the whole run *)
        if should_cancel () then begin
          (match linked with `Linked a -> drop a | `Compiled _ -> ());
          { base with r_status = Cancelled_ }
        end
        else begin
          let t1 = Unix.gettimeofday () in
          let a =
            match linked with `Linked a -> a | `Compiled ca -> P.link ca
          in
          let checksums =
            match
              Fun.protect
                ~finally:(fun () -> P.shutdown a)
                (fun () ->
                  P.run a;
                  checksums a)
            with
            | cs -> cs
            | exception e ->
              drop a;
              raise e
          in
          (* the run and its builds are over and nothing reads its
             grids any more: their storage serves the next request's
             creates *)
          P.release a;
          Option.iter (fun (pool, key) -> give_back pool key a) slot;
          { base with r_run_ms = 1e3 *. (Unix.gettimeofday () -. t1);
            r_kernels = List.length a.P.a_kernels; r_checksums = checksums }
        end
    with e -> { base with r_status = Error_ (Printexc.to_string e) }

(* ---------------- result lines ---------------- *)

let result_to_line r =
  let status, extra =
    match r.r_status with
    | Ok_ -> ("ok", [])
    | Timeout -> ("timeout", [])
    | Cancelled_ -> ("cancelled", [])
    | Rejected_ reason -> ("rejected", [ ("reason", J.Str reason) ])
    | Error_ msg -> ("error", [ ("error", J.Str msg) ])
  in
  let cache =
    match r.r_cache with `Hit -> "hit" | `Miss -> "miss" | `Off -> "off"
  in
  J.to_string
    (J.Obj
       ([ ("id", J.Num (float_of_int r.r_id));
          ("src", J.Str r.r_label);
          ("action", J.Str r.r_action);
          ("target", J.Str r.r_target);
          ("status", J.Str status);
          ("cache", J.Str cache);
          ("compile_ms", J.Num r.r_compile_ms);
          ("run_ms", J.Num r.r_run_ms);
          ("kernels", J.Num (float_of_int r.r_kernels));
          ("checksums",
           (* full-precision strings: equal grids -> byte-equal output *)
           J.Obj
             (List.map
                (fun (name, v) -> (name, J.Str (Printf.sprintf "%.17g" v)))
                r.r_checksums)) ]
       @ extra))

let parse_error_result ~index msg =
  { (blank_result ~id:index ~label:"<parse>" ~target:"" ~action:"") with
    r_status = Error_ msg }

(* ---------------- metrics ---------------- *)

let num n = J.Num (float_of_int n)

let metrics_json ?cache ~pool sched =
  let s = Scheduler.stats sched in
  let client c =
    ( c.Scheduler.c_id,
      J.Obj
        [ ("weight", num c.Scheduler.c_weight);
          ("quota",
           match c.Scheduler.c_quota with
           | None -> J.Null
           | Some q -> num q);
          ("inflight", num c.Scheduler.c_inflight);
          ("queued", num c.Scheduler.c_queued);
          ("submitted", num c.Scheduler.c_submitted);
          ("completed", num c.Scheduler.c_completed);
          ("rejected", num c.Scheduler.c_rejected);
          ("shed", num c.Scheduler.c_shed) ] )
  in
  let cache_json =
    match cache with
    | None -> J.Null
    | Some c ->
      let cs = Cache.stats c in
      J.Obj
        [ ("mem_hits", num cs.Cache.mem_hits);
          ("disk_hits", num cs.Cache.disk_hits);
          ("misses", num cs.Cache.misses);
          ("evictions", num cs.Cache.evictions);
          ("invalid", num cs.Cache.invalid);
          ("stores", num cs.Cache.stores);
          ("store_failures", num cs.Cache.store_failures);
          ("disk_bytes", num (Cache.disk_bytes c));
          ("disk_evictions", num cs.Cache.disk_evictions) ]
  in
  J.Obj
    [ ("type", J.Str "metrics");
      ("queue_depth", num (Scheduler.queue_depth sched));
      ("scheduler",
       J.Obj
         [ ("submitted", num s.Scheduler.submitted);
           ("rejected", num s.Scheduler.rejected);
           ("completed", num s.Scheduler.completed);
           ("failed", num s.Scheduler.failed);
           ("timed_out", num s.Scheduler.timed_out);
           ("cancelled", num s.Scheduler.cancelled);
           ("shed", num s.Scheduler.shed);
           ("max_queue_depth", num s.Scheduler.max_queue_depth);
           ("total_wait_ms", J.Num (1e3 *. s.Scheduler.total_wait_s)) ]);
      ("clients", J.Obj (List.map client s.Scheduler.clients));
      ("cache", cache_json);
      ("artifact_pool",
       J.Obj
         [ ("idle", num (idle_artifacts pool));
           ("cap", num artifact_pool_cap) ]);
      (* the shared pool's participant count: served openmp and dist
         jobs never hold more than this minus one worker domains *)
      ("pool_size", num (Fsc_rt.Domain_pool.recommended_size ()));
      ("counters",
       J.Obj
         (List.map (fun (n, v) -> (n, num v)) (Obs.counter_totals ()))) ]

(* ---------------- transports ---------------- *)

type slot =
  | Immediate of result_rec
  | Pending of job * result_rec Scheduler.ticket
  | Raw of string (* pre-rendered response line (metrics) *)

let await_slot = function
  | Raw _ -> invalid_arg "await_slot: raw slot"
  | Immediate r -> r
  | Pending (job, ticket) -> (
    match Scheduler.await ticket with
    | Scheduler.Done r -> r
    | Scheduler.Failed msg -> { (job_result job) with r_status = Error_ msg }
    | Scheduler.Timed_out -> { (job_result job) with r_status = Timeout }
    | Scheduler.Cancelled -> { (job_result job) with r_status = Cancelled_ })

let slot_line slot =
  match slot with Raw s -> s | _ -> result_to_line (await_slot slot)

(* Submit one parsed job; [on_full] decides the backpressure policy:
   [`Retry_within budget] retries for at most [budget] seconds before
   shedding (batch), [`Reject] sheds immediately (serve). Either way a
   shed job comes back as a typed [rejected: overloaded] result rather
   than spinning forever. *)
let submit_job ?cache ~pool ?deadline_s ?cancelled ?default_client ~on_full
    sched job =
  let client =
    match job.j_client with Some c -> Some c | None -> default_client
  in
  let should_cancel =
    match cancelled with Some f -> f | None -> fun () -> false
  in
  let started = Unix.gettimeofday () in
  let rec go () =
    match
      Scheduler.submit sched ?client ?cancelled ?deadline_s (fun () ->
          execute ?cache ~pool ~should_cancel job)
    with
    | Ok ticket -> Pending (job, ticket)
    | Error `Shutting_down ->
      Immediate { (job_result job) with r_status = Rejected_ "shutting-down" }
    | Error `Quota_exceeded ->
      Immediate { (job_result job) with r_status = Rejected_ "quota-exceeded" }
    | Error `Queue_full -> (
      match on_full with
      | `Reject ->
        Immediate { (job_result job) with r_status = Rejected_ "overloaded" }
      | `Retry_within budget ->
        if Unix.gettimeofday () -. started >= budget then
          Immediate { (job_result job) with r_status = Rejected_ "overloaded" }
        else begin
          Unix.sleepf 0.002;
          go ()
        end)
  in
  go ()

let default_workers () = Fsc_rt.Domain_pool.recommended_size ()

let run_batch ?cache ?workers ?(queue_capacity = 64) ?deadline_s
    ?(overload_budget_s = 30.) lines =
  let workers = match workers with Some n -> n | None -> default_workers () in
  (* dialect registration touches shared tables: do it once, serially,
     before any worker domain can race into it *)
  Fsc_dialects.Registry.init ();
  let sched = Scheduler.create ~queue_capacity ~workers () in
  let pool = create_pool () in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      lines
      |> List.mapi (fun index line ->
             match parse_job ~index line with
             | Ok job ->
               submit_job ?cache ~pool ?deadline_s
                 ~on_full:(`Retry_within overload_budget_s) sched job
             | Error msg -> Immediate (parse_error_result ~index msg))
      |> List.map slot_line)

(* ---- socket server ---- *)

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

(* One client connection: read job lines to EOF (or a shutdown line),
   answer in input order. Returns whether shutdown was requested.

   The connection owns a cancellation flag. It flips when the client
   stops being readable/writable (reset, stalled past the idle timeout,
   or gone when we try to reply); queued jobs are then shed at dequeue
   and running jobs stop at their next phase boundary, so a vanished
   client's work is dropped instead of riding a worker to completion.
   The connection's default client is released when the connection
   ends, so a long-running server keeps no record per connection. *)
let handle_connection ?cache ~pool ?deadline_s ?idle_timeout_s ~client_id
    sched client =
  Fun.protect ~finally:(fun () -> Scheduler.release_client sched client_id)
  @@ fun () ->
  Option.iter
    (fun s -> if s > 0. then Unix.setsockopt_float client Unix.SO_RCVTIMEO s)
    idle_timeout_s;
  let cancelled = Atomic.make false in
  let should_cancel () = Atomic.get cancelled in
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  let rec read_jobs index acc =
    match input_line ic with
    | exception End_of_file -> (List.rev acc, false)
    | exception Unix.Unix_error _ ->
      (* stalled past the idle timeout, or reset mid-line: drop its work *)
      Atomic.set cancelled true;
      (List.rev acc, false)
    | line when String.trim line = "" -> read_jobs index acc
    | line -> (
      match parse_request ~index line with
      | Ok Shutdown -> (List.rev acc, true)
      | Ok Metrics ->
        let reply = Raw (J.to_string (metrics_json ?cache ~pool sched)) in
        read_jobs (index + 1) (reply :: acc)
      | Ok (Job job) ->
        let slot =
          submit_job ?cache ~pool ?deadline_s ~cancelled:should_cancel
            ~default_client:client_id ~on_full:`Reject sched job
        in
        read_jobs (index + 1) (slot :: acc)
      | Error msg ->
        read_jobs (index + 1)
          (Immediate (parse_error_result ~index msg) :: acc))
  in
  let slots, shutdown_requested = read_jobs 0 [] in
  (try
     List.iter
       (fun slot ->
         if not (should_cancel ()) then begin
           output_string oc (slot_line slot);
           output_char oc '\n';
           (* per-line flush so a vanished client surfaces as EPIPE on
              the next result, not after all of them are computed *)
           flush oc
         end)
       slots
   with Sys_error _ | Unix.Unix_error _ -> Atomic.set cancelled true);
  if shutdown_requested && not (should_cancel ()) then (
    try
      output_string oc "{\"status\": \"shutting-down\"}\n";
      flush oc
    with Sys_error _ | Unix.Unix_error _ -> ());
  shutdown_requested

let default_handlers = 4

let serve ?cache ?workers ?(queue_capacity = 64) ?deadline_s ?handlers
    ?default_quota ?(client_weights = []) ?idle_timeout_s ~socket () =
  let workers = match workers with Some n -> n | None -> default_workers () in
  let handlers =
    match handlers with Some n -> max 1 n | None -> default_handlers
  in
  (* a client that disconnects mid-reply must surface as EPIPE on the
     write, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Fsc_dialects.Registry.init ();
  (* live counters for the metrics request without unbounded span
     accumulation in a long-running process *)
  Obs.set_counters_only true;
  Option.iter (fun c -> ignore (Cache.sweep c)) cache;
  let sched = Scheduler.create ~queue_capacity ?default_quota ~workers () in
  List.iter
    (fun (id, weight) -> Scheduler.configure_client sched ~id ~weight ())
    client_weights;
  remove_if_exists socket;
  (* bound under a staging name and renamed once listening: clients wait
     for [socket] to exist, and a path that exists before [listen]
     refuses their connect *)
  let staging = socket ^ ".bind" in
  remove_if_exists staging;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let pool = create_pool () in
  let stop = Atomic.make false in
  let conn_seq = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      remove_if_exists staging;
      remove_if_exists socket;
      Scheduler.shutdown sched)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX staging);
      Unix.listen fd 64;
      Unix.rename staging socket;
      (* one dummy connection per handler: unblocks every accept so the
         pool can observe [stop] and exit *)
      let wake_accepts () =
        for _ = 1 to handlers do
          let c = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try Unix.connect c (Unix.ADDR_UNIX socket)
           with Unix.Unix_error _ -> ());
          try Unix.close c with Unix.Unix_error _ -> ()
        done
      in
      let rec accept_loop () =
        if not (Atomic.get stop) then
          match Unix.accept ~cloexec:true fd with
          | client, _ ->
            let finished =
              if Atomic.get stop then false
              else begin
                let n = Atomic.fetch_and_add conn_seq 1 in
                match
                  handle_connection ?cache ~pool ?deadline_s ?idle_timeout_s
                    ~client_id:(Printf.sprintf "conn-%d" n) sched client
                with
                | v -> v
                | exception _ -> false (* client vanished: keep serving *)
              end
            in
            (try Unix.close client with Unix.Unix_error _ -> ());
            if finished then begin
              Atomic.set stop true;
              wake_accepts ()
            end;
            accept_loop ()
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                 | Unix.EWOULDBLOCK), _, _) ->
            accept_loop ()
          | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _)
            ->
            (* fd exhaustion is transient: existing connections drain and
               release descriptors; back off instead of dying *)
            Printf.eprintf "sfc serve: accept: %s; backing off\n%!"
              (Unix.error_message e);
            Unix.sleepf 0.05;
            accept_loop ()
          | exception Unix.Unix_error (e, _, _) ->
            if not (Atomic.get stop) then begin
              Printf.eprintf "sfc serve: accept: %s; retrying\n%!"
                (Unix.error_message e);
              Unix.sleepf 0.05;
              accept_loop ()
            end
      in
      (* handlers block in accept and socket reads, or wait on a
         ticket, so threads of this domain serve them: only the
         scheduler's workers are domains *)
      let pool = List.init handlers (fun _ -> Thread.create accept_loop ()) in
      List.iter Thread.join pool)

let request ~socket lines =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let oc = Unix.out_channel_of_descr fd in
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines;
      flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr fd in
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> read (line :: acc)
      in
      read [])
