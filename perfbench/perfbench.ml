(* The benchmark's workload runner. [run.py] builds this executable and
   drives it; every workload runs in a process of its own:

     perfbench.exe exec-steady --seed N --seconds S --trace 0|1 --out F
     perfbench.exe exec-parallel ... (the same options)
     perfbench.exe cold-start  --seed N --seconds S --trace 0|1 --out F
     perfbench.exe serve-mix   --seed N --seconds S --trace 0|1 --out F
                               --socket P --requests R
     perfbench.exe <workload> --setup-only --out F  (one more set-up)
     perfbench.exe stream --workload W --seed N      (print the op stream)
     perfbench.exe reference --shard I --shards N    (interpreter checksums)

   Every op's grid checksums are compared bitwise against the reference
   file written from [Pipeline.flang_only] (the FIR interpreter). The
   result is one JSON object written to [--out]; [run.py] turns it into
   the benchmark's result line. *)

module P = Fsc_driver.Pipeline
module Cc = Fsc_driver.Compile_cache
module Native = Fsc_codegen.Native
module Cache = Fsc_cache.Cache
module Service = Fsc_server.Service
module Memref = Fsc_rt.Memref_rt
module Dk = Fsc_dmp.Dist_kernel
module Obs = Fsc_obs.Obs
module J = Obs.Json
module Pr = Programs
module T = Tracer

let now = Unix.gettimeofday
let t_main = now ()

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* ---- statistics ---- *)

(* Linearly interpolated quantile, q in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let mean xs =
  List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let gmean xs =
  match xs with
  | [] -> 0.
  | _ -> exp (mean (List.map log xs))

let ms s = 1000. *. s
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ---- arguments ---- *)

let args = List.tl (Array.to_list Sys.argv)
let flag name = List.mem name args

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let opt_int name default =
  match opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s expects an integer, got %S" name v)

let seed = opt_int "--seed" 1
let seconds = float_of_int (opt_int "--seconds" 10)
let traced = opt_int "--trace" 0 = 1
let setup_only = flag "--setup-only"
let out_path = Option.value (opt "--out") ~default:"perfbench-result.json"
let work_dir = Filename.dirname out_path

let reference_path = "perfbench/reference.tsv"

let l2_kb = Fsc_perf.Machine.host_cache.Fsc_perf.Machine.ch_l2_kb

(* ---- reference checksums ---- *)

let render_checksums named =
  named
  |> List.map (fun (name, b) ->
         (name, Printf.sprintf "%.17g" (Memref.checksum b)))
  |> List.sort compare
  |> List.map (fun (n, v) -> n ^ "=" ^ v)
  |> String.concat ","

let checksums (a : P.artifact) =
  render_checksums a.P.a_ctx.Fsc_rt.Interp.named_buffers

let reference =
  lazy
    (let tbl = Hashtbl.create 4096 in
     let ic =
       try open_in reference_path
       with Sys_error e -> fail "cannot read the reference: %s" e
     in
     (try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ key; sums ] -> Hashtbl.replace tbl key sums
          | _ -> ()
        done
      with End_of_file -> close_in ic);
     tbl)

(* Ops attempted, and the ones that failed: an error, a native build
   that fell back, or checksums that differ from the interpreter's. *)
let attempted = ref 0
let failures = ref 0
let failure_notes = ref []

let note_failure msg =
  incr failures;
  if List.length !failure_notes < 10 then
    failure_notes := msg :: !failure_notes

let check p (a : P.artifact) =
  T.span ~layer:"bench" "bench.check" @@ fun () ->
  let key = Pr.key p in
  match Hashtbl.find_opt (Lazy.force reference) key with
  | None ->
    note_failure (key ^ ": not in the reference");
    false
  | Some want ->
    let got = checksums a in
    got = want
    || begin
         note_failure
           (Printf.sprintf "%s: checksums %s, reference %s" key got want);
         false
       end

(* ---- files ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Filename.concat work_dir (Printf.sprintf "%s-%d" tag !n) in
    rm_rf d;
    Sys.mkdir d 0o755;
    d

let num f = J.Num f
let numi n = J.Num (float_of_int n)

let header () =
  let nctx = Native.create ~cache:(Cache.create ~disk:false ~version:0 ()) () in
  J.Obj
    [ ("ocaml", J.Str Sys.ocaml_version);
      ("native_toolchain",
       J.Str
         (match Native.toolchain_error nctx with
         | None -> "present"
         | Some e -> "missing: " ^ e));
      ("l2_kb_compile_budget", numi l2_kb);
      ("recommended_domains", numi (Fsc_rt.Domain_pool.recommended_size ())) ]

let write_result ~setup_s ~metrics ~detail =
  let probe =
    if !Calib.samples = [] then []
    else [ ("probe_ms", num (ms (median !Calib.samples))) ]
  in
  let j =
    J.Obj
      ([ ("header", header ()); ("setup_s", num setup_s) ]
      @ probe
      @ [ ("attempted", numi !attempted);
          ("failed", numi !failures);
          ("failure_notes",
           J.List (List.rev_map (fun s -> J.Str s) !failure_notes));
          ("metrics", J.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
          ("detail", J.Obj detail) ])
  in
  let oc = open_out out_path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc;
  if traced && not setup_only then
    T.write_chrome
      (Filename.remove_extension out_path ^ ".trace.json")
      ~t_base:t_main

(* ---- calls into the layers, each under a span ---- *)

(* The CLI's native context for a cache directory (async builds). *)
let native_ctx dir =
  let cache = Cache.create ~dir ~version:Native.format_version () in
  let ctx = Native.create ~cache ~l2_kb () in
  (match Native.toolchain_error ctx with
  | Some e -> fail "no native toolchain, so no native metrics: %s" e
  | None -> ());
  ctx

(* A compile through the cache; the span is named after the outcome. *)
let cached_compile cache options src =
  let r, dt =
    timed (fun () ->
        T.span ~layer:"cache" "cache.compile" (fun () ->
            Cc.compile ~cache options src))
  in
  T.rename_last (match snd r with `Hit -> "cache.hit" | _ -> "cache.miss");
  (fst r, dt)

let link ?native engine ca =
  T.span ~layer:"driver" "driver.link" (fun () -> P.link ~engine ?native ca)

let run ?(layer = "runtime") a =
  snd (timed (fun () -> T.span ~layer "runtime.run" (fun () -> P.run a)))

let native_reports (a : P.artifact) =
  List.filter_map
    (fun (_, impl) ->
      match impl with
      | P.Native_jit (_, nk) -> Some (Native.report nk)
      | _ -> None)
    a.P.a_kernels

let vector_fallbacks (a : P.artifact) =
  List.fold_left
    (fun acc (_, impl) ->
      let plan =
        match impl with
        | P.Vectorised (_, plan) -> Some plan
        | P.Native_jit (_, nk) -> Some (Native.plan nk)
        | _ -> None
      in
      match plan with
      | Some p -> acc + List.length (Fsc_rt.Kernel_bytecode.fallbacks p)
      | None -> acc)
    0 a.P.a_kernels

(* Nest counts of the native builds among [reports]. *)
let codegen_counts reports =
  let built =
    List.filter
      (fun r -> r.Native.rp_origin = Some Native.Origin_built)
      reports
  in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  [ ("codegen.build_ms",
     median (List.filter_map (fun r -> r.Native.rp_build_ms) built));
    ("codegen.builds", float_of_int (List.length built));
    ("codegen.emitted_nests", sum (fun r -> r.Native.rp_native_nests));
    ("codegen.fallback_nests",
     sum (fun r -> r.Native.rp_total_nests - r.Native.rp_native_nests));
    ("codegen.fused_nests", sum (fun r -> r.Native.rp_fused_nests)) ]

(* ---- per-layer figures read off the spans ---- *)

let counter name =
  Option.value (List.assoc_opt name (Obs.counter_totals ())) ~default:0

(* Mean time per compile of the pipeline stages in [names], from the
   [Obs] spans the program records. *)
let stage_means () =
  let evs = Obs.events () in
  let total names =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if List.mem e.Obs.e_name names then acc +. e.Obs.e_dur else acc)
      0. evs
  in
  let compiles =
    List.length
      (List.filter (fun (e : Obs.event) -> e.Obs.e_name = "frontend") evs)
  in
  let per_compile names =
    if compiles = 0 then 0. else ms (total names) /. float_of_int compiles
  in
  [ ("fortran.frontend_ms", per_compile [ "frontend" ]);
    ("core.discovery_ms", per_compile [ "discovery" ]);
    ("core.merge_ms", per_compile [ "merge" ]);
    ("core.extraction_ms", per_compile [ "extraction" ]);
    ("lowering.passes_ms",
     per_compile
       [ "stencil-to-scf"; "canonicalize"; "loop specialisation";
         "scf-to-openmp"; "cpu tile annotation" ]);
    ("ir.verify_ms", per_compile [ "verify"; "verify host" ]);
    ("analysis.footprint_ms", per_compile [ "footprint analysis" ]) ]

let own_span_mean name =
  mean
    (List.filter_map
       (fun s ->
         if s.T.s_name = name then Some (ms (s.T.s_t1 -. s.T.s_t0)) else None)
       !T.recorded)

(* Self time of each cache miss: the compile span minus the pipeline
   stages inside it, which leaves the lookup, the encode and the put. *)
let cache_store_ms () =
  let evs = Obs.events () in
  let epoch = !Obs.epoch in
  mean
    (List.filter_map
       (fun s ->
         if s.T.s_name <> "cache.miss" then None
         else
           let inner =
             List.fold_left
               (fun acc (e : Obs.event) ->
                 let t0 = epoch +. e.Obs.e_start in
                 if e.Obs.e_cat = "pipeline" && e.Obs.e_tid = s.T.s_tid
                    && t0 >= s.T.s_t0
                    && t0 +. e.Obs.e_dur <= s.T.s_t1
                    && e.Obs.e_name <> "cache lookup"
                 then acc +. e.Obs.e_dur
                 else acc)
               0. evs
           in
           Some (ms (s.T.s_t1 -. s.T.s_t0 -. inner)))
       !T.recorded)

(* Self time per layer over the traced ops, and the share of their wall
   clock no layer span accounts for. *)
let layer_breakdown () =
  let t_lo =
    List.fold_left (fun a s -> Float.min a s.T.s_t0) infinity !T.recorded
  in
  let t_hi = List.fold_left (fun a s -> Float.max a s.T.s_t1) 0. !T.recorded in
  let nodes =
    T.own_nodes ~layer_of:(fun s ->
        if s.T.s_parent = 0 then "op" else s.T.s_layer)
    @ T.obs_nodes ~t_lo ~t_hi
  in
  let selfs, window_s = T.self_times nodes in
  let selfs = List.filter (fun (l, _) -> l <> "op") selfs in
  let accounted = List.fold_left (fun acc (_, t) -> acc +. t) 0. selfs in
  ( J.Obj (List.map (fun (l, t) -> (l ^ "_ms", num (ms t))) selfs),
    if window_s > 0. then 100. *. (window_s -. accounted) /. window_s
    else 0. )

let cache_hit_ratio cache =
  let s = Cache.stats cache in
  let hits = s.Cache.mem_hits + s.Cache.disk_hits in
  ratio hits (hits + s.Cache.misses)

let goodput () = ratio (!attempted - !failures) !attempted

(* Metrics shared by the traced runs of the closed-loop workloads. *)
let traced_common ~overhead_pct =
  let layers, unaccounted = layer_breakdown () in
  ( stage_means ()
    @ [ ("cache.store_ms", cache_store_ms ());
        ("cache.hit_ms", own_span_mean "cache.hit");
        ("driver.link_ms", own_span_mean "driver.link");
        ("trace.unaccounted_pct", unaccounted);
        ("trace.overhead_pct", overhead_pct) ],
    ("layer_self_ms", layers) )

(* ================================================================== *)
(* exec-steady and exec-parallel                                        *)
(* ================================================================== *)

type case = {
  c_group : string; (* vector | native | pool | dist *)
  c_label : string;
  c_prog : Pr.t;
  c_target : P.target;
  c_engine : P.exec_engine;
}

(* exec-steady runs the serial engine groups, exec-parallel the two that
   use both cores. Each workload's latency is a geometric mean over its
   two groups, so one group running 2x slower moves it by 41%. *)
let exec_groups = function
  | "exec-parallel" -> [ "pool"; "dist" ]
  | _ -> [ "vector"; "native" ]

let exec_cases workload =
  let mk group engine target (label, prog) =
    { c_group = group; c_label = label; c_prog = prog; c_target = target;
      c_engine = engine }
  in
  let four =
    [ ("gs48", Pr.gs48); ("gs96", Pr.gs96); ("pw32", Pr.pw32);
      ("lap512", Pr.lap512) ]
  in
  List.map (mk "vector" P.Engine_vector P.Serial) four
  @ List.map (mk "native" P.Engine_native P.Serial) four
  @ List.map
      (mk "pool" P.Engine_native (P.Openmp 2))
      [ ("gs48", Pr.gs48); ("lap512", Pr.lap512) ]
  @ List.map
      (mk "dist" P.Engine_vector (P.Dist 2))
      [ ("gs48", Pr.gs48); ("res48", Pr.res48) ]
  |> List.filter (fun c -> List.mem c.c_group (exec_groups workload))

let case_name c = c.c_group ^ "." ^ c.c_label

(* The op stream: each round runs every case once, in a seeded order. *)
let exec_rounds cases =
  let rng = Random.State.make [| seed; 1 |] in
  let n = List.length cases in
  fun () -> Pr.shuffle rng (Array.init n Fun.id)

type exec_setup = {
  linked : (case * P.artifact) list;
  cache : Cache.t;
  miss_ms : float list ref list; (* per distinct (program, target) *)
  recompile : int -> unit; (* one more miss of the i-th (mod) program *)
  first_run_ms : float list;
  stencils : int * int;
}

(* Compile each distinct (program, target) into a fresh cache — a miss,
   then a hit — with four more misses into throwaway caches for the
   compile-time medians; link every case, run it once (native builds
   start here), wait for the builds, and warm every case on its final
   engine. *)
let exec_setup cases () =
  let dir = fresh_dir "exec" in
  let cache = Cc.create_cache ~dir () in
  let nctx = native_ctx dir in
  let compiled = Hashtbl.create 8 in
  let sampled = ref [] in
  let stencils = ref (0, 0) in
  (* a cache miss into a throwaway cache, timed *)
  let miss (options, src, samples) =
    let dir = fresh_dir "compile" in
    let _, dt = cached_compile (Cc.create_cache ~dir ()) options src in
    rm_rf dir;
    samples := ms dt :: !samples
  in
  let compile c =
    let k = (Pr.key c.c_prog, P.target_name c.c_target) in
    match Hashtbl.find_opt compiled k with
    | Some ca -> ca
    | None ->
      let options = P.default_options ~target:c.c_target () in
      let src = Pr.source c.c_prog in
      let ca, dt = cached_compile cache options src in
      let entry = (options, src, ref [ ms dt ]) in
      for _ = 1 to 4 do
        miss entry
      done;
      sampled := entry :: !sampled;
      ignore (cached_compile cache options src);
      let f, m = !stencils in
      stencils :=
        (f + ca.P.ca_stats.P.st_discovered, m + ca.P.ca_stats.P.st_merged);
      Hashtbl.replace compiled k ca;
      ca
  in
  let first_run_ms = ref [] in
  let linked =
    List.map
      (fun c ->
        let native =
          if c.c_engine = P.Engine_native then Some nctx else None
        in
        let a = link ?native c.c_engine (compile c) in
        first_run_ms := ms (run a) :: !first_run_ms;
        incr attempted;
        ignore (check c.c_prog a);
        (c, a))
      cases
  in
  List.iter
    (fun (c, (a : P.artifact)) ->
      List.iter
        (fun (_, impl) ->
          match impl with P.Native_jit (_, nk) -> Native.await nk | _ -> ())
        a.P.a_kernels;
      List.iter
        (fun r ->
          if r.Native.rp_engine = "vector" then
            note_failure
              (Printf.sprintf "%s: native tier fell back to vector (%s)"
                 (case_name c) r.Native.rp_detail))
        (native_reports a);
      ignore (run a))
    linked;
  let entries = Array.of_list (List.rev !sampled) in
  { linked; cache;
    miss_ms = List.map (fun (_, _, r) -> r) !sampled;
    recompile = (fun i -> miss entries.(i mod Array.length entries));
    first_run_ms = !first_run_ms; stencils = !stencils }

(* Distributed-memory counts per run, read off one more run of each
   dist case with [Obs] counters on; at 4 and 8 ranks only the message
   count is recorded (this host runs 2 ranks at a time). *)
let dmp_metrics dist =
  let overlap_before = counter "dmp.overlap_hits" in
  Obs.set_enabled true;
  let stats =
    List.filter_map
      (fun (c, (a : P.artifact)) ->
        P.run a;
        incr attempted;
        ignore (check c.c_prog a);
        Option.map Dk.stats a.P.a_dist)
      dist
  in
  Obs.set_enabled false;
  let per_run f =
    mean
      (List.map
         (fun s ->
           float_of_int (List.fold_left (fun acc g -> acc + f g) 0 s.Dk.ds_groups))
         stats)
  in
  let msgs_at ranks =
    let ca, _ =
      Cc.compile (P.default_options ~target:(P.Dist ranks) ()) (Pr.source Pr.gs48)
    in
    let a = P.link ~engine:P.Engine_vector ca in
    P.run a;
    incr attempted;
    ignore (check Pr.gs48 a);
    let m =
      match a.P.a_dist with
      | Some d ->
        List.fold_left (fun acc g -> acc + g.Dk.gs_msgs) 0 (Dk.stats d).Dk.ds_groups
      | None -> 0
    in
    P.shutdown a;
    float_of_int m
  in
  [ ("dmp.halo_msgs_per_run", per_run (fun g -> g.Dk.gs_msgs));
    ("dmp.halo_kb_per_run", per_run (fun g -> g.Dk.gs_bytes) /. 1024.);
    ("dmp.overlap_hits",
     ratio (counter "dmp.overlap_hits" - overlap_before) (List.length stats));
    ("dmp.stales_avoided",
     mean
       (List.map
          (fun s -> ratio s.Dk.ds_stales_avoided s.Dk.ds_dist_runs)
          stats));
    ("dmp.halo_msgs_per_run_4ranks", msgs_at 4);
    ("dmp.halo_msgs_per_run_8ranks", msgs_at 8) ]

let exec_steady workload =
  T.set traced;
  let st = T.op ~layer:"op" "setup" 0 (exec_setup (exec_cases workload)) in
  let setup_s = now () -. t_main in
  T.set false;
  if setup_only then begin
    List.iter (fun (_, a) -> P.shutdown a) st.linked;
    write_result ~setup_s ~metrics:[] ~detail:[];
    exit 0
  end;
  let cases = Array.of_list st.linked in
  let samples = Array.make (Array.length cases) [] in
  let next_round = exec_rounds (exec_cases workload) in
  let steals0 = counter "pool.steals" in
  let chunks () = counter "pool.chunks.caller" + counter "pool.chunks.worker" in
  let chunks0 = chunks () in
  let arena0 = fst (Memref.arena_stats ()) in
  let pool_ops = ref 0 in
  let deadline = now () +. seconds in
  let round = ref 0 in
  let round_times = ref [] in
  (* in a traced run, odd rounds are traced and even ones are not: the
     difference is the tracing overhead *)
  while now () < deadline do
    let tracing = traced && !round mod 2 = 1 in
    T.set tracing;
    let total = ref 0. and ok = ref true in
    (* the host-speed probe, once per untraced round, so that it always
       starts with caches full of the last op's data, not its own *)
    if not tracing then Calib.sample ();
    Array.iter
      (fun i ->
        let c, a = cases.(i) in
        incr attempted;
        if tracing && (c.c_group = "pool" || c.c_group = "dist") then
          incr pool_ops;
        let layer = if c.c_group = "dist" then "dmp" else "runtime" in
        T.op ~layer:"op" ("op " ^ case_name c) !attempted @@ fun () ->
        match run ~layer a with
        | dt when check c.c_prog a ->
          samples.(i) <- (tracing, dt) :: samples.(i);
          total := !total +. dt
        | _ -> ok := false
        | exception e ->
          ok := false;
          note_failure (case_name c ^ ": " ^ Printexc.to_string e))
      (next_round ());
    if !ok && not tracing then round_times := !total :: !round_times;
    (* one more cache-miss compile per round, spread over the run *)
    st.recompile !round;
    incr round
  done;
  T.set false;
  let pick traced_ops =
    Array.to_list
      (Array.mapi
         (fun i (c, _) ->
           (c, List.filter_map (fun (t, d) -> if t = traced_ops then Some d else None) samples.(i)))
         cases)
  in
  let untraced = pick false in
  let mcells (c, xs) =
    if xs = [] then 0.
    else float_of_int (Pr.cell_updates c.c_prog) /. mean xs /. 1e6
  in
  let groups = exec_groups workload in
  let in_group g f =
    gmean
      (List.filter_map
         (fun ((c, _) as cx) -> if c.c_group = g then Some (f cx) else None)
         untraced)
  in
  let group g = in_group g mcells in
  (* one op's time at quantile [q]: each engine group weighs the same,
     whatever its cases cost *)
  let op_ms q =
    gmean (List.map (fun g -> in_group g (fun (_, xs) -> ms (quantile q xs))) groups)
  in
  let case_detail ((c, xs) as cx) =
    ( case_name c,
      J.Obj
        [ ("target", J.Str (P.target_name c.c_target));
          ("engine", J.Str (P.engine_name c.c_engine));
          ("program", J.Str (Pr.key c.c_prog));
          ("samples", numi (List.length xs));
          ("median_ms", num (ms (median xs)));
          ("p90_ms", num (ms (quantile 0.9 xs)));
          ("mcells_per_s", num (mcells cx));
          ("flops_per_cell", numi (Pr.flops_per_cell c.c_prog.Pr.kind));
          ("bytes_per_cell", numi (Pr.bytes_per_cell c.c_prog.Pr.kind)) ] )
  in
  let detail =
    [ ("cases", J.Obj (List.map case_detail untraced));
      ("rounds", numi !round);
      ("compile_samples",
       numi (List.fold_left (fun acc r -> acc + List.length !r) 0 st.miss_ms)) ]
  in
  let metrics, detail =
    if not traced then
      ( [ ("latency_p50_ms", op_ms 0.5);
          ("latency_p90_ms", op_ms 0.9);
          ("compile_p50_ms", gmean (List.map (fun r -> median !r) st.miss_ms));
          ("goodput_ratio", goodput ()) ],
        ("group_p50_ms",
         J.Obj
           (List.map
              (fun g -> (g, num (in_group g (fun (_, xs) -> ms (median xs)))))
              groups))
        :: ("round_p50_ms", num (ms (median !round_times)))
        :: ("round_p90_ms", num (ms (quantile 0.9 !round_times)))
        :: detail )
    else begin
      let tr = pick true in
      let overhead_pct =
        100.
        *. (gmean (List.map (fun (_, xs) -> median xs) tr)
            /. gmean (List.map (fun (_, xs) -> median xs) untraced)
           -. 1.)
      in
      let common, layers = traced_common ~overhead_pct in
      let reports = List.concat_map (fun (_, a) -> native_reports a) st.linked in
      let dist = List.filter (fun (c, _) -> c.c_group = "dist") st.linked in
      let found, merged = st.stencils in
      ( (common
          @ codegen_counts reports
          @ (if dist = [] then [] else dmp_metrics dist)
          @ [ ("core.stencils_found", float_of_int found);
              ("core.stencils_merged", float_of_int merged);
              ("cache.hit_ratio", cache_hit_ratio st.cache);
              ("cache.disk_bytes", float_of_int (Cache.disk_bytes st.cache));
              ("runtime.vector_fallback_nests",
               float_of_int
                 (List.fold_left (fun acc (_, a) -> acc + vector_fallbacks a) 0 st.linked));
              ("runtime.pool_steals", ratio (counter "pool.steals" - steals0) !pool_ops);
              ("runtime.pool_chunks", ratio (chunks () - chunks0) !pool_ops);
              ("runtime.arena_reuses",
               ratio (fst (Memref.arena_stats ()) - arena0) !attempted);
              ("runtime.first_run_ms", median st.first_run_ms);
              ("exec_vector_mcells_per_s", group "vector");
              ("exec_native_mcells_per_s", group "native");
              ("exec_pool_mcells_per_s", group "pool");
              ("exec_dist_mcells_per_s", group "dist") ]
          @ List.map
              (fun ((c, _) as cx) ->
                ("exec." ^ case_name c ^ ".mcells_per_s", mcells cx))
              untraced),
        layers :: detail )
    end
  in
  List.iter (fun (_, a) -> P.shutdown a) st.linked;
  write_result ~setup_s ~metrics ~detail

(* ================================================================== *)
(* cold-start                                                           *)
(* ================================================================== *)

type cold_op = {
  co_traced : bool;
  co_compile_s : float;
  co_run_s : float;
  co_total_s : float;
  co_stats : P.stencil_stats;
  co_reports : Native.report list;
  co_vfall : int;
  co_disk : int;
}

(* What [sfc run --exec-engine native] does on a new file with an empty
   cache directory: cached compile (a miss, which stores the entry),
   link on the native engine in the default async mode, run, shut down
   (which drains the build and publishes the plugin). *)
let cold_op ~traced_op p =
  let dir = fresh_dir "cold" in
  let options = P.default_options () in
  let src = Pr.source p in
  let (ca, a, compile_s, run_s), total_s =
    timed (fun () ->
        let nctx = native_ctx dir in
        let cache = Cc.create_cache ~dir () in
        let ca, compile_s = cached_compile cache options src in
        let a = link ~native:nctx P.Engine_native ca in
        let run_s = run a in
        T.span ~layer:"codegen" "driver.shutdown" (fun () -> P.shutdown a);
        (ca, a, compile_s, run_s))
  in
  ignore (check p a);
  let reports = native_reports a in
  List.iter
    (fun r ->
      if r.Native.rp_engine = "vector" then
        note_failure
          (Printf.sprintf "%s: native tier fell back to vector (%s)" (Pr.key p)
             r.Native.rp_detail))
    reports;
  let disk =
    Array.fold_left
      (fun acc f ->
        acc + try (Unix.stat (Filename.concat dir f)).Unix.st_size with Unix.Unix_error _ -> 0)
      0 (Sys.readdir dir)
  in
  rm_rf dir;
  { co_traced = traced_op; co_compile_s = compile_s;
    co_run_s = run_s; co_total_s = total_s; co_stats = ca.P.ca_stats;
    co_reports = reports; co_vfall = vector_fallbacks a; co_disk = disk }

let cold_setup () =
  ignore (Lazy.force reference);
  List.iter
    (fun p ->
      incr attempted;
      ignore (cold_op ~traced_op:false p))
    Pr.cold_warmup

let cold_start () =
  T.set traced;
  T.op ~layer:"op" "setup" 0 cold_setup;
  let setup_s = now () -. t_main in
  T.set false;
  if setup_only then begin
    write_result ~setup_s ~metrics:[] ~detail:[];
    exit 0
  end;
  let stream = Pr.cold_stream (Random.State.make [| seed; 2 |]) in
  let ops = ref [] in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while now () < deadline && !i < Array.length stream do
    let tracing = traced && !i mod 2 = 1 in
    T.set tracing;
    incr attempted;
    (match
       T.op ~layer:"op" ("op " ^ Pr.key stream.(!i)) !attempted (fun () ->
           cold_op ~traced_op:tracing stream.(!i))
     with
    | o -> ops := o :: !ops
    | exception e ->
      note_failure (Pr.key stream.(!i) ^ ": " ^ Printexc.to_string e));
    incr i
  done;
  T.set false;
  let ops = List.rev !ops in
  let untraced = List.filter (fun o -> not o.co_traced) ops in
  let first_result os = List.map (fun o -> ms o.co_total_s) os in
  (* counts over the first 20 ops of the stream repeat exactly *)
  let head = List.filteri (fun i _ -> i < 20) ops in
  let sumi f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 head) in
  let detail = [ ("ops", numi (List.length ops)) ] in
  let metrics, detail =
    if not traced then
      ( [ ("latency_p50_ms", median (first_result untraced));
          ("latency_p90_ms", quantile 0.9 (first_result untraced));
          ("compile_p50_ms", median (List.map (fun o -> ms o.co_compile_s) untraced));
          ("goodput_ratio", goodput ()) ],
        detail )
    else begin
      let tr = List.filter (fun o -> o.co_traced) ops in
      let overhead_pct =
        100. *. ((median (first_result tr) /. median (first_result untraced)) -. 1.)
      in
      let common, layers = traced_common ~overhead_pct in
      ( (common
          @ codegen_counts (List.concat_map (fun o -> o.co_reports) head)
          @ [ ("core.stencils_found", sumi (fun o -> o.co_stats.P.st_discovered));
              ("core.stencils_merged", sumi (fun o -> o.co_stats.P.st_merged));
              ("cache.disk_bytes", mean (List.map (fun o -> float_of_int o.co_disk) ops));
              ("runtime.vector_fallback_nests", sumi (fun o -> o.co_vfall));
              ("runtime.first_run_ms", median (List.map (fun o -> ms o.co_run_s) ops)) ]),
        layers :: detail )
    end
  in
  write_result ~setup_s ~metrics ~detail

(* ================================================================== *)
(* serve-mix                                                            *)
(* ================================================================== *)

(* Fixed absolute offered rates, sized once on a 2-vCPU host. Saturated,
   the one worker completed 230-270 req/s of this mix while the host ran
   at full speed (a mean compile + run of 3.5-4.2 ms per request), and
   187 req/s while neighbours slowed it down (5.2 ms). [heavy_rps] is
   about half the full-speed capacity and 64% of the slowed one, not the
   80% first planned: at 150 req/s a slowed host already built a backlog
   (goodput 0.94, p90 95 ms), so the backlog, not the server, would set
   the figures. *)
let light_rps = 20.
let heavy_rps = 120.
let clients = 8

type request = {
  rq_phase : string;
  rq_due : float; (* seconds after the load starts *)
  rq_prog : Pr.t;
  rq_cold : bool;
  rq_client : int;
}

(* Evenly spaced arrivals at [light_rps] for the first half of the run
   and [heavy_rps] for the second (a fixed offered rate: queueing comes
   from the service, not from arrival bursts). The programs come in
   blocks of 16, shuffled within the block: 4 fresh sources (drawn from
   the cold-start space without replacement, so each is a compile-cache
   miss) and each base program 3 times, so every run offers the same
   mix. *)
let serve_schedule () =
  let rng = Random.State.make [| seed; 3 |] in
  let fresh = Pr.stratified rng Pr.cold_space in
  let block () =
    Pr.shuffle rng
      (Array.of_list
         (List.init 4 (fun _ -> None)
         @ List.concat_map (fun p -> [ Some p; Some p; Some p ]) Pr.serve_base))
  in
  let pending = ref [||] and next = ref 0 in
  let next_fresh = ref 0 in
  let half = seconds /. 2. in
  let out = ref [] in
  let phase name rate t0 t1 =
    let t = ref t0 in
    let continue = ref true in
    while !continue do
      t := !t +. (1. /. rate);
      if !t >= t1 then continue := false
      else begin
        if !next >= Array.length !pending then begin
          pending := block ();
          next := 0
        end;
        let slot = !pending.(!next) in
        incr next;
        let cold = slot = None in
        let prog =
          match slot with
          | Some p -> p
          | None ->
            incr next_fresh;
            fresh.((!next_fresh - 1) mod Array.length fresh)
        in
        out :=
          { rq_phase = name; rq_due = !t; rq_prog = prog; rq_cold = cold;
            rq_client = Random.State.int rng clients }
          :: !out
      end
    done
  in
  phase "light" light_rps 0. half;
  phase "heavy" heavy_rps half seconds;
  List.rev !out

let request_line i rq =
  J.to_string
    (J.Obj
       [ ("id", numi i); ("source", J.Str (Pr.source rq.rq_prog));
         ("action", J.Str "run"); ("target", J.Str "serial");
         ("client", J.Str (Printf.sprintf "c%d" rq.rq_client)) ])

let write_requests path reqs =
  let oc = open_out path in
  List.iteri
    (fun i rq ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("id", numi i); ("phase", J.Str rq.rq_phase);
                ("due", num rq.rq_due); ("key", J.Str (Pr.key rq.rq_prog));
                ("cold", J.Bool rq.rq_cold); ("line", J.Str (request_line i rq)) ]));
      output_char oc '\n')
    reqs;
  close_out oc

(* Set-up: a fresh cache holding every base program — compiled, stored,
   linked and run once, as a first request would. *)
let serve_setup () =
  let dir = fresh_dir "serve" in
  let cache = Cc.create_cache ~dir () in
  let options = P.default_options () in
  let first_runs =
    List.map
      (fun p ->
        let ca, _ = cached_compile cache options (Pr.source p) in
        let a = link P.Engine_vector ca in
        let dt = run a in
        incr attempted;
        ignore (check p a);
        P.shutdown a;
        ms dt)
      Pr.serve_base
  in
  ignore (Lazy.force reference);
  (cache, first_runs)

(* Server-side per-layer figures from the [Obs] spans of the jobs. *)
let serve_layers () =
  let evs = Obs.events () in
  let named n = List.filter (fun (e : Obs.event) -> e.Obs.e_name = n) evs in
  let within (outer : Obs.event) (inner : Obs.event) =
    inner.Obs.e_tid = outer.Obs.e_tid
    && inner.Obs.e_start >= outer.Obs.e_start
    && inner.Obs.e_start +. inner.Obs.e_dur <= outer.Obs.e_start +. outer.Obs.e_dur
  in
  let hits =
    List.filter
      (fun l -> List.exists (within l) (named "cache revalidate"))
      (named "cache lookup")
  in
  [ ("cache.hit_ms", mean (List.map (fun (e : Obs.event) -> ms e.Obs.e_dur) hits));
    ("driver.link_ms",
     mean (List.map (fun (e : Obs.event) -> ms e.Obs.e_dur) (named "link + kernel compile")))
  ]

(* The grid checksums of a serve reply, rendered like [checksums]. *)
let reply_checksums line =
  match J.member "checksums" (J.of_string line) with
  | Some (J.Obj kv) ->
    kv
    |> List.map (fun (n, v) ->
           n ^ "=" ^ match v with J.Str s -> s | _ -> "?")
    |> List.sort compare |> String.concat ","
  | _ -> "no checksums: " ^ line

let serve_mix () =
  let socket =
    match opt "--socket" with
    | Some s -> s
    | None -> fail "serve-mix needs --socket"
  in
  T.set traced;
  let cache, first_runs = T.op ~layer:"op" "setup" 0 serve_setup in
  T.set false;
  let store_ms = cache_store_ms () in
  let server =
    Domain.spawn (fun () ->
        Service.serve ~cache ~workers:1 ~handlers:2 ~queue_capacity:4096
          ~socket ())
  in
  let rec wait_ready tries =
    match Service.request ~socket [ {|{"action": "metrics"}|} ] with
    | _ -> ()
    | exception _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait_ready (tries - 1)
  in
  wait_ready 1000;
  (* set-up ends with three warm requests per base program *)
  List.iteri
    (fun i p ->
      let rq =
        { rq_phase = "setup"; rq_due = 0.; rq_prog = p; rq_cold = false;
          rq_client = 0 }
      in
      incr attempted;
      match Service.request ~socket [ request_line i rq ] with
      | [ line ] when reply_checksums line = Hashtbl.find (Lazy.force reference) (Pr.key p) -> ()
      | lines -> note_failure (Pr.key p ^ ": warm-up reply " ^ String.concat " " lines))
    (List.concat [ Pr.serve_base; Pr.serve_base; Pr.serve_base ]);
  let setup_s = now () -. t_main in
  let stop () =
    ignore (Service.request ~socket [ {|{"action": "shutdown"}|} ]);
    Domain.join server
  in
  if setup_only then begin
    stop ();
    write_result ~setup_s ~metrics:[] ~detail:[];
    exit 0
  end;
  (match opt "--requests" with
  | Some path -> write_requests path (serve_schedule ())
  | None -> fail "serve-mix needs --requests");
  (* the host-speed probe, every 50 ms while the load runs *)
  let loading = Atomic.make true in
  let prober =
    Thread.create
      (fun () ->
        while Atomic.get loading do
          Calib.sample ();
          Thread.delay 0.05
        done)
      ()
  in
  print_endline "READY";
  (* the generator switches tracing on mid-run and says when to stop *)
  let rec control () =
    match input_line stdin with
    | "trace 1" -> T.set true; control ()
    | "stop" -> ()
    | _ -> control ()
    | exception End_of_file -> ()
  in
  control ();
  Atomic.set loading false;
  Thread.join prober;
  stop ();
  T.set false;
  let metrics, detail =
    if not traced then ([], [])
    else
      let layers, _ = layer_breakdown () in
      ( stage_means () @ serve_layers ()
        @ [ ("cache.store_ms", store_ms);
            ("cache.hit_ratio", cache_hit_ratio cache);
            ("cache.disk_bytes", float_of_int (Cache.disk_bytes cache));
            ("runtime.first_run_ms", median first_runs) ],
        [ ("layer_self_ms", layers) ] )
  in
  write_result ~setup_s ~metrics ~detail

(* ================================================================== *)
(* op streams and the reference                                         *)
(* ================================================================== *)

let stream () =
  match opt "--workload" with
  | Some (("exec-steady" | "exec-parallel") as w) ->
    let next = exec_rounds (exec_cases w) in
    let cases = Array.of_list (exec_cases w) in
    for _ = 1 to 5 do
      Array.iter (fun i -> print_endline (case_name cases.(i))) (next ())
    done
  | Some "cold-start" ->
    Array.iter
      (fun p -> print_endline (Pr.key p))
      (Pr.cold_stream (Random.State.make [| seed; 2 |]))
  | Some "serve-mix" ->
    List.iter
      (fun rq ->
        Printf.printf "%s %.9f %s c%d\n" rq.rq_phase rq.rq_due (Pr.key rq.rq_prog)
          rq.rq_client)
      (serve_schedule ())
  | _ ->
    fail "stream needs --workload exec-steady|exec-parallel|cold-start|serve-mix"

(* One reference line per program: the FIR interpreter's checksums. *)
let reference_shard () =
  let shard = opt_int "--shard" 0 and shards = opt_int "--shards" 1 in
  let progs = List.sort_uniq compare (List.map Pr.key (Pr.all ())) in
  let by_key = List.map (fun p -> (Pr.key p, p)) (Pr.all ()) in
  List.iteri
    (fun i key ->
      if i mod shards = shard then begin
        let a = P.flang_only (Pr.source (List.assoc key by_key)) in
        P.run a;
        Printf.printf "%s\t%s\n%!" key (checksums a)
      end)
    progs

let () =
  match args with
  | (("exec-steady" | "exec-parallel") as w) :: _ -> exec_steady w
  | "cold-start" :: _ -> cold_start ()
  | "serve-mix" :: _ -> serve_mix ()
  | "stream" :: _ -> stream ()
  | "reference" :: _ -> reference_shard ()
  | _ ->
    fail
      "usage: perfbench.exe \
       exec-steady|exec-parallel|cold-start|serve-mix|stream|reference \
       [options]"
