(* sfc — the stencil Fortran compiler driver.

   Subcommands:
     sfc compile FILE   dump IR at a chosen stage of the Figure-1 pipeline
     sfc run FILE       compile and execute a Fortran program
     sfc check FILE     run the static analyses without compiling (linter)
     sfc batch JOBS     run a JSONL job file over a worker pool
     sfc serve          serve the same job protocol on a Unix socket
     sfc passes         list the GPU pass pipeline (Listing 4)

   Examples:
     sfc compile prog.f90 --emit fir
     sfc compile prog.f90 --emit stencil
     sfc compile prog.f90 --emit host --target gpu-optimised
     sfc run prog.f90 --target openmp --threads 4 --stats --trace out.json
     sfc run prog.f90 --cache --stats
     sfc check prog.f90 --json
     sfc batch jobs.jsonl --workers 4 --cache-dir /tmp/sfc-cache
     sfc batch jobs.jsonl --socket /tmp/sfc.sock --client ci
     sfc serve --socket /tmp/sfc.sock --handlers 8 --quota 4 --cache-mb 64 *)

open Cmdliner
module P = Fsc_driver.Pipeline
module Cc = Fsc_driver.Compile_cache
module Cache = Fsc_cache.Cache
module Svc = Fsc_server.Service
module Obs = Fsc_obs.Obs
module J = Fsc_obs.Obs.Json
module Diag = Fsc_analysis.Diag
module Check = Fsc_analysis.Check
module Kb = Fsc_rt.Kernel_bytecode

let ( let* ) = Result.bind

(* Render typed driver errors and frontend failures as proper located
   diagnostics instead of raw exception backtraces; anything else is a
   genuine internal error and keeps propagating. *)
let with_diagnostics file f =
  try f () with
  | P.Error_diag d | Fsc_dmp.Decomp.Invalid_decomp d ->
    Error (`Msg (Diag.render ~file d))
  | e -> (
    match Check.diag_of_frontend_exn e with
    | Some d -> Error (`Msg (Diag.render ~file d))
    | None -> raise e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let target_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Svc.target_of_name s) in
  let print ppf t = Format.pp_print_string ppf (P.target_name t) in
  Arg.conv (parse, print)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Fortran source file")

let target_arg =
  Arg.(
    value
    & opt (some target_conv) None
    & info [ "target"; "t" ] ~docv:"TARGET"
        ~doc:
          "Execution target: serial (default), openmp, gpu-initial, \
           gpu-optimised or dist (distributed-memory over simulated \
           MPI; see --ranks).")

let threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N"
        ~doc:
          "OpenMP thread count; overrides the machine default. Requires \
           the openmp target (implied when no --target is given).")

(* The target/threads combination rules live in Service so the CLI and
   the job protocol reject the same nonsense the same way. *)
let resolve_target target threads =
  Result.map_error (fun e -> `Msg e) (Svc.resolve_target target threads)

let ranks_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ranks" ] ~docv:"N"
        ~doc:
          "Simulated MPI rank count for the dist target (default 4). \
           Requires --target dist.")

(* [--ranks] refines the dist target the same way [--threads] refines
   openmp; pairing it with any other target is an error, not a no-op. *)
let apply_ranks target ranks =
  match (target, ranks) with
  | _, Some n when n < 1 ->
    Error (`Msg (Printf.sprintf "ranks must be >= 1 (got %d)" n))
  | P.Dist _, Some n -> Ok (P.Dist n)
  | t, None -> Ok t
  | t, Some _ ->
    Error
      (`Msg
         (Printf.sprintf "ranks only apply to the dist target (target is %s)"
            (P.target_name t)))

(* Unknown engine names render as a located diagnostic (the flag's
   value is the "source") listing every valid spelling, instead of
   cmdliner's generic enum message. *)
let engine_conv =
  let parse s =
    match P.engine_of_name s with
    | Some e -> Ok e
    | None ->
      let d =
        Diag.error ~loc:(Diag.loc 1 1) ~code:"engine"
          ~notes:
            [ ( None,
                "valid engines: " ^ String.concat ", " P.engine_names ) ]
          (Printf.sprintf "unknown execution engine %S" s)
      in
      Error (`Msg (Diag.render ~file:"--exec-engine" d))
  in
  let print ppf e = Format.pp_print_string ppf (P.engine_name e) in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(
    value
    & opt engine_conv P.Engine_vector
    & info [ "exec-engine" ] ~docv:"ENGINE"
        ~doc:
          "Kernel execution engine: vector (default; row-at-a-time \
           bytecode with per-nest fallback to the closure JIT), native \
           (kernels emitted as OCaml, compiled and Dynlink'ed; vector \
           serves until the plugin is ready) or interp (force the \
           tree-walking interpreter). Link-time only: does not affect \
           compiled IR or the artifact cache.")

(* One line per kernel under --stats; for the vector engine each nest's
   row shape and which nests fell back to the closure JIT and why, for
   the native engine the build origin (cold build ms / warm cache hit)
   and per-nest fallbacks. *)
let impl_description = function
  | P.Native_jit (_, nk) -> Fsc_codegen.Native.describe nk
  | P.Interpreted r -> "interpreted (" ^ r ^ ")"
  | P.Vectorised (_, plan) -> Kb.describe plan

(* ---- artifact cache plumbing ---- *)

let cache_flag =
  Arg.(
    value
    & vflag None
        [ ( Some true,
            info [ "cache" ]
              ~doc:
                "Reuse compiled artifacts from the content-addressed \
                 cache (and populate it). Implied by $(b,--cache-dir)." );
          ( Some false,
            info [ "no-cache" ] ~doc:"Disable the artifact cache." ) ])

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Artifact cache directory (default: \\$XDG_CACHE_HOME/sfc or \
           ~/.cache/sfc).")

let cache_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "Disk budget for the artifact cache, in megabytes. Past it, \
           least-recently-used artifact sets (entry plus sidecars) are \
           evicted whole. Unbounded when absent.")

(* [default] is the policy when neither flag is given: off for the
   one-shot compile/run commands, on for the batch/serve service, where
   deduplicating repeated compiles is the point. *)
let make_cache ~default flag dir mb =
  let enabled =
    match flag with
    | Some b -> b
    | None -> default || dir <> None || mb <> None
  in
  let max_disk_bytes = Option.map (fun m -> m * 1024 * 1024) mb in
  if enabled then Some (Cc.create_cache ?dir ?max_disk_bytes ()) else None

let cache_status_name = function
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Off -> "off"

let print_cache_stats cache =
  match cache with
  | None -> ()
  | Some c ->
    let s = Cache.stats c in
    Printf.eprintf "cache: hits=%d misses=%d evictions=%d invalid=%d (%s)\n"
      (s.Cache.mem_hits + s.Cache.disk_hits)
      s.Cache.misses s.Cache.evictions s.Cache.invalid
      (Option.value (Cache.dir c) ~default:"memory only")

(* ---- observability plumbing ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:
          "Write a Chrome trace-event JSON file of the compilation and \
           execution (pipeline stages, passes, kernels, counters). Load \
           it in chrome://tracing or https://ui.perfetto.dev.")

(* Minor-heap words each pipeline stage allocated, summed per stage in
   completion order, then the cache store's (encode + put) when a miss
   wrote an entry: "stage minor words: frontend 26.1k, discovery 43.0k,
   ...; cache store 4.2k". The compile's share of minor collections
   follows these numbers, not the stages' time. *)
let print_stage_alloc () =
  let totals cat =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt "minor_words" e.Obs.e_args with
        | Some (Obs.A_int w) ->
          let prev = Option.value (List.assoc_opt e.Obs.e_name acc) ~default:0 in
          (e.Obs.e_name, prev + w) :: List.remove_assoc e.Obs.e_name acc
        | _ -> acc)
      [] (Obs.events_with_cat cat)
  in
  let show totals =
    String.concat ", "
      (List.rev_map
         (fun (name, w) ->
           Printf.sprintf "%s %.1fk" name (float_of_int w /. 1000.))
         totals)
  in
  match (totals "pipeline", totals "cache") with
  | [], [] -> ()
  | stages, [] -> Printf.eprintf "stage minor words: %s\n" (show stages)
  | stages, store ->
    Printf.eprintf "stage minor words: %s; %s\n" (show stages) (show store)

let setup_obs ~trace ~stats =
  if trace <> None || stats then begin
    Obs.reset ();
    Obs.set_enabled true
  end

let finish_obs ~trace =
  match trace with
  | None -> Ok ()
  | Some path -> (
    match Obs.write_trace path with
    | () ->
      Printf.eprintf
        "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n"
        path;
      Ok ()
    | exception Sys_error e -> Error (`Msg ("--trace: cannot write " ^ e)))

(* ---- compile ---- *)

let emit_arg =
  Arg.(
    value
    & opt (enum [ ("fir", `Fir); ("stencil-mixed", `Mixed);
                  ("host", `Host); ("stencil", `Stencil); ("gpu", `Gpu);
                  ("std", `Std) ])
        `Stencil
    & info [ "emit" ] ~docv:"STAGE"
        ~doc:
          "Which IR to print: fir (frontend output), stencil-mixed (after \
           discovery+merge), host (the FIR module after extraction), \
           stencil (the extracted module after lowering), gpu (after the \
           Listing-4 pipeline; GPU targets only), std (FIR lowered to the \
           standard scf/memref dialects — the paper's further-work \
           item).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print pipeline, pass, kernel and device statistics (timings, \
           op counts, rewrite/pool counters, cache hit/miss).")

let compile_cmd =
  let run file emit target threads cache_flag cache_dir cache_mb stats trace
      =
    with_diagnostics file @@ fun () ->
    let* target = resolve_target target threads in
    let src = read_file file in
    setup_obs ~trace ~stats;
    Fsc_dialects.Registry.init ();
    let cache = make_cache ~default:false cache_flag cache_dir cache_mb in
    let options = P.default_options ~target () in
    (* the stages that need the extracted artifact share one (possibly
       cached) compile; the early-stage dumps bypass it *)
    let compiled = lazy (Cc.compile ?cache options src) in
    let* () =
      match emit with
      | `Fir ->
        let m = Fsc_fortran.Flower.compile_source src in
        print_string (Fsc_ir.Printer.module_to_string m);
        Ok ()
      | `Mixed ->
        let m = Fsc_fortran.Flower.compile_source src in
        let dstats = Fsc_core.Discovery.run m in
        ignore (Fsc_core.Merge.run m);
        Printf.eprintf "; %d stencils discovered, %d rejects\n"
          dstats.Fsc_core.Discovery.found
          (List.length dstats.Fsc_core.Discovery.rejected);
        print_string (Fsc_ir.Printer.module_to_string m);
        Ok ()
      | `Std ->
        let m = Fsc_fortran.Flower.compile_source src in
        let { Fsc_lowering.Fir_to_std_dialects.lowered; skipped } =
          Fsc_lowering.Fir_to_std_dialects.run m
        in
        List.iter
          (fun (f, reason) ->
            Printf.eprintf "; %s kept as FIR: %s\n" f reason)
          skipped;
        print_string (Fsc_ir.Printer.module_to_string lowered);
        Ok ()
      | `Host ->
        let ca, _ = Lazy.force compiled in
        print_string (Fsc_ir.Printer.module_to_string ca.P.ca_host);
        Ok ()
      | `Stencil ->
        let ca, _ = Lazy.force compiled in
        if ca.P.ca_stats.P.st_kernels = 0 then
          Error
            (`Msg
               "no stencil module: the program has no recognised stencil \
                sections")
        else begin
          print_string (Fsc_ir.Printer.module_to_string ca.P.ca_stencil);
          Ok ()
        end
      | `Gpu -> (
        let ca, _ = Lazy.force compiled in
        match target with
        | P.Gpu _ ->
          let gm = P.gpu_ir ca in
          print_string (Fsc_ir.Printer.module_to_string gm);
          (match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact gm with
          | Ok () ->
            prerr_endline "; GPU artifact check: OK";
            Ok ()
          | Error e -> Error (`Msg ("GPU artifact check FAILED: " ^ e)))
        | _ ->
          Error
            (`Msg "no GPU IR (use --target gpu-optimised or gpu-initial)"))
    in
    if stats then begin
      if Lazy.is_val compiled then begin
        let ca, outcome = Lazy.force compiled in
        Printf.eprintf
          "pipeline: %d stencils discovered, %d merges, %d kernels\n"
          ca.P.ca_stats.P.st_discovered ca.P.ca_stats.P.st_merged
          ca.P.ca_stats.P.st_kernels;
        (* per-kernel affine footprints: the read/write regions the
           analysis proves for each kernel *)
        List.iter
          (fun (name, fp) ->
            Printf.eprintf "footprint %s:\n" name;
            String.split_on_char '\n' (Fsc_analysis.Footprint.to_string fp)
            |> List.iter (fun l ->
                   if l <> "" then Printf.eprintf "  %s\n" l))
          ca.P.ca_footprints;
        Printf.eprintf "compile: cache %s\n" (cache_status_name outcome)
      end;
      print_cache_stats cache;
      print_stage_alloc ();
      prerr_string (Obs.report ())
    end;
    finish_obs ~trace
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Fortran file and dump IR")
    Term.(
      term_result
        (const run $ file_arg $ emit_arg $ target_arg $ threads_arg
        $ cache_flag $ cache_dir_arg $ cache_mb_arg $ stats_arg $ trace_arg))

(* ---- run ---- *)

(* Distributed-runtime lines under [run --stats]: measured traffic per
   buffer group, run/stage mix, vector utilisation, and the Figure-6
   model's projected throughput for the same rank count. *)
let print_dist_stats dst =
  let module Dk = Fsc_dmp.Dist_kernel in
  let s = Dk.stats dst in
  Printf.eprintf "dist: %d ranks\n" s.Dk.ds_ranks;
  if s.Dk.ds_stales_avoided > 0 then
    Printf.eprintf
      "dist: %d halo stale(s) avoided by footprint analysis (interior \
       writes kept halos fresh)\n"
      s.Dk.ds_stales_avoided;
  if s.Dk.ds_scatters_skipped > 0 then
    Printf.eprintf "dist: %d scatters skipped (kernel overwrites the grid)\n"
      s.Dk.ds_scatters_skipped;
  Printf.eprintf
    "dist: %d distributed runs, %d host fallbacks, %d exchanged / %d \
     fused stages\n"
    s.Dk.ds_dist_runs s.Dk.ds_fallback_runs s.Dk.ds_exchanged_stages
    s.Dk.ds_fused_stages;
  if s.Dk.ds_total_nests > 0 then
    Printf.eprintf "dist: vector engine on %d/%d per-rank nests\n"
      s.Dk.ds_vec_nests s.Dk.ds_total_nests;
  List.iter
    (fun g ->
      let dims =
        String.concat "x" (List.map string_of_int g.Dk.gs_dims)
      in
      Printf.eprintf
        "dist: group %-10s %dx%d grid, %d msgs, %d kB halo traffic\n" dims
        g.Dk.gs_py g.Dk.gs_pz g.Dk.gs_msgs
        (g.Dk.gs_bytes / 1024);
      (* project the same decomposition through the Figure-6 network
         model (interior extents; halo planes are not model cells) *)
      match g.Dk.gs_dims with
      | ([ _; _; _ ] | [ _; _ ]) when s.Dk.ds_dist_runs > 0 ->
        let global =
          match g.Dk.gs_dims with
          | [ d0; d1; d2 ] -> (d0 - 2, d1 - 2, d2 - 2)
          | [ d0; d1 ] -> (d0 - 2, d1 - 2, 1)
          | _ -> assert false
        in
        let m =
          Fsc_perf.Net_model.mcells ~variant:Fsc_perf.Net_model.Auto_dmp
            ~global ~ranks:s.Dk.ds_ranks ()
        in
        Printf.eprintf
          "dist: model projects %.1f MCells/s at %d ranks (ARCHER2, auto \
           DMP)\n"
          m s.Dk.ds_ranks
      | _ -> ())
    s.Dk.ds_groups

(* Grids allocated without a zero-fill, grouped by the kernel whose
   first call overwrites them: "grids without zero-fill: u, unew
   (overwritten by _stencil_kernel_1)". *)
let print_unzeroed = function
  | [] -> ()
  | unzeroed ->
    let kernels = List.sort_uniq compare (List.map snd unzeroed) in
    Printf.eprintf "grids without zero-fill: %s\n"
      (String.concat "; "
         (List.map
            (fun k ->
              Printf.sprintf "%s (overwritten by %s)"
                (String.concat ", "
                   (List.filter_map
                      (fun (g, k') -> if k' = k then Some g else None)
                      unzeroed))
                k)
            kernels))

let run_cmd =
  let run file target threads ranks engine cache_flag cache_dir cache_mb stats
      trace =
    let* target = resolve_target target threads in
    let* target = apply_ranks target ranks in
    let src = read_file file in
    setup_obs ~trace ~stats;
    let cache = make_cache ~default:false cache_flag cache_dir cache_mb in
    let options = P.default_options ~target () in
    (* the engine that runs, and why it is not the one requested; the
       native tier (and its toolchain probe) only when native runs. It
       shares --cache-dir when given, so one directory holds both
       compiled IR entries and built plugin sidecars *)
    let runs, reason = P.resolve_engine engine target in
    let native =
      match runs with
      | P.Engine_native ->
        let ncache =
          Option.map
            (fun dir ->
              Cache.create ~dir
                ~version:Fsc_codegen.Native.format_version ())
            cache_dir
        in
        Some (Fsc_codegen.Native.create ?cache:ncache ())
      | _ -> None
    in
    (* the trace must be flushed and the pool shut down even when the
       program itself fails mid-run *)
    let outcome =
      try
        let ca, cache_outcome = Cc.compile ?cache options src in
        let a = P.link ~engine ?native ca in
        Fun.protect
          ~finally:(fun () -> P.shutdown a)
          (fun () ->
            if stats then begin
              Printf.eprintf
                "pipeline: %d stencils discovered, %d merges, %d kernels\n"
                ca.P.ca_stats.P.st_discovered ca.P.ca_stats.P.st_merged
                ca.P.ca_stats.P.st_kernels;
              Printf.eprintf "compile: cache %s\n"
                (cache_status_name cache_outcome);
              Printf.eprintf "engine: %s%s\n" (P.engine_name runs)
                (match reason with
                | Some r ->
                  Printf.sprintf " (%s requested: %s)" (P.engine_name engine)
                    r
                | None -> "");
              Option.iter
                (fun n ->
                  Printf.eprintf "native toolchain: %s\n"
                    (Fsc_codegen.Native.toolchain_summary n))
                native
            end;
            P.run a;
            if stats then begin
              (* await native builds first so each kernel line reports
                 its final outcome — cold build time or warm cache hit
                 — rather than "build pending" *)
              List.iter
                (fun (_, impl) ->
                  match impl with
                  | P.Native_jit (_, nk) -> Fsc_codegen.Native.await nk
                  | _ -> ())
                a.P.a_kernels;
              List.iter
                (fun (name, impl) ->
                  Printf.eprintf "  %s: %s\n" name (impl_description impl))
                a.P.a_kernels;
              (match a.P.a_ctx.Fsc_rt.Interp.gpu with
              | Some g ->
                let s = Fsc_rt.Gpu_sim.stats g in
                Printf.eprintf
                  "device: %d launches, %.3f ms simulated, %d kB paged, %d \
                   kB h2d, %d kB d2h\n"
                  s.Fsc_rt.Gpu_sim.s_kernels
                  (1000. *. s.Fsc_rt.Gpu_sim.s_clock)
                  (s.Fsc_rt.Gpu_sim.s_bytes_paged / 1024)
                  (s.Fsc_rt.Gpu_sim.s_bytes_h2d / 1024)
                  (s.Fsc_rt.Gpu_sim.s_bytes_d2h / 1024)
              | None -> ());
              print_unzeroed a.P.a_unzeroed;
              Option.iter print_dist_stats a.P.a_dist;
              List.iter
                (fun (name, buf) ->
                  Printf.eprintf "grid %-12s checksum %.6f\n" name
                    (Fsc_rt.Memref_rt.checksum buf))
                a.P.a_ctx.Fsc_rt.Interp.named_buffers;
              Printf.eprintf "host ops interpreted: %d\n"
                a.P.a_ctx.Fsc_rt.Interp.op_count;
              print_cache_stats cache;
              print_stage_alloc ();
              prerr_string (Obs.report ())
            end);
        Ok ()
      with
      | P.Error_diag d | Fsc_dmp.Decomp.Invalid_decomp d ->
        Error (`Msg (Diag.render ~file d))
      | e -> (
        match Check.diag_of_frontend_exn e with
        | Some d -> Error (`Msg (Diag.render ~file d))
        | None -> Error (`Msg ("run failed: " ^ Printexc.to_string e)))
    in
    let flushed = finish_obs ~trace in
    let* () = outcome in
    flushed
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a Fortran program")
    Term.(
      term_result
        (const run $ file_arg $ target_arg $ threads_arg $ ranks_arg
        $ engine_arg $ cache_flag $ cache_dir_arg $ cache_mb_arg $ stats_arg
        $ trace_arg))

(* ---- check ---- *)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the diagnostics and the loop-nest summary as one JSON \
           object on stdout instead of human-readable text on stderr.")

let werror_flag =
  Arg.(
    value & flag
    & info [ "werror" ]
        ~doc:
          "Treat warnings (e.g. loop-carried dependences) as errors: \
           exit nonzero when any are present.")

let footprints_flag =
  Arg.(
    value & flag
    & info [ "footprints" ]
        ~doc:
          "Dump the computed affine read/write footprint of every \
           statement nest (per-field index regions; [?] where a \
           subscript is not affine). With $(b,--json), adds a \
           \"footprints\" array to the output object.")

let check_cmd =
  let run file json werror footprints =
    let src = read_file file in
    let render_accs accs =
      String.concat "; "
        (List.map
           (fun (field, region) ->
             field ^ Fsc_analysis.Footprint.region_to_string region)
           accs)
    in
    let finish diags summary fps =
      (* one finding per (code, location); order findings by location so
         machine consumers see a stable stream *)
      let diags = Diag.dedupe diags in
      if json then begin
        let diags = Diag.sort_by_loc diags in
        let ds =
          String.concat ", " (List.map (Diag.to_json ~file) diags)
        in
        let fp_field =
          if not footprints then ""
          else
            let fp_json fp =
              let accs l =
                String.concat ", "
                  (List.map
                     (fun (field, region) ->
                       Printf.sprintf "{\"field\": \"%s\", \"region\": \
                                       \"%s\"}"
                         (Diag.json_escape field)
                         (Diag.json_escape
                            (Fsc_analysis.Footprint.region_to_string region)))
                     l)
              in
              Printf.sprintf
                "{\"loc\": %s, \"reads\": [%s], \"writes\": [%s]}"
                (match fp.Check.fp_loc with
                | Some l ->
                  Printf.sprintf "{\"line\": %d, \"col\": %d}"
                    l.Diag.l_line l.Diag.l_col
                | None -> "null")
                (accs fp.Check.fp_reads) (accs fp.Check.fp_writes)
            in
            Printf.sprintf ", \"footprints\": [%s]"
              (String.concat ", " (List.map fp_json fps))
        in
        Printf.printf
          "{\"file\": \"%s\", \"diagnostics\": [%s], \"summary\": \
           {\"nests\": %d, \"parallel\": %d, \"carried\": %d, \"unknown\": \
           %d, \"errors\": %d, \"warnings\": %d}%s}\n"
          (Diag.json_escape file) ds
          (summary.Check.ns_parallel + summary.Check.ns_carried
         + summary.Check.ns_unknown)
          summary.Check.ns_parallel summary.Check.ns_carried
          summary.Check.ns_unknown
          (Diag.count Diag.Error diags)
          (Diag.count Diag.Warning diags)
          fp_field
      end
      else begin
        if diags <> [] then prerr_endline (Diag.render_all ~file diags);
        if footprints then
          List.iter
            (fun fp ->
              let loc =
                match fp.Check.fp_loc with
                | Some l -> Printf.sprintf "%d:%d" l.Diag.l_line l.Diag.l_col
                | None -> "?"
              in
              Printf.eprintf "%s:%s: footprint: read %s; write %s\n" file
                loc
                (match fp.Check.fp_reads with
                | [] -> "-"
                | l -> render_accs l)
                (match fp.Check.fp_writes with
                | [] -> "-"
                | l -> render_accs l))
            fps;
        Printf.eprintf "%s: %s; %d error(s), %d warning(s)\n" file
          (Check.summary_to_string summary)
          (Diag.count Diag.Error diags)
          (Diag.count Diag.Warning diags)
      end;
      match Diag.error_count ~werror diags with
      | 0 -> Ok ()
      | n -> Error (`Msg (Printf.sprintf "check: %d blocking issue(s)" n))
    in
    match Check.check_source src with
    | Error d -> finish [ d ] Check.empty_summary []
    | Ok (m, result) ->
      (* The discovery pass explains, per rejected store, why the nest is
         not offloadable. Race-coded rejections duplicate the dependence
         diagnostics already in [result], and plain scalar assignments
         are obviously not stencils, so keep only the informative rest. *)
      let dstats = Fsc_core.Discovery.run ~log_rejects:false m in
      let reject_notes =
        List.filter_map
          (fun (r : Fsc_core.Discovery.reject) ->
            let d = r.Fsc_core.Discovery.rej_diag in
            if
              d.Diag.d_code = "race"
              || r.Fsc_core.Discovery.rej_reason
                 = "scalar assignment (not a stencil candidate)"
            then None
            else Some d)
          (List.rev dstats.Fsc_core.Discovery.rejected)
      in
      finish
        (result.Check.r_diags @ reject_notes)
        result.Check.r_summary result.Check.r_footprints
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the static analyses over a Fortran file without compiling \
          it: loop-carried dependence/race classification of every loop \
          nest, provable out-of-bounds subscripts, affine-footprint \
          lints (dead writes, unread fields, redundant halo exchanges), \
          and the discovery pass's per-nest offload decisions. Exits \
          nonzero on errors (or warnings with $(b,--werror)).")
    Term.(
      term_result
        (const run $ file_arg $ json_flag $ werror_flag $ footprints_flag))

(* ---- batch / serve ---- *)

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains in the pool (default: machine size).")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Submission queue capacity; beyond it, batch submission waits \
           and serve rejects jobs (backpressure).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-job deadline. A job past it resolves to a timeout result \
           instead of hanging its client.")

let handlers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "handlers" ] ~docv:"N"
        ~doc:
          "Connection-handler threads: how many clients the server \
           accepts and reads concurrently (default 4). A stalled or \
           slow-writing client occupies one handler, never the whole \
           server. Handlers are threads of the server's domain; only \
           the $(b,--workers) are domains.")

let quota_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quota" ] ~docv:"N"
        ~doc:
          "Per-client in-flight quota (queued + running jobs). Beyond \
           it, new jobs from that client are rejected with reason \
           quota-exceeded while other clients proceed. Unlimited when \
           absent.")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Disconnect a client whose connection stays silent this long \
           without completing a request line, so half-open connections \
           release their handler.")

let client_weight_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "client-weight" ] ~docv:"CLIENT=W"
        ~doc:
          "Scheduling weight for a named client (repeatable). The fair \
           scheduler drains up to W jobs from a weight-W client per \
           round-robin turn; default weight is 1.")

let client_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Client mode: send the jobs to a running $(b,sfc serve) \
           instance on this Unix socket instead of compiling \
           in-process. Pool and cache flags are ignored; the server's \
           scheduler, quotas and cache apply.")

let client_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "client" ] ~docv:"ID"
        ~doc:
          "With $(b,--socket): client identity stamped onto every job \
           that does not already carry one. The server schedules \
           fairly and enforces quotas per identity.")

(* Stamp the batch-wide client identity into a job line, leaving
   explicit per-job identities (and unparseable lines, which the server
   will answer with its own parse error) alone. *)
let tag_client id line =
  match J.of_string line with
  | J.Obj fields when not (List.mem_assoc "client" fields) ->
    J.to_string (J.Obj (("client", J.Str id) :: fields))
  | _ -> line
  | exception J.Parse_error _ -> line

let read_job_lines path =
  let ic = if path = "-" then stdin else open_in path in
  Fun.protect
    ~finally:(fun () -> if path <> "-" then close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go acc
        | line -> go (line :: acc)
      in
      go [])

let batch_cmd =
  let run jobs_file socket client workers queue_capacity deadline_s
      cache_flag cache_dir cache_mb stats trace =
    let lines = read_job_lines jobs_file in
    match socket with
    | Some socket ->
      (* client mode: the serve instance owns pool, cache and policy *)
      let lines =
        match client with
        | None -> lines
        | Some id -> List.map (tag_client id) lines
      in
      let replies =
        try Ok (Svc.request ~socket lines) with
        | Unix.Unix_error (e, _, _) ->
          Error
            (`Msg
               (Printf.sprintf "cannot reach server on %s: %s" socket
                  (Unix.error_message e)))
        | Sys_error e -> Error (`Msg ("server connection lost: " ^ e))
      in
      let* replies = replies in
      List.iter print_endline replies;
      Ok ()
    | None ->
      if client <> None then
        Error (`Msg "--client only applies with --socket (client mode)")
      else begin
        setup_obs ~trace ~stats;
        let cache = make_cache ~default:true cache_flag cache_dir cache_mb in
        let results =
          Svc.run_batch ?cache ?workers ~queue_capacity ?deadline_s lines
        in
        List.iter print_endline results;
        if stats then begin
          Printf.eprintf "batch: %d jobs\n" (List.length results);
          print_cache_stats cache;
          prerr_string (Obs.report ())
        end;
        finish_obs ~trace
      end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a JSONL job file ({\"src\": ..., \"target\": ..., \"action\": \
          \"compile\"|\"run\"} per line, or \"-\" for stdin) over a worker \
          pool; results come out as JSONL in input order. The artifact \
          cache is on by default ($(b,--no-cache) disables it). With \
          $(b,--socket), acts as a client of a running $(b,sfc serve) \
          instance instead.")
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"JOBS" ~doc:"JSONL job file, or - for stdin")
        $ client_socket_arg $ client_id_arg $ workers_arg $ queue_arg
        $ deadline_arg $ cache_flag $ cache_dir_arg $ cache_mb_arg
        $ stats_arg $ trace_arg))

let serve_cmd =
  let run socket workers queue_capacity deadline_s handlers quota
      idle_timeout client_weights cache_flag cache_dir cache_mb =
    let cache = make_cache ~default:true cache_flag cache_dir cache_mb in
    Printf.eprintf
      "sfc: serving on %s (send {\"action\": \"shutdown\"} to stop, \
       {\"action\": \"metrics\"} to inspect)\n%!"
      socket;
    Svc.serve ?cache ?workers ~queue_capacity ?deadline_s ?handlers
      ?default_quota:quota ?idle_timeout_s:idle_timeout ~client_weights
      ~socket ();
    Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the batch job protocol on a Unix domain socket until a \
          client sends {\"action\": \"shutdown\"}. Connections are \
          handled concurrently; jobs are scheduled fairly across client \
          identities (weighted round-robin), bounded by $(b,--quota) and \
          the $(b,--queue) capacity, and shed once expired. \
          {\"action\": \"metrics\"} returns scheduler, per-client, cache \
          and counter statistics as JSON. The artifact cache is on by \
          default ($(b,--no-cache) disables it; $(b,--cache-mb) bounds \
          it); with it, a repeated run request re-runs an idle linked \
          artifact (up to 32 are kept) instead of decoding and linking \
          again.")
    Term.(
      term_result
        (const run
        $ Arg.(
            required
            & opt (some string) None
            & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path")
        $ workers_arg $ queue_arg $ deadline_arg $ handlers_arg $ quota_arg
        $ idle_timeout_arg $ client_weight_arg $ cache_flag $ cache_dir_arg
        $ cache_mb_arg))

(* ---- passes ---- *)

let passes_cmd =
  let run () =
    print_endline "GPU pass pipeline (paper Listing 4):";
    List.iter
      (fun (p : Fsc_ir.Pass.t) -> Printf.printf "  %s\n" p.Fsc_ir.Pass.name)
      (Fsc_lowering.Gpu_pipeline.passes ())
  in
  Cmd.v
    (Cmd.info "passes" ~doc:"List the mlir-opt GPU pass pipeline")
    Term.(const run $ const ())

let () =
  let doc =
    "stencil Fortran compiler: Flang + Open Earth stencil dialect \
     (reproduction of Brown et al., SC-W 2023)"
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sfc" ~version:"1.0.0" ~doc)
          [ compile_cmd; run_cmd; check_cmd; batch_cmd; serve_cmd;
            passes_cmd ]))
