(* End-to-end differential tests: every pipeline x target must compute
   bit-identical grids on both benchmarks — the substrate's ground truth
   for the paper's "same unchanged source code on every architecture"
   claim — plus GPU data-strategy accounting checks. *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels

let gs_src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:3 ()
let pw_src = B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()

let reference src names =
  let a = P.flang_only src in
  P.run a;
  List.map (fun n -> (n, P.buffer_exn a n)) names

let gs_ref = lazy (reference gs_src [ "u" ])
let pw_ref = lazy (reference pw_src [ "su"; "sv"; "sw" ])

let check_target ~src ~refs target =
  let a, _ = P.stencil ~target src in
  P.run a;
  List.iter
    (fun (name, ref_buf) ->
      Alcotest.(check (float 0.))
        (name ^ " identical to flang-only")
        0.0
        (Rt.max_abs_diff ref_buf (P.buffer_exn a name)))
    (Lazy.force refs);
  P.shutdown a;
  a

let test_gs_serial () =
  ignore (check_target ~src:gs_src ~refs:gs_ref P.Serial)

let test_gs_openmp () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Openmp 2))

let test_gs_gpu_initial () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Gpu P.Gpu_initial))

let test_gs_gpu_optimised () =
  ignore (check_target ~src:gs_src ~refs:gs_ref (P.Gpu P.Gpu_optimised))

let test_pw_serial () =
  ignore (check_target ~src:pw_src ~refs:pw_ref P.Serial)

let test_pw_openmp () =
  ignore (check_target ~src:pw_src ~refs:pw_ref (P.Openmp 2))

let test_pw_gpu_optimised () =
  ignore (check_target ~src:pw_src ~refs:pw_ref (P.Gpu P.Gpu_optimised))

let test_gs_vendor () =
  let u = V.grid3 ~nx:8 ~ny:8 ~nz:8 and unew = V.grid3 ~nx:8 ~ny:8 ~nz:8 in
  V.init_linear u;
  V.gs3d_run ~u ~unew ~iters:3 ();
  let ref_u = List.assoc "u" (Lazy.force gs_ref) in
  Alcotest.(check (float 0.)) "vendor identical" 0.0
    (Rt.max_abs_diff ref_u u.V.g_buf)

let test_pw_vendor () =
  let g () = V.grid3 ~nx:8 ~ny:8 ~nz:8 in
  let u = g () and v = g () and w = g () in
  let su = g () and sv = g () and sw = g () in
  let init (a, b, c) grid =
    Rt.init grid.V.g_buf (fun _ -> 0.0);
    for k = 0 to 9 do
      for j = 0 to 9 do
        for i = 0 to 9 do
          Rt.set grid.V.g_buf [| i; j; k |]
            ((a *. float_of_int i) +. (b *. float_of_int j)
            +. (c *. float_of_int k))
        done
      done
    done
  in
  init (0.01, 0.02, 0.03) u;
  init (0.03, 0.01, 0.02) v;
  init (0.02, 0.03, 0.01) w;
  for _ = 1 to 2 do
    V.pw_advect ~u ~v ~w ~su ~sv ~sw ~rdx:0.1 ~rdy:0.2 ~rdz:0.3 ()
  done;
  List.iter2
    (fun name grid ->
      Alcotest.(check (float 0.))
        (name ^ " vendor identical")
        0.0
        (Rt.max_abs_diff (List.assoc name (Lazy.force pw_ref)) grid.V.g_buf))
    [ "su"; "sv"; "sw" ] [ su; sv; sw ]

(* ---- pipeline structure ---- *)

let test_stencil_counts () =
  let _, st = P.stencil ~target:P.Serial gs_src in
  Alcotest.(check int) "gs: 4 stencils" 4 st.P.st_discovered;
  Alcotest.(check int) "gs: init merge" 1 st.P.st_merged;
  Alcotest.(check int) "gs: 2 kernels" 2 st.P.st_kernels;
  let _, st = P.stencil ~target:P.Serial pw_src in
  Alcotest.(check int) "pw: 9 stencils" 9 st.P.st_discovered;
  Alcotest.(check int) "pw: 7 merges" 7 st.P.st_merged

let test_all_kernels_compiled () =
  let a, _ = P.stencil ~target:P.Serial gs_src in
  List.iter
    (fun (name, impl) ->
      match impl with
      | P.Compiled _ | P.Vectorised _ | P.Native_jit _ | P.Distributed _ ->
        ()
      | P.Interpreted reason ->
        Alcotest.failf "%s fell back to the interpreter: %s" name reason)
    a.P.a_kernels

let test_ablation_flags () =
  (* disabling merge/specialisation changes the pipeline, never the
     answer *)
  let a_ref = P.flang_only pw_src in
  P.run a_ref;
  let check_flags ~merge ~specialize =
    let a, st = P.stencil ~target:P.Serial ~merge ~specialize pw_src in
    if not merge then
      Alcotest.(check int) "no merges when disabled" 0 st.P.st_merged;
    P.run a;
    List.iter
      (fun name ->
        Alcotest.(check (float 0.)) (name ^ " unchanged") 0.0
          (Rt.max_abs_diff (P.buffer_exn a_ref name) (P.buffer_exn a name)))
      [ "su"; "sv"; "sw" ]
  in
  check_flags ~merge:false ~specialize:true;
  check_flags ~merge:true ~specialize:false;
  check_flags ~merge:false ~specialize:false

(* A failing pass must surface its name and keep the stats recorded up
   to and including the failure — the debuggability contract the
   observability layer depends on. *)
let test_failed_pass_preserves_stats () =
  let module Pass = Fsc_ir.Pass in
  let m = Fsc_ir.Op.create_module () in
  let ran = ref false in
  let ok = Pass.create "warmup" (fun _ -> ran := true) in
  let boom = Pass.create "boom" (fun _ -> failwith "nope") in
  match Pass.run_pipeline ~verify_each:false [ ok; boom ] m with
  | _ -> Alcotest.fail "pipeline should have failed"
  | exception Pass.Pipeline_error (name, Failure msg, stats) ->
    Alcotest.(check bool) "first pass ran" true !ran;
    Alcotest.(check string) "failing pass name surfaced" "boom" name;
    Alcotest.(check string) "original exception preserved" "nope" msg;
    Alcotest.(check (list string))
      "stats preserved, including the failing pass" [ "warmup"; "boom" ]
      (List.map (fun s -> s.Pass.s_pass) stats);
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (s.Pass.s_pass ^ " timed") true (s.Pass.s_seconds >= 0.))
      stats

let test_gpu_ir_artifact () =
  let a, _ = P.stencil ~target:(P.Gpu P.Gpu_optimised) gs_src in
  match a.P.a_gpu_ir with
  | None -> Alcotest.fail "no GPU IR produced"
  | Some gm -> (
    match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact gm with
    | Ok () -> ()
    | Error e -> Alcotest.failf "GPU artifact: %s" e)

(* ---- GPU accounting: the Figure 5 story in stats ---- *)

let gpu_stats target =
  (* enough timesteps to amortise the optimised strategy's one-time
     transfers against the initial strategy's per-launch paging *)
  let src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:20 () in
  let a, _ = P.stencil ~target src in
  P.run a;
  let stats =
    match a.P.a_ctx.Fsc_rt.Interp.gpu with
    | Some g -> Fsc_rt.Gpu_sim.stats g
    | None -> Alcotest.fail "no GPU"
  in
  P.shutdown a;
  stats

let test_gpu_strategy_accounting () =
  let initial = gpu_stats (P.Gpu P.Gpu_initial) in
  let optimised = gpu_stats (P.Gpu P.Gpu_optimised) in
  (* initial: pages everything on every one of the timestep launches *)
  Alcotest.(check bool) "initial pages heavily" true
    (initial.Fsc_rt.Gpu_sim.s_bytes_paged
    > 4 * Rt.bytes (Rt.create [ 10; 10; 10 ]));
  (* optimised: no paging at all, bounded explicit transfers *)
  Alcotest.(check int) "optimised never pages" 0
    optimised.Fsc_rt.Gpu_sim.s_bytes_paged;
  Alcotest.(check bool) "optimised is faster on the simulated clock" true
    (optimised.Fsc_rt.Gpu_sim.s_clock < initial.Fsc_rt.Gpu_sim.s_clock);
  Alcotest.(check bool) "same number of kernel launches" true
    (initial.Fsc_rt.Gpu_sim.s_kernels = optimised.Fsc_rt.Gpu_sim.s_kernels)

(* ---- engine x target matrix ----

   Every CPU engine on every CPU target, dist at 1/2/4/8 ranks, must
   reproduce flang-only execution bit for bit on all five benchmark
   programs. The native engine builds synchronously into a private
   cache so its emitted code (not the vector fallback) is what runs;
   under dist it uses the per-rank vector plans. *)
let test_engine_target_matrix () =
  let native =
    Fsc_codegen.Native.create
      ~cache:
        (Fsc_cache.Cache.create
           ~dir:
             (Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "sfc-driver-matrix-%d" (Unix.getpid ())))
           ~version:Fsc_codegen.Native.format_version ())
      ~mode:Fsc_codegen.Native.Sync ()
  in
  List.iter
    (fun (pname, src, grids) ->
      let refs = reference src grids in
      List.iter
        (fun target ->
          let ca = P.compile (P.default_options ~target ()) src in
          List.iter
            (fun engine ->
              let a = P.link ~engine ~native ca in
              P.run a;
              List.iter
                (fun (g, r) ->
                  Alcotest.(check (float 0.))
                    (Printf.sprintf "%s/%s %s %s" pname g
                       (match target with
                       | P.Dist r -> Printf.sprintf "dist(%d)" r
                       | t -> P.target_kind t)
                       (P.engine_name engine))
                    0.0
                    (Rt.max_abs_diff r (P.buffer_exn a g)))
                refs;
              P.shutdown a)
            P.all_engines)
        [ P.Serial; P.Openmp 2; P.Dist 1; P.Dist 2; P.Dist 4; P.Dist 8 ])
    [ ("gauss-seidel", gs_src, [ "u" ]);
      ("laplace", B.laplace ~n:12 ~niter:2 (), [ "phi" ]);
      ("pw-advection", pw_src, [ "su"; "sv"; "sw" ]);
      ("residual", B.residual ~nx:8 ~ny:8 ~nz:8 ~niter:2 (), [ "u"; "r" ]);
      ("smooth", B.smooth ~nx:8 ~ny:8 ~nz:8 ~niter:2 (), [ "rs"; "d" ]) ]

(* ---- concurrent compiles ----

   Server workers compile on several domains at once, sharing the IR
   and buffer id counters. Each domain compiles and runs distinct
   programs round after round; every printed IR must equal that
   program's serial compile and every grid its serial run. Kernel names
   come from a process-wide counter, so they are renumbered by first
   appearance before comparing. *)
let normalise_kernel_names text =
  let seen = Hashtbl.create 8 in
  Str.global_substitute
    (Str.regexp "_stencil_kernel_[0-9]+")
    (fun t ->
      let name = Str.matched_string t in
      match Hashtbl.find_opt seen name with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "_stencil_kernel#%d" (Hashtbl.length seen) in
        Hashtbl.add seen name n;
        n)
    text

let compile_and_run src =
  let ca = P.compile (P.default_options ()) src in
  let ir =
    normalise_kernel_names
      (Fsc_ir.Printer.module_to_string ca.P.ca_host
      ^ Fsc_ir.Printer.module_to_string ca.P.ca_stencil)
  in
  let a = P.link ca in
  P.run a;
  let grids =
    List.map
      (fun (name, b) -> (name, Rt.clone b))
      a.P.a_ctx.Fsc_rt.Interp.named_buffers
  in
  P.shutdown a;
  (ir, grids)

let test_concurrent_compiles () =
  let programs =
    [| ("gauss-seidel", gs_src); ("pw-advection", pw_src);
       ("laplace", B.laplace ~n:10 ~niter:2 ());
       ("residual", B.residual ~nx:6 ~ny:6 ~nz:6 ~niter:2 ());
       ("smooth", B.smooth ~nx:6 ~ny:6 ~nz:6 ~niter:2 ()) |]
  in
  let serial = Array.map (fun (_, src) -> compile_and_run src) programs in
  let rounds = 25 and n = Array.length programs in
  let worker offset () =
    let mismatches = ref [] in
    for round = 1 to rounds do
      for i = 0 to n - 1 do
        (* the two domains walk the programs in different orders *)
        let p = (i + offset + round) mod n in
        let name, src = programs.(p) in
        let ir, grids = compile_and_run src in
        let ref_ir, ref_grids = serial.(p) in
        if ir <> ref_ir then
          mismatches := Printf.sprintf "%s: printed IR differs" name
                        :: !mismatches;
        List.iter2
          (fun (g, r) (g', b) ->
            if g <> g' || Rt.max_abs_diff r b <> 0.0 then
              mismatches :=
                Printf.sprintf "%s: grid %s differs" name g :: !mismatches)
          ref_grids grids
      done
    done;
    !mismatches
  in
  let others = List.map (fun o -> Domain.spawn (worker o)) [ 1; 3 ] in
  let mine = worker 0 () in
  let all = mine @ List.concat_map Domain.join others in
  Alcotest.(check (list string)) "every concurrent compile matches serial" []
    (List.sort_uniq compare all)

let () =
  Alcotest.run "driver"
    [ ("gauss-seidel",
       [ Alcotest.test_case "serial" `Quick test_gs_serial;
         Alcotest.test_case "openmp" `Quick test_gs_openmp;
         Alcotest.test_case "gpu initial" `Quick test_gs_gpu_initial;
         Alcotest.test_case "gpu optimised" `Quick test_gs_gpu_optimised;
         Alcotest.test_case "vendor" `Quick test_gs_vendor ]);
      ("pw-advection",
       [ Alcotest.test_case "serial" `Quick test_pw_serial;
         Alcotest.test_case "openmp" `Quick test_pw_openmp;
         Alcotest.test_case "gpu optimised" `Quick test_pw_gpu_optimised;
         Alcotest.test_case "vendor" `Quick test_pw_vendor ]);
      ("structure",
       [ Alcotest.test_case "stencil counts" `Quick test_stencil_counts;
         Alcotest.test_case "all kernels compiled" `Quick
           test_all_kernels_compiled;
         Alcotest.test_case "ablation flags" `Quick test_ablation_flags;
         Alcotest.test_case "failed pass preserves stats" `Quick
           test_failed_pass_preserves_stats;
         Alcotest.test_case "gpu IR artifact" `Quick test_gpu_ir_artifact ]);
      ("gpu-accounting",
       [ Alcotest.test_case "strategy accounting" `Quick
           test_gpu_strategy_accounting ]);
      ("matrix",
       [ Alcotest.test_case "every engine x target == flang-only" `Quick
           test_engine_target_matrix ]);
      ("concurrency",
       [ Alcotest.test_case "concurrent compiles match serial" `Quick
           test_concurrent_compiles ]) ]
