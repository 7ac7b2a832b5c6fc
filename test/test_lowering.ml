(* Lowering tests: stencil->scf in both modes, tiling, scf->openmp,
   the Listing-4 GPU pipeline, and its failure modes. *)

open Fsc_ir

let () = Fsc_dialects.Registry.init ()

let count name m =
  List.length (Op.collect_ops (fun o -> o.Op.o_name = name) m)

let stencil_module ?(src = Fsc_driver.Benchmarks.gauss_seidel ~nx:6 ~ny:6
                           ~nz:6 ~niter:1 ())
    () =
  Fsc_core.Extraction.reset_name_counter ();
  let m = Fsc_fortran.Flower.compile_source src in
  ignore (Fsc_core.Discovery.run m);
  ignore (Fsc_core.Merge.run m);
  let ex = Fsc_core.Extraction.run m in
  (ex.Fsc_core.Extraction.host_module, ex.Fsc_core.Extraction.stencil_module)

let test_cpu_mode_structure () =
  let _, sm = stencil_module () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu sm;
  Verifier.verify_exn sm;
  Alcotest.(check int) "no stencil ops left" 0
    (List.length
       (Op.collect_ops
          (fun o -> Dialect.dialect_of_op_name o.Op.o_name = "stencil")
          sm));
  (* CPU mode: every parallel op is 1-D (the outermost dim), inner dims
     are serial scf.for *)
  Op.walk
    (fun o ->
      if o.Op.o_name = "scf.parallel" then
        Alcotest.(check int) "1-D parallel" 3 (Op.num_operands o))
    sm;
  Alcotest.(check bool) "has inner scf.for" true (count "scf.for" sm > 0)

let test_gpu_mode_structure () =
  let _, sm = stencil_module () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu sm;
  Verifier.verify_exn sm;
  (* GPU mode: coalesced multi-dim scf.parallel, no scf.for *)
  Alcotest.(check int) "no scf.for" 0 (count "scf.for" sm);
  let found_3d = ref false in
  Op.walk
    (fun o ->
      if o.Op.o_name = "scf.parallel" && Op.num_operands o = 9 then
        found_3d := true)
    sm;
  Alcotest.(check bool) "3-D coalesced parallel" true !found_3d

let test_lowering_semantics () =
  (* direct check: lowered scf form computes the same grid as the
     interpreter running the stencil ops would — via full pipelines in
     test_driver; here a small sanity on Listing 1 *)
  let _, sm = stencil_module ~src:(Fsc_driver.Benchmarks.listing1 ~n:8 ()) () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu sm;
  Verifier.verify_exn sm;
  let ctx = Fsc_rt.Interp.create_context () in
  Fsc_rt.Interp.add_module ctx sm;
  let data = Fsc_rt.Memref_rt.create [ 9; 9 ] in
  let result = Fsc_rt.Memref_rt.create [ 9; 9 ] in
  Fsc_rt.Memref_rt.init data (fun i -> float_of_int i);
  ignore
    (Fsc_rt.Interp.call ctx "_stencil_kernel_0"
       [ Fsc_rt.Interp.R_buf data; Fsc_rt.Interp.R_buf result ]);
  (* check one interior cell by hand: cell (j=2, i=3) *)
  let get j i = Fsc_rt.Memref_rt.get data [| j; i |] in
  let expected =
    0.25 *. (get 2 2 +. get 2 4 +. get 1 3 +. get 3 3)
  in
  Alcotest.(check (float 1e-12)) "cell value" expected
    (Fsc_rt.Memref_rt.get result [| 2; 3 |])

let test_tiling () =
  let _, sm = stencil_module () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu sm;
  Fsc_lowering.Loop_tiling.run ~tile_sizes:[ 8; 8; 1 ] sm;
  Verifier.verify_exn sm;
  (* nested parallel pair: outer tiled, inner intra-tile *)
  let outers =
    Op.collect_ops
      (fun o -> o.Op.o_name = "scf.parallel" && Op.has_attr o "tiled")
      sm
  in
  Alcotest.(check bool) "tiled outer exists" true (outers <> []);
  List.iter
    (fun outer ->
      let inner =
        Op.collect_ops (fun o -> o.Op.o_name = "scf.parallel") outer
        |> List.filter (fun o -> not (o == outer))
      in
      Alcotest.(check int) "one inner parallel" 1 (List.length inner))
    outers

let test_scf_to_openmp () =
  let _, sm = stencil_module () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu sm;
  let n = Fsc_lowering.Scf_to_openmp.run sm in
  Verifier.verify_exn sm;
  Alcotest.(check bool) "converted" true (n > 0);
  Alcotest.(check int) "no top-level scf.parallel left" 0
    (List.length
       (Op.collect_ops
          (fun o ->
            o.Op.o_name = "scf.parallel"
            &&
            match Op.parent_op o with
            | Some p -> p.Op.o_name = "func.func"
            | None -> false)
          sm));
  Alcotest.(check bool) "omp.parallel + wsloop" true
    (count "omp.parallel" sm > 0 && count "omp.wsloop" sm > 0)

(* ---- GPU pipeline (Listing 4) ---- *)

let gpu_lowered ?drop () =
  let _, sm = stencil_module () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu sm;
  ignore (Fsc_lowering.Gpu_pipeline.run ?drop ~tile_sizes:[ 8; 8; 1 ] sm);
  sm

let test_gpu_pipeline_complete () =
  let sm = gpu_lowered () in
  Alcotest.(check bool) "launch_func generated" true
    (count "gpu.launch_func" sm > 0);
  Alcotest.(check bool) "kernels outlined into gpu.module" true
    (count "gpu.module" sm = 1 && count "gpu.func" sm > 0);
  (match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact sm with
  | Ok () -> ()
  | Error e -> Alcotest.failf "artifact check failed: %s" e);
  (* the gpu.module carries embedded binary *)
  let gm = List.hd (Op.collect_ops (fun o -> o.Op.o_name = "gpu.module") sm) in
  Alcotest.(check bool) "cubin embedded" true (Op.has_attr gm "cubin")

let test_silent_cpu_fallback_detected () =
  (* dropping gpu-map-parallel-loops leaves everything on the CPU with no
     error anywhere — exactly the sharp edge the paper describes; only
     the artifact check notices *)
  let sm = gpu_lowered ~drop:[ "gpu-map-parallel-loops" ] () in
  Alcotest.(check int) "no launches" 0 (count "gpu.launch_func" sm);
  Alcotest.(check bool) "artifact check catches it" true
    (Result.is_error (Fsc_lowering.Gpu_pipeline.verify_gpu_artifact sm))

let test_missing_cubin_detected () =
  let sm = gpu_lowered ~drop:[ "gpu-to-cubin" ] () in
  Alcotest.(check bool) "launches exist" true (count "gpu.launch_func" sm > 0);
  match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact sm with
  | Error e ->
    Alcotest.(check bool) "mentions cubin" true
      (let re = Str.regexp_string "cubin" in
       try
         ignore (Str.search_forward re e 0);
         true
       with Not_found -> false)
  | Ok () -> Alcotest.fail "should have failed"

(* run a lowered stencil module's kernel on fresh buffers via the
   interpreter; returns the output buffer *)
let exec_kernel ?gpu sm ~n =
  let ctx = Fsc_rt.Interp.create_context () in
  (match gpu with
  | Some g ->
    ctx.Fsc_rt.Interp.gpu <- Some g;
    ctx.Fsc_rt.Interp.gpu_strategy <- Fsc_rt.Gpu_sim.Strategy_host_register
  | None -> ());
  Fsc_rt.Interp.add_module ctx sm;
  let data = Fsc_rt.Memref_rt.create [ n + 1; n + 1 ] in
  let result = Fsc_rt.Memref_rt.create [ n + 1; n + 1 ] in
  Fsc_rt.Memref_rt.init data (fun i ->
      Float.sin (float_of_int i *. 0.37) *. 3.0);
  ignore
    (Fsc_rt.Interp.call ctx "_stencil_kernel_0"
       [ Fsc_rt.Interp.R_buf data; Fsc_rt.Interp.R_buf result ]);
  result

let test_tiling_preserves_semantics () =
  let n = 12 in
  let src = Fsc_driver.Benchmarks.listing1 ~n () in
  let _, plain = stencil_module ~src () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu
    plain;
  let _, tiled = stencil_module ~src () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu
    tiled;
  Fsc_lowering.Loop_tiling.run ~tile_sizes:[ 5; 3 ] tiled;
  Verifier.verify_exn tiled;
  let r1 = exec_kernel plain ~n and r2 = exec_kernel tiled ~n in
  Alcotest.(check (float 0.)) "tiled == untiled" 0.0
    (Fsc_rt.Memref_rt.max_abs_diff r1 r2);
  (* deliberately awkward tile sizes that do not divide the extents *)
  let _, tiled2 = stencil_module ~src () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu
    tiled2;
  Fsc_lowering.Loop_tiling.run ~tile_sizes:[ 7; 7 ] tiled2;
  let r3 = exec_kernel tiled2 ~n in
  Alcotest.(check (float 0.)) "ragged tiles ok" 0.0
    (Fsc_rt.Memref_rt.max_abs_diff r1 r3)

let test_gpu_pipeline_executes () =
  (* the fully lowered Listing-4 artifact must still compute the right
     grid when its gpu.launch_func is executed against the simulator *)
  let n = 12 in
  let src = Fsc_driver.Benchmarks.listing1 ~n () in
  let _, reference = stencil_module ~src () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu
    reference;
  let r_ref = exec_kernel reference ~n in
  let _, gpu_m = stencil_module ~src () in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Gpu
    gpu_m;
  ignore (Fsc_lowering.Gpu_pipeline.run ~tile_sizes:[ 4; 4 ] gpu_m);
  (match Fsc_lowering.Gpu_pipeline.verify_gpu_artifact gpu_m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "artifact: %s" e);
  let g = Fsc_rt.Gpu_sim.create () in
  let r_gpu = exec_kernel ~gpu:g gpu_m ~n in
  Alcotest.(check (float 0.)) "gpu pipeline == cpu" 0.0
    (Fsc_rt.Memref_rt.max_abs_diff r_ref r_gpu);
  let s = Fsc_rt.Gpu_sim.stats g in
  Alcotest.(check bool) "kernel actually launched on the device" true
    (s.Fsc_rt.Gpu_sim.s_kernels > 0)

let test_oversized_tile_rejected_at_launch () =
  (* tile sizes whose product exceeds the device thread limit fail at
     runtime, as the paper found empirically *)
  let spec = Fsc_rt.Gpu_sim.v100 in
  let g = Fsc_rt.Gpu_sim.create ~spec () in
  Alcotest.(check bool) "launch fails" true
    (match
       Fsc_rt.Gpu_sim.launch g
         ~strategy:Fsc_rt.Gpu_sim.Strategy_device_resident
         ~block_threads:(64 * 64) ~flops:1.0 ~bytes_accessed:1.0
         ~body:(fun () -> ())
         []
     with
    | exception Fsc_rt.Gpu_sim.Launch_failure _ -> true
    | () -> false)

let () =
  Alcotest.run "lowering"
    [ ("stencil-to-scf",
       [ Alcotest.test_case "cpu mode" `Quick test_cpu_mode_structure;
         Alcotest.test_case "gpu mode" `Quick test_gpu_mode_structure;
         Alcotest.test_case "semantics" `Quick test_lowering_semantics;
         Alcotest.test_case "tiling" `Quick test_tiling;
         Alcotest.test_case "scf->openmp" `Quick test_scf_to_openmp ]);
      ("semantics",
       [ Alcotest.test_case "tiling preserves semantics" `Quick
           test_tiling_preserves_semantics;
         Alcotest.test_case "gpu pipeline executes" `Quick
           test_gpu_pipeline_executes ]);
      ("gpu-pipeline",
       [ Alcotest.test_case "complete pipeline" `Quick
           test_gpu_pipeline_complete;
         Alcotest.test_case "silent CPU fallback" `Quick
           test_silent_cpu_fallback_detected;
         Alcotest.test_case "missing cubin" `Quick test_missing_cubin_detected;
         Alcotest.test_case "oversized tile" `Quick
           test_oversized_tile_rejected_at_launch ]) ]
