(* Kernel JIT tests: analysis of lowered kernels, compiled-vs-interpreted
   equivalence, and fallback behaviour. *)

open Fsc_ir
module Kc = Fsc_rt.Kernel_compile
module Rt = Fsc_rt.Memref_rt

let () = Fsc_dialects.Registry.init ()

let lowered_kernels ?(openmp = false) src =
  Fsc_core.Extraction.reset_name_counter ();
  let m = Fsc_fortran.Flower.compile_source src in
  ignore (Fsc_core.Discovery.run m);
  ignore (Fsc_core.Merge.run m);
  let ex = Fsc_core.Extraction.run m in
  let sm = ex.Fsc_core.Extraction.stencil_module in
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu sm;
  if openmp then ignore (Fsc_lowering.Scf_to_openmp.run sm);
  Fsc_dialects.Func.all_functions sm

let gs_src = Fsc_driver.Benchmarks.gauss_seidel ~nx:6 ~ny:6 ~nz:6 ~niter:1 ()

let test_gs_analysis () =
  let kernels = lowered_kernels gs_src in
  (* the sweep+copy kernel has two nests *)
  let specs = List.filter_map (fun f ->
      match Kc.try_analyze f with Ok s -> Some s | Error _ -> None)
      kernels
  in
  Alcotest.(check int) "both kernels analyse" 2 (List.length specs);
  let sweep =
    List.find (fun s -> List.length s.Kc.k_nests = 2) specs
  in
  let nest = List.hd sweep.Kc.k_nests in
  Alcotest.(check int) "3 loops" 3 (List.length nest.Kc.n_loops);
  Alcotest.(check bool) "outermost parallel" true
    (List.hd nest.Kc.n_loops).Kc.l_parallel;
  Alcotest.(check int) "6 flops per cell (5 add + 1 div)" 6
    nest.Kc.n_flops_per_cell;
  Alcotest.(check int) "6 loads per cell" 6 nest.Kc.n_loads_per_cell;
  Alcotest.(check int) "2 buffers" 2 sweep.Kc.k_num_bufs

let test_openmp_form_analyses () =
  let kernels = lowered_kernels ~openmp:true gs_src in
  List.iter
    (fun f ->
      match Kc.try_analyze f with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "kernel failed to analyse: %s" e)
    kernels

let test_compiled_equals_interpreted () =
  let kernels = lowered_kernels gs_src in
  let sweep =
    List.find
      (fun f ->
        match Kc.try_analyze f with
        | Ok s -> List.length s.Kc.k_nests = 2
        | Error _ -> false)
      kernels
  in
  let spec =
    match Kc.try_analyze sweep with Ok s -> s | Error e -> Alcotest.fail e
  in
  let mk () =
    let b = Rt.create [ 8; 8; 8 ] in
    Rt.init b (fun i -> Float.sin (float_of_int i));
    b
  in
  (* compiled *)
  let u1 = mk () and n1 = mk () in
  Kc.run spec ~bufs:[| u1; n1 |] ~scalars:[||] ();
  (* interpreted: call the same func through the interpreter *)
  let u2 = mk () and n2 = mk () in
  let ctx = Fsc_rt.Interp.create_context () in
  let m = Op.create_module () in
  Op.append_to (Op.module_block m) (Op.clone sweep);
  Fsc_rt.Interp.add_module ctx m;
  ignore
    (Fsc_rt.Interp.call ctx
       (Fsc_dialects.Func.name sweep)
       [ Fsc_rt.Interp.R_buf u2; Fsc_rt.Interp.R_buf n2 ]);
  Alcotest.(check (float 0.)) "u identical" 0.0 (Rt.max_abs_diff u1 u2);
  Alcotest.(check (float 0.)) "unew identical" 0.0 (Rt.max_abs_diff n1 n2)

let test_scalar_arguments () =
  let src = Fsc_driver.Benchmarks.pw_advection ~nx:6 ~ny:6 ~nz:6 ~niter:1 () in
  let kernels = lowered_kernels src in
  let with_scalars =
    List.filter_map
      (fun f ->
        match Kc.try_analyze f with
        | Ok s when s.Kc.k_num_scalars > 0 -> Some s
        | _ -> None)
      kernels
  in
  (* each of the three fused advection stencils hoists its own
     rdx/rdy/rdz load, so the merged kernel carries 3x3 scalar args
     (they all hold the same values; deduplication would be a later
     CSE-at-host-level improvement) *)
  Alcotest.(check int) "advection kernel has 9 scalars" 9
    (List.hd with_scalars).Kc.k_num_scalars

let test_fallback_reports_reason () =
  (* a function that is not a loop nest must fall back gracefully *)
  let m = Op.create_module () in
  let f =
    Fsc_dialects.Func.func ~name:"odd" ~args:[ Types.Llvm_ptr ] ~results:[]
      (fun b _ ->
        ignore (Fsc_dialects.Arith.constant_float b 1.0);
        Fsc_dialects.Func.return_ b [])
  in
  Op.append_to (Op.module_block m) f;
  match Kc.try_analyze f with
  | Error reason -> Alcotest.(check bool) "reason given" true (reason <> "")
  | Ok _ -> Alcotest.fail "should not analyse"

let test_mismatched_buffers_rejected () =
  let kernels = lowered_kernels gs_src in
  let sweep = List.hd kernels in
  match Kc.try_analyze sweep with
  | Error _ -> ()
  | Ok spec ->
    let a = Rt.create [ 8; 8; 8 ] and b = Rt.create [ 4; 4; 4 ] in
    Alcotest.(check bool) "extent mismatch rejected" true
      (match Kc.run spec ~bufs:[| a; b |] ~scalars:[||] () with
      | exception Kc.Fallback _ -> true
      | () -> false)

(* A 1-D nest over [lb, ub) reading buf0 at offset [off] into buf1. *)
let nest_1d ~lb ~ub ~off =
  { Kc.n_loops =
      [ { Kc.l_level = 0; l_dim = 0; l_lb = lb; l_ub = ub;
          l_parallel = false } ];
    n_stores =
      [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ];
          st_expr =
            Kc.F_unary ("math.sqrt", Kc.F_load (0, [ Kc.Iv (0, off) ])) } ];
    n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 1;
    n_tile = [] }

(* The shared flat-offset bounds proof the closure, vector and native
   engines run before their unchecked access paths, on 8-cell
   buffers. *)
let test_nest_bounds () =
  let nest = nest_1d in
  let bufs = [| Rt.create [ 8 ]; Rt.create [ 8 ] |] in
  let strides = [| 1 |] in
  let verdict n =
    match Kc.check_nest_bounds ~strides ~bufs n with
    | () -> "ok"
    | exception Kc.Out_of_bounds why -> why
  in
  Alcotest.(check string) "in range" "ok" (verdict (nest ~lb:1 ~ub:7 ~off:1));
  Alcotest.(check string) "empty space" "ok"
    (verdict (nest ~lb:5 ~ub:5 ~off:100));
  Alcotest.(check string) "overrun names the load"
    "access to buffer 0 spans [2, 8] outside [0, 8)"
    (verdict (nest ~lb:1 ~ub:8 ~off:1));
  Alcotest.(check string) "underrun names the load"
    "access to buffer 0 spans [-1, 5] outside [0, 8)"
    (verdict (nest ~lb:0 ~ub:7 ~off:(-1)));
  Alcotest.(check string) "missing buffer" "buffer 1 not passed at the call"
    (match
       Kc.check_nest_bounds ~strides ~bufs:[| bufs.(0) |]
         (nest ~lb:1 ~ub:7 ~off:1)
     with
    | () -> "ok"
    | exception Kc.Out_of_bounds why -> why);
  (* the vector engine runs the check on every call: a passing check
     must not allocate *)
  let ok = nest ~lb:1 ~ub:7 ~off:1 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Kc.check_nest_bounds ~strides ~bufs ok
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free (%.0f words over 1000 checks)" words)
    true (words < 100.)

(* The closure JIT runs a nest the proof rejects on checked accesses:
   the overrun raises instead of reading past the buffer, and an
   in-range nest of the same shape still runs. *)
let test_unproven_nest_checked () =
  let bufs () = [| Rt.create [ 8 ]; Rt.create [ 8 ] |] in
  let b = bufs () in
  Rt.init b.(0) (fun i -> float_of_int (i * i));
  Kc.run_nest (nest_1d ~lb:0 ~ub:7 ~off:1) ~bufs:b ~scalars:[||] ();
  Alcotest.(check (float 0.)) "in-range nest ran" 7.0
    (Rt.get b.(1) [| 6 |]);
  Alcotest.(check bool) "overrun raises Invalid_argument" true
    (match
       Kc.run_nest (nest_1d ~lb:0 ~ub:8 ~off:400) ~bufs:(bufs ())
         ~scalars:[||] ()
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let () =
  Alcotest.run "kernel_compile"
    [ ("analysis",
       [ Alcotest.test_case "gauss-seidel" `Quick test_gs_analysis;
         Alcotest.test_case "openmp form" `Quick test_openmp_form_analyses;
         Alcotest.test_case "scalar arguments" `Quick test_scalar_arguments;
         Alcotest.test_case "fallback reason" `Quick
           test_fallback_reports_reason ]);
      ("execution",
       [ Alcotest.test_case "compiled == interpreted" `Quick
           test_compiled_equals_interpreted;
         Alcotest.test_case "mismatched buffers" `Quick
           test_mismatched_buffers_rejected;
         Alcotest.test_case "flat-offset bounds check" `Quick
           test_nest_bounds;
         Alcotest.test_case "unproven nest runs checked" `Quick
           test_unproven_nest_checked ]) ]
