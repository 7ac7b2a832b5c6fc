(* Automatic distributed-memory parallelisation: the same serial Fortran
   Gauss-Seidel, decomposed over simulated MPI ranks via the DMP dialect
   path (paper Section 4.4 / Figure 6). Shows the IR-level lowering
   (stencil -> dmp.swap -> mpi.isend/irecv/waitall) and a functional SPMD
   execution validated against serial.

   Run with:  dune exec examples/auto_parallel.exe                    *)

open Fsc_ir
module B = Fsc_driver.Benchmarks
module D = Fsc_dmp.Decomp
module DX = Fsc_dmp.Dist_exec
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels

let nx, ny, nz = (12, 14, 16)
let iters = 5
let ranks = 6

let () =
  Fsc_dialects.Registry.init ();
  print_endline
    "Auto-parallelisation to distributed memory: serial Fortran in, SPMD \
     out.\n";

  (* --- IR level: stencil -> DMP -> MPI --- *)
  let src = B.gauss_seidel ~nx ~ny ~nz ~niter:iters () in
  let m = Fsc_fortran.Flower.compile_source src in
  ignore (Fsc_core.Discovery.run m);
  ignore (Fsc_core.Merge.run m);
  let ex = Fsc_core.Extraction.run m in
  let sm = ex.Fsc_core.Extraction.stencil_module in
  let swaps = Fsc_dmp.Stencil_to_dmp.run sm in
  Printf.printf "lower-to-dmp: %d halo swap(s) inserted\n" swaps;
  Op.walk
    (fun o ->
      if o.Op.o_name = "dmp.swap" then
        Printf.printf "  dmp.swap with halo widths %s over dims %s\n"
          (String.concat ","
             (List.map string_of_int (Fsc_dmp.Dmp_dialect.swap_halo o)))
          (match Op.attr_exn o "decomposed_dims" with
          | Attr.Arr_a xs ->
            String.concat "," (List.map Attr.to_string xs)
          | _ -> "?"))
    sm;
  let lowered = Fsc_dmp.Dmp_to_mpi.run sm in
  let count name =
    List.length (Op.collect_ops (fun o -> o.Op.o_name = name) sm)
  in
  Printf.printf
    "dmp-to-mpi:   %d swap(s) lowered -> %d mpi.isend + %d mpi.irecv + %d \
     mpi.waitall\n\n"
    lowered (count "mpi.isend") (count "mpi.irecv") (count "mpi.waitall");

  (* --- decomposition --- *)
  let d = D.create ~global:(nx, ny, nz) ~ranks in
  Printf.printf
    "decomposition: %dx%dx%d grid over %d ranks as a %dx%d process grid\n"
    nx ny nz ranks d.D.py d.D.pz;
  for r = 0 to D.nranks d - 1 do
    let (xl, xh), (yl, yh), (zl, zh) = D.local_range d r in
    Printf.printf "  rank %d owns x %d..%d, y %d..%d, z %d..%d\n" r xl xh yl
      yh zl zh
  done;

  (* --- functional SPMD execution over simulated MPI --- *)
  let init name (i, j, k) =
    match name with
    | "u" ->
      V.gs_init i j k
    | _ -> 0.0
  in
  let pool = Fsc_rt.Domain_pool.create 2 in
  let t = DX.create ~pool d ~fields:[ "u"; "unew" ] ~init in
  let local_grids t rank =
    let st = t.DX.ranks.(rank) in
    let lu = DX.field st "u" and ln = DX.field st "unew" in
    let lx, ly, lz = D.local_extents d rank in
    ( { V.g_buf = lu; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz },
      { V.g_buf = ln; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz } )
  in
  (* one superstep per iteration: post the halos of u; then consume
     them, sweep the whole local interior and copy back *)
  DX.iterate t ~iters ~swap_fields:[ "u" ] ~sweep:(fun t ~rank ->
      let gu, gn = local_grids t rank in
      V.gs3d_sweep ~u:gu ~unew:gn ();
      V.gs3d_copyback ~u:gu ~unew:gn ());
  Fsc_rt.Domain_pool.shutdown pool;
  let msgs, bytes = DX.stats t in
  Printf.printf
    "\nSPMD run: %d iterations, %d halo messages, %d kB moved\n"
    iters msgs (bytes / 1024);

  (* --- validation against serial --- *)
  let u = V.grid3 ~nx ~ny ~nz and unew = V.grid3 ~nx ~ny ~nz in
  V.init_linear u;
  V.gs3d_run ~u ~unew ~iters ();
  let gathered = DX.gather t "u" in
  let max_diff = ref 0.0 in
  for k = 1 to nz do
    for j = 1 to ny do
      for i = 1 to nx do
        max_diff :=
          Float.max !max_diff
            (Float.abs
               (Rt.get u.V.g_buf [| i; j; k |]
               -. Rt.get gathered [| i; j; k |]))
      done
    done
  done;
  Printf.printf "max |distributed - serial| over the interior: %g\n"
    !max_diff;
  assert (!max_diff = 0.0);

  (* --- the Figure 6 shape --- *)
  print_endline
    "\nscaling model (ARCHER2/Slingshot, 1.7e10 cells, MCells/s):";
  List.iter
    (fun ranks ->
      Printf.printf
        "  %5d cores: hand-MPI %8.0f | auto DMP/MPI %8.0f  (hand/auto = \
         %.2fx)\n"
        ranks
        (Fsc_perf.Net_model.mcells ~variant:Fsc_perf.Net_model.Hand_cray
           ~global:(2580, 2580, 2580) ~ranks ())
        (Fsc_perf.Net_model.mcells ~variant:Fsc_perf.Net_model.Auto_dmp
           ~global:(2580, 2580, 2580) ~ranks ())
        (Fsc_perf.Net_model.mcells ~variant:Fsc_perf.Net_model.Hand_cray
           ~global:(2580, 2580, 2580) ~ranks ()
        /. Fsc_perf.Net_model.mcells ~variant:Fsc_perf.Net_model.Auto_dmp
             ~global:(2580, 2580, 2580) ~ranks ()))
    [ 256; 1024; 4096; 8192 ]
