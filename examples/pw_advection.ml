(* PW advection: the fusion story. The Piacsek-Williams scheme is written
   as three separate loop nests over three velocity fields; the merge
   pass fuses the three discovered stencils into a single apply — one
   pass over memory instead of three — which is what makes the stencil
   pipeline overtake hand-written OpenMP at high thread counts in the
   paper's Figure 4.

   Run with:  dune exec examples/pw_advection.exe                     *)

open Fsc_ir
module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Stencil = Fsc_stencil.Stencil

let () =
  Fsc_dialects.Registry.init ();
  let src = B.pw_advection ~nx:16 ~ny:16 ~nz:16 ~niter:4 () in
  print_endline
    "PW advection (Piacsek & Williams 1970, as used by the Met Office \
     MONC model).";
  print_endline
    "Three separate Fortran loop nests compute su, sv, sw from u, v, w \
     (~63 flops/cell).\n";

  (* stage 1: discovery finds nine stencils (six initialisation fills +
     three advection nests) *)
  let m = Fsc_fortran.Flower.compile_source src in
  let stats = Fsc_core.Discovery.run m in
  Printf.printf "discovery: %d stencils found\n" stats.Fsc_core.Discovery.found;

  (* stage 2: merging fuses them *)
  let merged = Fsc_core.Merge.run m in
  let applies = Op.collect_ops Stencil.is_apply m in
  Printf.printf "merging:   %d fusions -> %d stencil regions remain\n"
    merged (List.length applies);
  List.iter
    (fun a ->
      let bounds =
        match Op.results a with
        | r :: _ ->
          String.concat "x"
            (List.map
               (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi)
               (Stencil.type_bounds (Op.value_type r)))
        | [] -> "?"
      in
      Printf.printf
        "  stencil region: %d inputs, %d results, output bounds %s\n"
        (Op.num_operands a) (Op.num_results a) bounds)
    applies;
  print_endline
    "\nThe advection region carries three results: su, sv and sw are now \
     computed\nin a single sweep — the fusion the paper reports for this \
     benchmark.\n";

  (* stage 3: the fused kernel in numbers *)
  let a, st = P.stencil ~target:P.Serial src in
  Printf.printf "extraction: %d kernels\n" st.P.st_kernels;
  List.iter
    (fun (name, impl) ->
      match impl with
      | P.Vectorised (spec, _) | P.Native_jit (spec, _) ->
        List.iter
          (fun nest ->
            Printf.printf
              "  %s: nest of %d loops, %d stores/cell, %d flops/cell, %d \
               loads/cell\n"
              name
              (List.length nest.Fsc_rt.Kernel_compile.n_loops)
              (List.length nest.Fsc_rt.Kernel_compile.n_stores)
              nest.Fsc_rt.Kernel_compile.n_flops_per_cell
              nest.Fsc_rt.Kernel_compile.n_loads_per_cell)
          spec.Fsc_rt.Kernel_compile.k_nests
      | P.Interpreted reason ->
        Printf.printf "  %s: interpreted (%s)\n" name reason)
    a.P.a_kernels;

  (* stage 4: execute and validate against naive execution *)
  P.run a;
  let reference = P.flang_only src in
  P.run reference;
  List.iter
    (fun f ->
      Printf.printf "max |stencil - flang-only| for %s: %g\n" f
        (Fsc_rt.Memref_rt.max_abs_diff (P.buffer_exn a f)
           (P.buffer_exn reference f)))
    [ "su"; "sv"; "sw" ];

  (* stage 5: why fusion matters — the model's bandwidth arithmetic *)
  print_endline "\nwhy fusion wins at scale (ARCHER2 model, 2.1e9 cells):";
  List.iter
    (fun t ->
      let cray =
        Fsc_perf.Cpu_model.mcells ~bench:Fsc_perf.Cpu_model.Pw_advection
          ~pipe:Fsc_perf.Cpu_model.Cray ~threads:t ()
      in
      let st =
        Fsc_perf.Cpu_model.mcells ~bench:Fsc_perf.Cpu_model.Pw_advection
          ~pipe:Fsc_perf.Cpu_model.Stencil_opt ~threads:t ()
      in
      Printf.printf
        "  %3d threads: hand-OpenMP (unfused) %6.0f MCells/s, stencil \
         (fused) %6.0f MCells/s%s\n"
        t cray st
        (if st > cray then "  <- fused wins" else ""))
    [ 1; 16; 32; 64; 128 ]
