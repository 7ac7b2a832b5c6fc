(* Quickstart: the paper's Listing 1 through the whole pipeline, with the
   IR printed at every stage of Figure 1.

   Run with:  dune exec examples/quickstart.exe                       *)

open Fsc_ir
module P = Fsc_driver.Pipeline

let banner title =
  Printf.printf "\n--- %s %s\n\n" title
    (String.make (max 1 (66 - String.length title)) '-')

let fortran_source =
  {|
program average
  implicit none
  integer, parameter :: n = 16
  integer :: i, j
  real(kind=8), dimension(0:n, 0:n) :: data, result

  ! fill the input grid with something to average
  do i = 0, n
    do j = 0, n
      data(j, i) = dble(i) * 0.5d0 + dble(j) * 0.25d0
    end do
  end do

  ! Listing 1 of the paper: average the four neighbours
  do i = 1, n - 1
    do j = 1, n - 1
      result(j, i) = 0.25 * (data(j, i - 1) + data(j, i + 1) &
                   + data(j - 1, i) + data(j + 1, i))
    end do
  end do

  print *, "result(8, 8) =", result(8, 8)
end program average
|}

let () =
  Fsc_dialects.Registry.init ();
  banner "1. Fortran source";
  print_string fortran_source;

  banner "2. FIR emitted by the frontend (flang -fc1 -emit-mlir)";
  let m = Fsc_fortran.Flower.compile_source fortran_source in
  print_string (Printer.module_to_string m);

  banner "3. after stencil discovery (Listing 3 of the paper)";
  let stats = Fsc_core.Discovery.run m in
  Printf.printf "discovered %d stencils, %d candidate stores rejected\n\n"
    stats.Fsc_core.Discovery.found
    (List.length stats.Fsc_core.Discovery.rejected);
  ignore (Fsc_core.Merge.run m);
  print_string (Printer.module_to_string m);

  banner "4. after extraction: the FIR host module (Flang-compilable)";
  let ex = Fsc_core.Extraction.run m in
  print_string (Printer.module_to_string ex.Fsc_core.Extraction.host_module);
  Verifier.verify_in_context_exn (Dialect.flang_context ())
    ex.Fsc_core.Extraction.host_module;
  print_endline "\n(verified against the Flang dialect registry)";

  banner "5. the extracted stencil module, lowered to scf for CPU";
  Fsc_lowering.Stencil_to_scf.run ~mode:Fsc_lowering.Stencil_to_scf.Cpu
    ex.Fsc_core.Extraction.stencil_module;
  ignore (Fsc_transforms.Canonicalize.run ex.Fsc_core.Extraction.stencil_module);
  print_string
    (Printer.module_to_string ex.Fsc_core.Extraction.stencil_module);
  Verifier.verify_in_context_exn (Dialect.mlir_opt_context ())
    ex.Fsc_core.Extraction.stencil_module;
  print_endline "\n(verified against the mlir-opt dialect registry)";

  banner "6. execution (host interpreted, kernels compiled)";
  let artifact, st = P.stencil ~target:P.Serial fortran_source in
  Printf.printf "pipeline: %d stencils discovered, %d kernels extracted\n"
    st.P.st_discovered st.P.st_kernels;
  List.iter
    (fun (name, impl) ->
      Printf.printf "  %s: %s\n" name
        (match impl with
        | P.Vectorised (spec, _) ->
          Printf.sprintf "vectorised (%d loop nest(s))"
            (List.length spec.Fsc_rt.Kernel_compile.k_nests)
        | P.Native_jit (spec, _) ->
          Printf.sprintf "native JIT (%d loop nest(s))"
            (List.length spec.Fsc_rt.Kernel_compile.k_nests)
        | P.Interpreted reason -> "interpreted (" ^ reason ^ ")"))
    artifact.P.a_kernels;
  print_newline ();
  P.run artifact;

  (* cross-check against the naive Flang-only execution *)
  let reference = P.flang_only fortran_source in
  P.run reference;
  let r1 = P.buffer_exn artifact "result" in
  let r2 = P.buffer_exn reference "result" in
  Printf.printf "\nmax |stencil - flang-only| over the whole grid: %g\n"
    (Fsc_rt.Memref_rt.max_abs_diff r1 r2)
