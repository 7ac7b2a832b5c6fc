(* Byte-exact golden test: the extracted stencil module for the paper's
   Listing 1 must match the checked-in reference text. Guards the whole
   frontend + discovery + merge + extraction chain against accidental
   output drift. Regenerate with:
     dune exec bin/sfc.exe -- compile <listing1.f90> --emit stencil
   after verifying the change is intentional. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let produce () =
  Fsc_dialects.Registry.init ();
  Fsc_core.Extraction.reset_name_counter ();
  let m =
    Fsc_fortran.Flower.compile_source
      (Fsc_driver.Benchmarks.listing1 ~n:8 ())
  in
  ignore (Fsc_core.Discovery.run m);
  ignore (Fsc_core.Merge.run m);
  let ex = Fsc_core.Extraction.run m in
  Fsc_ir.Printer.module_to_string ex.Fsc_core.Extraction.stencil_module

let test_golden_stencil_module () =
  let expected = read_file "golden/listing1_stencil_module.mlir" in
  Alcotest.(check string) "listing1 stencil module" expected (produce ())

let test_golden_round_trips () =
  (* the checked-in text itself must parse and re-print identically *)
  let text = read_file "golden/listing1_stencil_module.mlir" in
  match Fsc_ir.Parser.parse_module_result text with
  | Error e -> Alcotest.failf "golden file does not parse: %s" e
  | Ok m ->
    Alcotest.(check string) "round trip" text
      (Fsc_ir.Printer.module_to_string m)

(* Printer identity over every module the pipeline prints: each
   benchmark program and examples/*.f90 source, under serial,
   openmp(2), dist(2) and both GPU strategies. [to_buffer] appends
   exactly what [module_to_string] returns (so modules printed back to
   back into one buffer, as the compile cache writes its entries, are
   the concatenation of their separate prints), and a printed module
   parses and prints back unchanged. The printer's byte-exact output is
   pinned by the golden file above. *)
let sources () =
  let module B = Fsc_driver.Benchmarks in
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".f90")
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat "../examples" f)))
  in
  [ ("gauss_seidel", B.gauss_seidel ()); ("pw_advection", B.pw_advection ());
    ("laplace", B.laplace ()); ("residual", B.residual ());
    ("smooth", B.smooth ()); ("listing1", B.listing1 ~n:8 ()) ]
  @ examples

let test_printer_identity () =
  let module P = Fsc_driver.Pipeline in
  let module Printer = Fsc_ir.Printer in
  let sources = sources () in
  Alcotest.(check bool) "both examples found" true
    (List.mem_assoc "laplace.f90" sources
    && List.mem_assoc "residual.f90" sources);
  List.iter
    (fun (name, src) ->
      List.iter
        (fun target ->
          let ca = P.compile (P.default_options ~target ()) src in
          let modules =
            [ ("host", ca.P.ca_host); ("stencil", ca.P.ca_stencil) ]
            @ (match target with P.Gpu _ -> [ ("gpu", P.gpu_ir ca) ] | _ -> [])
          in
          let label m =
            Printf.sprintf "%s/%s/%s" name (P.target_name target) m
          in
          let buf = Buffer.create 4096 in
          List.iter
            (fun (m, op) ->
              let text = Printer.module_to_string op in
              let start = Buffer.length buf in
              Printer.to_buffer buf op;
              Alcotest.(check string) (label m ^ ": to_buffer appends it")
                text
                (Buffer.sub buf start (Buffer.length buf - start));
              match Fsc_ir.Parser.parse_module_result text with
              | Error e -> Alcotest.failf "%s does not parse: %s" (label m) e
              | Ok reparsed ->
                Alcotest.(check string) (label m ^ ": print . parse . print")
                  text (Printer.module_to_string reparsed))
            modules)
        [ P.Serial; P.Openmp 2; P.Dist 2; P.Gpu P.Gpu_initial;
          P.Gpu P.Gpu_optimised ])
    sources

let () =
  Alcotest.run "golden"
    [ ("golden",
       [ Alcotest.test_case "stencil module text" `Quick
           test_golden_stencil_module;
         Alcotest.test_case "golden file round-trips" `Quick
           test_golden_round_trips;
         Alcotest.test_case "printer identity, every program and target"
           `Quick test_printer_identity ]) ]
