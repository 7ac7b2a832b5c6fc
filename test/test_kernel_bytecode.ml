(* Directed tests for the row-vectorised execution engine: statement
   classification (copy / wsum / expr), bitwise agreement with the
   interpreter, and the compile-time fallbacks that keep the fast
   path safe (read/write overlap, register overflow, unknown
   intrinsics). *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module DP = Fsc_rt.Domain_pool

let plans a =
  List.filter_map
    (fun (name, impl) ->
      match impl with
      | P.Vectorised (_, plan) -> Some (name, plan)
      | _ -> None)
    a.P.a_kernels

let shapes plan =
  List.concat_map
    (function Kb.N_vector ss -> ss | Kb.N_scalar _ -> [])
    (Kb.summary plan)

let kinds plan =
  List.concat_map
    (function
      | Kb.N_vector ks -> List.map (fun s -> s.Kb.s_kind) ks
      | Kb.N_scalar _ -> [])
    (Kb.summary plan)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- pipeline level: classification and bitwise agreement ---- *)

let gs_src = B.gauss_seidel ~nx:10 ~ny:10 ~nz:10 ~niter:3 ()

let test_gs_classification () =
  let a, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector gs_src in
  let ps = plans a in
  Alcotest.(check int) "every kernel vectorised"
    (List.length a.P.a_kernels) (List.length ps);
  List.iter
    (fun (name, plan) ->
      Alcotest.(check int) (name ^ ": no fallbacks") 0
        (List.length (Kb.fallbacks plan));
      Alcotest.(check int)
        (name ^ ": vectorised = total")
        (Kb.nest_count plan)
        (Kb.vectorised_nests plan))
    ps;
  let all = List.concat_map (fun (_, p) -> kinds p) ps in
  Alcotest.(check bool) "sweep is a wsum row" true (List.mem "wsum" all);
  Alcotest.(check bool) "copy-back is a copy row" true (List.mem "copy" all)

let bitwise_vs_interp ~grids src =
  let a_i, _ = P.stencil ~target:P.Serial ~engine:P.Engine_interp src in
  let a_v, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector src in
  P.run a_i;
  P.run a_v;
  List.iter
    (fun g ->
      Alcotest.(check (float 0.))
        (g ^ " bitwise identical")
        0.0
        (Rt.max_abs_diff (P.buffer_exn a_i g) (P.buffer_exn a_v g)))
    grids

let test_gs_bitwise () = bitwise_vs_interp ~grids:[ "u"; "unew" ] gs_src

let test_laplace_bitwise () =
  bitwise_vs_interp ~grids:[ "phi"; "phinew" ] (B.laplace ~n:20 ~niter:3 ())

let test_pw_bitwise () =
  bitwise_vs_interp ~grids:[ "su"; "sv"; "sw" ]
    (B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:2 ())

(* induction variables and intrinsics force the generic register path *)
let iv_src =
  {|
program ivprog
  implicit none
  integer, parameter :: n = 12
  integer :: i, j
  real(kind=8), dimension(0:n+1, 0:n+1) :: a, b
  do j = 0, n + 1
    do i = 0, n + 1
      a(i, j) = 0.1d0 * dble(i) + 0.2d0 * dble(j)
      b(i, j) = 0.0d0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i, j) = sqrt(abs(a(i, j))) + dble(i) * 0.5d0
    end do
  end do
end program ivprog
|}

let test_expr_path () =
  let a, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector iv_src in
  let all = List.concat_map (fun (_, p) -> kinds p) (plans a) in
  Alcotest.(check bool) "iv/intrinsic body is an expr row" true
    (List.mem "expr" all);
  bitwise_vs_interp ~grids:[ "b" ] iv_src;
  (* and the engine matches the naive reference, not just each other *)
  let reference = P.flang_only iv_src in
  P.run reference;
  let a, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector iv_src in
  P.run a;
  Alcotest.(check (float 0.)) "matches flang-only" 0.0
    (Rt.max_abs_diff (P.buffer_exn reference "b") (P.buffer_exn a "b"))

(* ---- row programs: operand kinds, hoisting, strides, sums ---- *)

(* A 2-D program over inputs a, b (positive, b >= 0.4) and scalar s,
   with one nest per right-hand side writing o1, o2, ... The stencil
   lowering always puts dimension 0 innermost, so these rows are
   unit-stride; the non-unit-stride rows are hand-built specs below. *)
let grid_program name rhss =
  let outs = List.mapi (fun k _ -> Printf.sprintf "o%d" (k + 1)) rhss in
  let nest o rhs =
    Printf.sprintf
      "  do j = 1, n\n    do i = 1, n\n      %s(i, j) = %s\n    end do\n  end do\n"
      o rhs
  in
  let src =
    Printf.sprintf
      {|
program %s
  implicit none
  integer, parameter :: n = 11
  integer :: i, j
  real(kind=8) :: s
  real(kind=8), dimension(0:n+1, 0:n+1) :: a, b, %s
  s = 0.37d0
  do j = 0, n + 1
    do i = 0, n + 1
      a(i, j) = 0.3d0 + 0.01d0 * dble(i) * dble(j) + 0.07d0 * dble(i)
      b(i, j) = 1.1d0 + 0.02d0 * dble(i) - 0.003d0 * dble(j) * dble(j)
    end do
  end do
%send program %s
|}
      name (String.concat ", " outs)
      (String.concat "" (List.map2 nest outs rhss))
      name
  in
  (src, outs)

(* the statements' shapes over every kernel, and bitwise agreement of
   every output with the interpreter *)
let check_program name rhss =
  let src, outs = grid_program name rhss in
  bitwise_vs_interp ~grids:outs src;
  let a, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector src in
  let ps = plans a in
  List.iter
    (fun (k, plan) ->
      Alcotest.(check int) (name ^ "/" ^ k ^ ": no fallbacks") 0
        (List.length (Kb.fallbacks plan)))
    ps;
  (a, List.concat_map (fun (_, p) -> shapes p) ps)

let reg = "(a(i, j) * b(i-1, j))" (* a product: one row register *)
let load = "b(i+1, j)" (* a buffer row, read inside the op *)
let inv = "(s * dble(j))" (* a row invariant over an outer iv *)

let pairings =
  [ ("reg", reg, "reg", "(a(i-1, j) * a(i, j))"); ("reg", reg, "load", load);
    ("reg", reg, "inv", inv); ("load", load, "reg", reg);
    ("load", load, "load", "a(i, j-1)"); ("load", load, "inv", inv);
    ("inv", inv, "reg", reg); ("inv", inv, "load", load) ]

let test_arith_pairings () =
  List.iter
    (fun (opname, op) ->
      (* each pairing twice: as the root (the op writes the output row)
         and under a product (the op writes a register) *)
      let rhss =
        List.concat_map
          (fun (_, l, _, r) ->
            let e = Printf.sprintf "%s %s %s" l op r in
            [ e; Printf.sprintf "(%s) * a(i, j+1)" e ])
          pairings
      in
      let _, sh = check_program ("arith_" ^ opname) rhss in
      Alcotest.(check bool) (opname ^ ": row programs used") true
        (List.exists (fun s -> s.Kb.s_kind = "expr") sh))
    [ ("add", "+"); ("sub", "-"); ("mul", "*"); ("div", "/") ]

let test_intrinsic_operands () =
  let _, sh =
    check_program "intrinsics"
      [ "max(" ^ load ^ ", " ^ inv ^ ")"; "max(" ^ inv ^ ", " ^ load ^ ")";
        "min(" ^ load ^ ", " ^ inv ^ ")"; "min(" ^ inv ^ ", " ^ load ^ ")";
        "max(" ^ reg ^ ", " ^ load ^ ")"; load ^ " ** (s + 0.5d0)";
        "(s + 1.0d0) ** " ^ load; reg ^ " ** a(i, j)";
        "atan2(" ^ load ^ ", " ^ inv ^ ")"; "atan2(" ^ inv ^ ", " ^ load ^ ")";
        "atan2(" ^ reg ^ ", " ^ load ^ ")"; "sqrt(" ^ load ^ ") + " ^ inv ]
  in
  Alcotest.(check bool) "row programs used" true
    (List.exists (fun s -> s.Kb.s_kind = "expr") sh)

let test_invariant_statements () =
  let a, _ =
    check_program "invariants"
      [ "s * 2.0d0 + dble(j)"; "0.0d0"; "sqrt(s) + 0.5d0"; "0.25d0 * dble(i)";
        "dble(i) * dble(j) - s" ]
  in
  (* the last five statements: the init nest's come first *)
  let exprs =
    List.concat_map (fun (_, p) -> shapes p) (plans a)
    |> List.filter (fun s -> s.Kb.s_kind = "expr")
    |> List.rev |> List.filteri (fun k _ -> k < 5) |> List.rev
  in
  (* o1..o4 are hoisted whole: one store pass (a fill or a fixed-row
     copy) each; o5 mixes the inner iv with an outer one, 2 row ops *)
  Alcotest.(check (list int)) "row ops" [ 1; 1; 1; 1; 2 ]
    (List.map (fun s -> s.Kb.s_row_ops) exprs);
  Alcotest.(check (list int)) "invariants" [ 1; 1; 1; 1; 3 ]
    (List.map (fun s -> s.Kb.s_invariants) exprs)

(* dble(j) * dble(k) depends on two outer loops: it is evaluated once
   per row, as in the Gauss-Seidel and residual init nests *)
let test_outer_iv_invariants () =
  let src =
    {|
program outer_ivs
  implicit none
  integer, parameter :: n = 9
  integer :: i, j, k
  real(kind=8), dimension(0:n+1, 0:n+1, 0:n+1) :: u, v
  do k = 0, n + 1
    do j = 0, n + 1
      do i = 0, n + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
      end do
    end do
  end do
  do k = 1, n
    do j = 1, n
      do i = 1, n
        v(i, j, k) = u(i, j, k) * (dble(j) * dble(k)) - dble(k) / 7.0d0
      end do
    end do
  end do
end program outer_ivs
|}
  in
  bitwise_vs_interp ~grids:[ "u"; "v" ] src;
  let a, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector src in
  let exprs =
    List.concat_map (fun (_, p) -> shapes p) (plans a)
    |> List.filter (fun s -> s.Kb.s_kind = "expr")
  in
  Alcotest.(check (list (pair int int))) "row ops, invariants"
    [ (2, 3); (2, 2) ]
    (List.map (fun s -> (s.Kb.s_row_ops, s.Kb.s_invariants)) exprs)

let sum4 = "(a(i-1, j) + a(i+1, j) + b(i, j-1) + b(i, j+1))"
let sum6 = "(a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1) + b(i, j) + b(i-1, j))"
let sum3 = "(a(i-1, j) - 2.0d0 * b(i, j) + s * a(i+1, j))"

let scaled sum =
  [ sum; sum ^ " * 0.25d0"; "0.25d0 * " ^ sum; sum ^ " / 6.0d0"; sum ^ " * s";
    "s * " ^ sum; sum ^ " / s" ]

let test_wsum_scales () =
  let rhss = scaled sum4 @ scaled sum6 @ scaled sum3 in
  let _, sh = check_program "wsum_scales" rhss in
  (* plain 4- and 6-point sums are fused sum rows; the 3-term sum, with
     its subtraction and coefficients, is a row program *)
  let sums = List.length (scaled sum4 @ scaled sum6) in
  Alcotest.(check (list string)) "sum kinds"
    (List.init sums (fun _ -> "wsum")
     @ List.map (fun _ -> "expr") (scaled sum3))
    (List.map (fun s -> s.Kb.s_kind) sh
     |> List.rev |> List.filteri (fun k _ -> k < List.length rhss)
     |> List.rev)

(* smooth's blend of two scaled loads is a row program: two products
   over hoisted constants and their sum, which writes the output row *)
let test_blend_row_program () =
  let a, sh = check_program "blend" [ "0.25d0 * a(i, j) + 0.75d0 * b(i, j)" ] in
  Alcotest.(check string) "blend kind" "expr"
    (List.nth sh (List.length sh - 1)).Kb.s_kind;
  Alcotest.(check bool) "describe names the row program" true
    (List.exists
       (fun (_, plan) ->
         contains ~sub:"; expr 3 row ops, 2 invariants)" (Kb.describe plan))
       (plans a))

(* x / 3.0d0 stays a division: on these inputs multiplying by the
   rounded reciprocal differs in some cell, so bitwise agreement with
   the interpreter pins it *)
let test_division_not_reciprocal () =
  let src, _ = grid_program "div3" [ "a(i, j) / 3.0d0" ] in
  let r = P.flang_only src in
  P.run r;
  let a = P.buffer_exn r "a" in
  let differs = ref false in
  for k = 0 to Bigarray.Array1.dim a.Rt.data - 1 do
    let x = Bigarray.Array1.get a.Rt.data k in
    if x /. 3.0 <> x *. (1.0 /. 3.0) then differs := true
  done;
  Alcotest.(check bool) "reciprocal would differ" true !differs;
  ignore
    (check_program "div3"
       [ "a(i, j) / 3.0d0"; "(a(i, j) * b(i, j)) / 3.0d0";
         "a(i, j) / 3.0d0 + b(i, j)" ])

(* ---- hand-built specs: the compile-time fallbacks ---- *)

let loop ?(parallel = true) ~lb ~ub level dim =
  { Kc.l_level = level; l_dim = dim; l_lb = lb; l_ub = ub;
    l_parallel = parallel }

let spec1 nest = { Kc.k_nests = [ nest ]; k_num_bufs = 2; k_num_scalars = 0 }

(* run the same spec through both engines on identically-initialised
   buffers and return the plan plus the two max-abs-diffs *)
let run_both spec =
  let mk () =
    let b = Rt.create [ 16 ] in
    Rt.init b (fun i -> 0.5 +. (0.25 *. float_of_int i));
    b
  in
  let c0 = mk () and c1 = mk () in
  let v0 = mk () and v1 = mk () in
  Kc.run spec ~bufs:[| c0; c1 |] ~scalars:[||] ();
  let plan = Kb.compile_spec spec in
  Kb.run plan ~bufs:[| v0; v1 |] ~scalars:[||] ();
  (plan, Rt.max_abs_diff c0 v0, Rt.max_abs_diff c1 v1)

(* Rows at non-unit stride: level 1 (innermost) walks dimension 1 of
   12 x 12 buffers, so consecutive cells of a row are 12 apart. The
   stencil lowering never produces such a nest, so it is built by hand
   and held to the closure engine, the per-cell reference that the
   interpreter comparisons above pin. Buffer 0 = a, 1 = b, 2.. = one
   output per statement; scalar 0 = s. *)
let test_strided_rows () =
  let n = 12 in
  let ld buf c0 c1 = Kc.F_load (buf, [ Kc.Iv (0, c0); Kc.Iv (1, c1) ]) in
  let bin op x y = Kc.F_binary (op, x, y) in
  let s = Kc.F_scalar 0 in
  let reg = bin "arith.mulf" (ld 0 0 0) (ld 1 (-1) 0) in
  let inv = bin "arith.mulf" s (Kc.F_ivf (0, 0)) in
  let plus = List.fold_left (bin "arith.addf") in
  let sum4 = plus (ld 0 (-1) 0) [ ld 0 1 0; ld 1 0 (-1); ld 1 0 1 ] in
  let sum6 = plus (ld 0 (-1) 0) [ ld 0 1 0; ld 0 0 (-1); ld 0 0 1; ld 1 0 0; ld 1 (-1) 0 ] in
  let scales sum =
    [ sum; bin "arith.mulf" sum (Kc.F_const 0.25);
      bin "arith.divf" sum (Kc.F_const 6.0); bin "arith.mulf" s sum;
      bin "arith.divf" sum s ]
  in
  let exprs =
    [ bin "arith.addf" reg (ld 1 1 0); bin "arith.subf" inv (ld 1 1 0);
      bin "arith.mulf" (Kc.F_unary ("math.sqrt", ld 1 0 1)) inv;
      bin "arith.maximumf" (ld 1 0 (-1)) reg;
      bin "arith.divf" inv (ld 0 0 0);
      bin "arith.mulf" (Kc.F_ivf (1, 0)) (Kc.F_const 0.5);
      bin "arith.addf" s (Kc.F_ivf (1, 2)); Kc.F_const 0.0 ]
  in
  let all = exprs @ scales sum4 @ scales sum6 in
  let nest =
    { Kc.n_loops =
        [ loop ~lb:1 ~ub:(n - 1) 0 0; loop ~parallel:false ~lb:1 ~ub:(n - 1) 1 1 ];
      n_stores =
        List.mapi
          (fun k e ->
            { Kc.st_buf = k + 2; st_index = [ Kc.Iv (0, 0); Kc.Iv (1, 0) ];
              st_expr = e })
          all;
      n_uses_iv = true; n_flops_per_cell = 1; n_loads_per_cell = 1;
      n_tile = [] }
  in
  let nbufs = List.length all + 2 in
  let spec = { Kc.k_nests = [ nest ]; k_num_bufs = nbufs; k_num_scalars = 1 } in
  let mk () =
    Array.init nbufs (fun k ->
        let b = Rt.create [ n; n ] in
        Rt.init b (fun i -> 0.4 +. (0.01 *. float_of_int ((i * (k + 3)) mod 97)));
        b)
  in
  let c = mk () and v = mk () in
  let scalars = [| 0.37 |] in
  Kc.run spec ~bufs:c ~scalars ();
  let plan = Kb.compile_spec spec in
  Alcotest.(check int) "vectorised" 1 (Kb.vectorised_nests plan);
  Alcotest.(check (list string)) "shapes"
    (List.map (fun _ -> "expr") all)
    (List.map (fun s -> s.Kb.s_kind) (shapes plan));
  Kb.run plan ~bufs:v ~scalars ();
  Array.iteri
    (fun k cb ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "buffer %d bitwise identical" k)
        0.0 (Rt.max_abs_diff cb v.(k)))
    c

(* Fused rows assume dimension 0 is contiguous, which is how
   Memref_rt lays every buffer out. Buffers with another layout (here
   row-major strides) must make a copy or a 4-point sum nest fall back
   to the closure engine when it binds, and still compute the closure
   engine's result. *)
let test_fused_rows_need_unit_stride () =
  let n = 10 in
  let ld buf c0 c1 = Kc.F_load (buf, [ Kc.Iv (1, c0); Kc.Iv (0, c1) ]) in
  let plus = List.fold_left (fun a b -> Kc.F_binary ("arith.addf", a, b)) in
  let sum4 = plus (ld 0 (-1) 0) [ ld 0 1 0; ld 0 0 (-1); ld 0 0 1 ] in
  let nest =
    { Kc.n_loops =
        [ loop ~lb:1 ~ub:(n - 1) 0 1; loop ~parallel:false ~lb:1 ~ub:(n - 1) 1 0 ];
      n_stores =
        List.mapi
          (fun k e ->
            { Kc.st_buf = k + 1; st_index = [ Kc.Iv (1, 0); Kc.Iv (0, 0) ];
              st_expr = e })
          [ ld 0 0 0; Kc.F_binary ("arith.divf", sum4, Kc.F_const 4.0) ];
      n_uses_iv = true; n_flops_per_cell = 1; n_loads_per_cell = 1;
      n_tile = [] }
  in
  let spec = { Kc.k_nests = [ nest ]; k_num_bufs = 3; k_num_scalars = 0 } in
  let mk () =
    Array.init 3 (fun k ->
        let b = Rt.create [ n; n ] in
        Rt.init b (fun i -> 0.3 +. (0.01 *. float_of_int ((i * (k + 5)) mod 89)));
        { b with Rt.strides = [| n; 1 |] })
  in
  let c = mk () and v = mk () in
  Kc.run spec ~bufs:c ~scalars:[||] ();
  let plan = Kb.compile_spec spec in
  Alcotest.(check (list string)) "fused shapes" [ "copy"; "wsum" ]
    (List.map (fun s -> s.Kb.s_kind) (shapes plan));
  let fallbacks = Fsc_obs.Obs.counter "rt.vector.fallbacks" in
  Fsc_obs.Obs.set_counters_only true;
  let before = Fsc_obs.Obs.counter_value fallbacks in
  Fun.protect
    ~finally:(fun () -> Fsc_obs.Obs.set_counters_only false)
    (fun () -> Kb.run plan ~bufs:v ~scalars:[||] ());
  Alcotest.(check int) "bind-time fallback" 1
    (Fsc_obs.Obs.counter_value fallbacks - before);
  Array.iteri
    (fun k cb ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "buffer %d bitwise identical" k)
        0.0 (Rt.max_abs_diff cb v.(k)))
    c

let test_rw_overlap_falls_back () =
  (* u(i) = u(i-1) + u(i+1) reads the buffer it writes: row batching
     could change the read/write interleaving, so the nest must run on
     the closure engine — and still produce its exact result *)
  let nest =
    { Kc.n_loops = [ loop ~parallel:false ~lb:1 ~ub:15 0 0 ];
      n_stores =
        [ { Kc.st_buf = 0; st_index = [ Kc.Iv (0, 0) ];
            st_expr =
              Kc.F_binary
                ( "arith.addf",
                  Kc.F_load (0, [ Kc.Iv (0, -1) ]),
                  Kc.F_load (0, [ Kc.Iv (0, 1) ]) ) } ];
      n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 2;
      n_tile = [] }
  in
  let plan, d0, d1 = run_both (spec1 nest) in
  (match Kb.fallbacks plan with
  | [ (0, reason) ] ->
    Alcotest.(check bool) "reason names the overlapping buffer" true
      (contains ~sub:"reads buffer 0" reason)
  | fbs -> Alcotest.failf "expected exactly one fallback, got %d"
             (List.length fbs));
  Alcotest.(check (float 0.)) "written buffer identical" 0.0 d0;
  Alcotest.(check (float 0.)) "other buffer identical" 0.0 d1

(* u(i) = u(i) + 0.25 * v(i), residual's edge probe: the nest reads the
   buffer it writes, but only at the cell it writes (offset 0), so each
   cell depends on itself alone and the nest runs as a row program. A
   store to a shifted cell of a buffer the nest reads still falls back. *)
let test_cellwise_update_vectorises () =
  let update store_off =
    { Kc.n_loops = [ loop ~parallel:false ~lb:1 ~ub:14 0 0 ];
      n_stores =
        [ { Kc.st_buf = 0; st_index = [ Kc.Iv (0, store_off) ];
            st_expr =
              Kc.F_binary
                ( "arith.addf",
                  Kc.F_load (0, [ Kc.Iv (0, 0) ]),
                  Kc.F_binary
                    ( "arith.mulf",
                      Kc.F_const 0.25,
                      Kc.F_load (1, [ Kc.Iv (0, 0) ]) ) ) } ];
      n_uses_iv = false; n_flops_per_cell = 2; n_loads_per_cell = 2;
      n_tile = [] }
  in
  let plan, d0, d1 = run_both (spec1 (update 0)) in
  Alcotest.(check int) "no fallback" 0 (List.length (Kb.fallbacks plan));
  Alcotest.(check (list string)) "a row program" [ "expr" ] (kinds plan);
  Alcotest.(check (float 0.)) "written buffer identical" 0.0 d0;
  Alcotest.(check (float 0.)) "read buffer identical" 0.0 d1;
  let plan, d0, d1 = run_both (spec1 (update 1)) in
  (match Kb.fallbacks plan with
  | [ (0, reason) ] ->
    Alcotest.(check bool) "shifted store names the buffer" true
      (contains ~sub:"reads buffer 0" reason)
  | fbs ->
    Alcotest.failf "expected exactly one fallback, got %d"
      (List.length fbs));
  Alcotest.(check (float 0.)) "shifted: written buffer identical" 0.0 d0;
  Alcotest.(check (float 0.)) "shifted: read buffer identical" 0.0 d1

let test_register_overflow_falls_back () =
  (* right-leaning chains cannot be flattened without reassociating, so
     every left operand stays live while the rest of the chain is
     evaluated. Loads are read in place and need no register, so the
     left operands are products, each held in a register of its own;
     past the engine's cap the nest must fall back, not miscompile *)
  let product =
    Kc.F_binary
      ( "arith.mulf",
        Kc.F_load (0, [ Kc.Iv (0, 0) ]),
        Kc.F_load (0, [ Kc.Iv (0, 0) ]) )
  in
  let rec chain k =
    if k = 0 then Kc.F_load (0, [ Kc.Iv (0, 0) ])
    else Kc.F_binary ("arith.addf", product, chain (k - 1))
  in
  let nest =
    { Kc.n_loops = [ loop ~lb:0 ~ub:16 0 0 ];
      n_stores =
        [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ];
            st_expr = chain 70 } ];
      n_uses_iv = false; n_flops_per_cell = 140; n_loads_per_cell = 141;
      n_tile = [] }
  in
  let plan, d0, d1 = run_both (spec1 nest) in
  (match Kb.fallbacks plan with
  | [ (0, reason) ] ->
    Alcotest.(check bool) "reason mentions row registers" true
      (contains ~sub:"row registers" reason)
  | fbs -> Alcotest.failf "expected exactly one fallback, got %d"
             (List.length fbs));
  Alcotest.(check (float 0.)) "written buffer identical" 0.0 d1;
  Alcotest.(check (float 0.)) "read buffer untouched" 0.0 d0

let test_unknown_unary_falls_back () =
  let nest =
    { Kc.n_loops = [ loop ~lb:0 ~ub:16 0 0 ];
      n_stores =
        [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ];
            st_expr =
              Kc.F_unary ("not_a_real_intrinsic",
                          Kc.F_load (0, [ Kc.Iv (0, 0) ])) } ];
      n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 1;
      n_tile = [] }
  in
  let plan = Kb.compile_spec (spec1 nest) in
  Alcotest.(check int) "one fallback" 1 (List.length (Kb.fallbacks plan));
  Alcotest.(check int) "nothing vectorised" 0 (Kb.vectorised_nests plan)

(* ---- tiling and pooled execution never change the answer ---- *)

let sweep_2d ?(n = 32) ~tile ~parallel () =
  (* b(i,j) = a(i-1,j) + a(i+1,j), column-major: level 0 walks dim 1 *)
  { Kc.n_loops =
      [ loop ~parallel ~lb:1 ~ub:(n - 1) 0 1;
        loop ~parallel ~lb:1 ~ub:(n - 1) 1 0 ];
    n_stores =
      [ { Kc.st_buf = 1; st_index = [ Kc.Iv (1, 0); Kc.Iv (0, 0) ];
          st_expr =
            Kc.F_binary
              ( "arith.addf",
                Kc.F_load (0, [ Kc.Iv (1, -1); Kc.Iv (0, 0) ]),
                Kc.F_load (0, [ Kc.Iv (1, 1); Kc.Iv (0, 0) ]) ) } ];
    n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 2;
    n_tile = tile }

let grids_2d n =
  let mk () =
    let b = Rt.create [ n; n ] in
    Rt.init b (fun i -> 0.125 *. float_of_int ((i mod 17) + 1));
    b
  in
  (mk (), mk ())

let test_tile_override_bitwise () =
  let n = 32 in
  let c0, c1 = grids_2d n in
  Kc.run
    (spec1 (sweep_2d ~n ~tile:[] ~parallel:false ()))
    ~bufs:[| c0; c1 |] ~scalars:[||] ();
  List.iter
    (fun tile ->
      let v0, v1 = grids_2d n in
      let plan = Kb.compile_spec (spec1 (sweep_2d ~n ~tile ~parallel:false ())) in
      Alcotest.(check int)
        (Printf.sprintf "tile %s vectorises"
           (String.concat "," (List.map string_of_int tile)))
        1 (Kb.vectorised_nests plan);
      Kb.run plan ~bufs:[| v0; v1 |] ~scalars:[||] ();
      Alcotest.(check (float 0.)) "tiled result identical" 0.0
        (Rt.max_abs_diff c1 v1))
    [ []; [ 1 ]; [ 2 ]; [ 7 ]; [ 1000 ] ]

let test_pooled_bitwise () =
  let n = 40 in
  let c0, c1 = grids_2d n in
  Kc.run
    (spec1 (sweep_2d ~n ~tile:[] ~parallel:false ()))
    ~bufs:[| c0; c1 |] ~scalars:[||] ();
  DP.with_pool 3 (fun pool ->
      let v0, v1 = grids_2d n in
      let plan =
        Kb.compile_spec (spec1 (sweep_2d ~n ~tile:[ 3 ] ~parallel:true ()))
      in
      Kb.run plan ~pool ~bufs:[| v0; v1 |] ~scalars:[||] ();
      Alcotest.(check (float 0.)) "pooled result identical" 0.0
        (Rt.max_abs_diff c1 v1))

(* [Kb.runner] binds once and re-runs the binding while the buffers and
   scalars stay the same. Two nests over 2-D buffers (a, b, c) with one
   scalar: b(i,j) = a(i-1,j) * s + dble(i) * 0.5 + a(i+1,j), an expr row
   with a slot, a fixed row and loads; then c(i,j) = b(i,j) + a(i,j),
   which reads what the first nest wrote. Every call must match [Kb.run]
   on twin buffers: after the inputs change in place (a binding holds
   storage, never contents), after the scalar changes (0.0 to -0.0
   included, so [1/s] style results cannot hide a stale binding) and on
   other buffers. *)
let test_runner_rebinds () =
  let n = 12 in
  let iv1 d = Kc.Iv (1, d) and iv0 = Kc.Iv (0, 0) in
  let loops = [ loop ~lb:1 ~ub:(n - 1) 0 1; loop ~lb:1 ~ub:(n - 1) 1 0 ] in
  let nest stores =
    { Kc.n_loops = loops; n_stores = stores; n_uses_iv = true;
      n_flops_per_cell = 4; n_loads_per_cell = 2; n_tile = [] }
  in
  let first =
    nest
      [ { Kc.st_buf = 1; st_index = [ iv1 0; iv0 ];
          st_expr =
            Kc.F_binary
              ( "arith.addf",
                Kc.F_binary
                  ( "arith.addf",
                    Kc.F_binary
                      ("arith.divf", Kc.F_load (0, [ iv1 (-1); iv0 ]),
                       Kc.F_scalar 0),
                    Kc.F_binary
                      ("arith.mulf", Kc.F_ivf (1, 0), Kc.F_const 0.5) ),
                Kc.F_load (0, [ iv1 1; iv0 ]) ) } ]
  in
  let second =
    nest
      [ { Kc.st_buf = 2; st_index = [ iv1 0; iv0 ];
          st_expr =
            Kc.F_binary
              ( "arith.addf",
                Kc.F_load (1, [ iv1 0; iv0 ]),
                Kc.F_load (0, [ iv1 0; iv0 ]) ) } ]
  in
  let plan =
    Kb.compile_spec
      { Kc.k_nests = [ first; second ]; k_num_bufs = 3; k_num_scalars = 1 }
  in
  Alcotest.(check int) "both nests vectorise" 2 (Kb.vectorised_nests plan);
  let mk k =
    Array.init 3 (fun g ->
        let b = Rt.create [ n; n ] in
        Rt.init b (fun i -> 0.125 *. float_of_int (((i + k + g) mod 17) + 1));
        b)
  in
  let run = Kb.runner plan in
  let check label ~scalars refs bufs =
    Kb.run plan ~bufs:refs ~scalars ();
    run ~bufs ~scalars;
    Array.iteri
      (fun g r ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: buffer %d" label g)
          0.0
          (Rt.max_abs_diff r bufs.(g)))
      refs
  in
  let refs = mk 0 and bufs = mk 0 in
  check "first call" ~scalars:[| 0.37 |] refs bufs;
  check "same binding" ~scalars:[| 0.37 |] refs bufs;
  Rt.init refs.(0) (fun i -> 2.0 -. (0.01 *. float_of_int i));
  Rt.init bufs.(0) (fun i -> 2.0 -. (0.01 *. float_of_int i));
  check "inputs changed in place" ~scalars:[| 0.37 |] refs bufs;
  check "scalar changed" ~scalars:[| 0.0 |] refs bufs;
  check "scalar sign changed" ~scalars:[| -0.0 |] refs bufs;
  check "other buffers" ~scalars:[| -0.0 |] (mk 5) (mk 5)

let () =
  Alcotest.run "kernel_bytecode"
    [ ("classification",
       [ Alcotest.test_case "gauss-seidel wsum+copy" `Quick
           test_gs_classification;
         Alcotest.test_case "expr path (iv + intrinsics)" `Quick
           test_expr_path ]);
      ("bitwise",
       [ Alcotest.test_case "gauss-seidel" `Quick test_gs_bitwise;
         Alcotest.test_case "laplace" `Quick test_laplace_bitwise;
         Alcotest.test_case "pw advection" `Quick test_pw_bitwise ]);
      ("row programs",
       [ Alcotest.test_case "arithmetic x operand pairings" `Quick
           test_arith_pairings;
         Alcotest.test_case "intrinsics with load and invariant operands"
           `Quick test_intrinsic_operands;
         Alcotest.test_case "invariant-only statements" `Quick
           test_invariant_statements;
         Alcotest.test_case "outer-iv invariants" `Quick
           test_outer_iv_invariants;
         Alcotest.test_case "wsum scale kinds" `Quick
           test_wsum_scales;
         Alcotest.test_case "smooth blend is a row program" `Quick
           test_blend_row_program;
         Alcotest.test_case "division is not a reciprocal multiply" `Quick
           test_division_not_reciprocal ]);
      ("fallbacks",
       [ Alcotest.test_case "read/write overlap" `Quick
           test_rw_overlap_falls_back;
         Alcotest.test_case "cell-wise update vectorises" `Quick
           test_cellwise_update_vectorises;
         Alcotest.test_case "register overflow" `Quick
           test_register_overflow_falls_back;
         Alcotest.test_case "unknown unary" `Quick
           test_unknown_unary_falls_back ]);
      ("execution",
       [ Alcotest.test_case "non-unit stride rows" `Quick test_strided_rows;
         Alcotest.test_case "fused rows need unit stride" `Quick
           test_fused_rows_need_unit_stride;
         Alcotest.test_case "tile override" `Quick
           test_tile_override_bitwise;
         Alcotest.test_case "pooled" `Quick test_pooled_bitwise;
         Alcotest.test_case "runner rebinds on new buffers or scalars"
           `Quick test_runner_rebinds ]) ]
