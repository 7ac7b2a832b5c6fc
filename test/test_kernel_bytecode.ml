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

let kinds plan =
  List.concat_map
    (function Kb.N_vector ks -> ks | Kb.N_scalar _ -> [])
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

let test_register_overflow_falls_back () =
  (* right-leaning chains cannot be flattened without reassociating, so
     evaluation depth — and the register need — grows with the chain;
     past the engine's cap the nest must fall back, not miscompile *)
  let rec chain k =
    if k = 0 then Kc.F_load (0, [ Kc.Iv (0, 0) ])
    else
      Kc.F_binary
        ("arith.addf", Kc.F_load (0, [ Kc.Iv (0, 0) ]), chain (k - 1))
  in
  let nest =
    { Kc.n_loops = [ loop ~lb:0 ~ub:16 0 0 ];
      n_stores =
        [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ];
            st_expr = chain 70 } ];
      n_uses_iv = false; n_flops_per_cell = 70; n_loads_per_cell = 71;
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
      ("fallbacks",
       [ Alcotest.test_case "read/write overlap" `Quick
           test_rw_overlap_falls_back;
         Alcotest.test_case "register overflow" `Quick
           test_register_overflow_falls_back;
         Alcotest.test_case "unknown unary" `Quick
           test_unknown_unary_falls_back ]);
      ("execution",
       [ Alcotest.test_case "tile override" `Quick
           test_tile_override_bitwise;
         Alcotest.test_case "pooled" `Quick test_pooled_bitwise ]) ]
