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
      | P.Vectorised _ | P.Native_jit _ -> ()
      | P.Interpreted reason ->
        Alcotest.failf "%s fell back to the interpreter: %s" name reason)
    a.P.a_kernels

(* The --stats vector line names each nest's row shape. Residual: the
   sweep is one row program of 7 passes (5 adds, the divide by the
   hoisted 6.0, the subtract writing r) and the probe nest falls back;
   init: two row ops over a fixed row of 0.01*i*i and two per-row
   invariants, plus the fill r = 0. *)
let test_vector_stats_line () =
  let a, _ =
    P.stencil ~target:P.Serial ~engine:P.Engine_vector (B.residual ())
  in
  let lines =
    List.filter_map
      (fun (name, impl) ->
        match impl with
        | P.Vectorised (_, plan) ->
          Some (name ^ ": " ^ Fsc_rt.Kernel_bytecode.describe plan)
        | _ -> None)
      a.P.a_kernels
  in
  Alcotest.(check (list string)) "residual kernels"
    [ "_stencil_kernel_0: vectorised (2/2 nests: expr 7 row ops, 1 \
       invariant; expr 2 row ops, 1 invariant)";
      "_stencil_kernel_1: vectorised (1/1 nests: expr+expr 3 row ops, 4 \
       invariants)" ]
    lines

let test_ablation_flags () =
  (* disabling merge changes the pipeline, never the answer *)
  let a_ref = P.flang_only pw_src in
  P.run a_ref;
  let check_flags ~merge =
    let a, st = P.stencil ~target:P.Serial ~merge pw_src in
    if not merge then
      Alcotest.(check int) "no merges when disabled" 0 st.P.st_merged;
    P.run a;
    List.iter
      (fun name ->
        Alcotest.(check (float 0.)) (name ^ " unchanged") 0.0
          (Rt.max_abs_diff (P.buffer_exn a_ref name) (P.buffer_exn a name)))
      [ "su"; "sv"; "sw" ]
  in
  check_flags ~merge:true;
  check_flags ~merge:false

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

(* ---- out-of-bounds kernels ----

   A kernel reading outside its grid must fail with a catchable
   exception on every engine and target, never read or write past the
   buffer. The bounds proof rejects the nest, so vector and native run
   it on the closure JIT's checked accesses. The fixture reads every
   row far out of range; its variant reading u(i, j+2) overruns only on
   the last row, so under openmp(2) a single worker's chunk raises.
   Either way shutdown must still join every worker. *)
let test_out_of_bounds_raises () =
  let far =
    In_channel.with_open_text "fixtures/out_of_bounds.f90"
      In_channel.input_all
  in
  let last_row = Str.global_replace (Str.regexp_string "j+400") "j+2" far in
  let native =
    Fsc_codegen.Native.create
      ~cache:
        (Fsc_cache.Cache.create
           ~dir:
             (Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "sfc-driver-oob-%d" (Unix.getpid ())))
           ~version:Fsc_codegen.Native.format_version ())
      ~mode:Fsc_codegen.Native.Sync ()
  in
  let engines =
    P.Engine_interp :: P.Engine_vector
    :: (match Fsc_codegen.Native.toolchain_error native with
       | None -> [ P.Engine_native ]
       | Some _ -> [])
  in
  List.iter
    (fun (pname, src) ->
      List.iter
        (fun target ->
          let ca = P.compile (P.default_options ~target ()) src in
          List.iter
            (fun engine ->
              let a = P.link ~engine ~native ca in
              let raised =
                match P.run a with exception _ -> true | () -> false
              in
              P.shutdown a;
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s on %s raises" pname
                   (P.engine_name engine) (P.target_name target))
                true raised)
            engines)
        [ P.Serial; P.Openmp 2; P.Dist 2 ])
    [ ("far", far); ("last row", last_row) ]

(* ---- zero-fill elision ----

   Link decides per grid whether its zero-fill can go: only when the
   grid's first use in _QQmain is a compiled kernel that overwrites
   every cell. *)

let unzeroed ?(engine = P.Engine_vector) ?(target = P.Serial) src =
  let a = P.link ~engine (P.compile (P.default_options ~target ()) src) in
  let r = a.P.a_unzeroed in
  P.shutdown a;
  List.sort compare (List.map fst r)

let read_fixture f = In_channel.with_open_text f In_channel.input_all

(* A first write that misses two planes: v's nest covers [1, n+2) in
   both dimensions, so v's i = 0 and j = 0 planes keep the zero-fill
   and show up in the checksum. *)
let partial_src =
  {|
program partial_first
  implicit none
  integer, parameter :: n = 62
  integer :: i, j
  real(kind=8), dimension(0:n+1, 0:n+1) :: u, v

  do j = 0, n + 1
    do i = 0, n + 1
      u(i, j) = 0.5d0 * dble(i) + 0.25d0 * dble(j)
    end do
  end do
  do j = 1, n + 1
    do i = 1, n + 1
      v(i, j) = 2.0d0 * u(i, j)
    end do
  end do
end program partial_first
|}

(* A host store before u's kernel, and w written inside a host loop:
   both keep the fill; only v goes. *)
let mixed_src =
  {|
program mixed
  implicit none
  integer, parameter :: n = 8
  integer :: i, j, it
  real(kind=8), dimension(0:n+1, 0:n+1) :: u, v, w

  u(3, 4) = 7.0d0
  do j = 0, n + 1
    do i = 0, n + 1
      u(i, j) = 0.5d0 * dble(i)
      v(i, j) = 0.25d0 * dble(j)
    end do
  end do
  do it = 1, 2
    do j = 0, n + 1
      do i = 0, n + 1
        w(i, j) = 1.0d0 * dble(it)
      end do
    end do
  end do
end program mixed
|}

let test_unzeroed_decisions () =
  let check label expect got =
    Alcotest.(check (list string)) label expect got
  in
  (* every benchmark program initialises all of its grids in one
     merged whole-box kernel before anything reads them *)
  check "gauss-seidel" [ "u"; "unew" ] (unzeroed gs_src);
  check "laplace" [ "phi"; "phinew" ] (unzeroed (B.laplace ~n:12 ~niter:2 ()));
  check "pw-advection" [ "su"; "sv"; "sw"; "u"; "v"; "w" ] (unzeroed pw_src);
  check "residual" [ "r"; "u" ]
    (unzeroed (B.residual ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()));
  check "smooth" [ "d"; "rs"; "u" ]
    (unzeroed (B.smooth ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()));
  (* the init kernel also reads a (the scale nest) and u (the copy), so
     only the field written without being read goes *)
  check "dead_write fixture" [ "s" ]
    (unzeroed (read_fixture "fixtures/dead_write.f90"));
  check "out_of_bounds fixture" [ "v" ]
    (unzeroed (read_fixture "fixtures/out_of_bounds.f90"));
  (* one kernel runs both nests: it reads u, and v's nest misses the
     i = 0 and j = 0 planes *)
  check "first write misses a plane" [] (unzeroed partial_src);
  check "host store first, kernel in a host loop" [ "v" ]
    (unzeroed mixed_src);
  check "same decision on every CPU target" [ "u"; "unew" ]
    (unzeroed ~target:(P.Dist 2) gs_src);
  (* kernels without a spec keep every fill: the interp engine, and the
     optimised GPU strategy, whose data-placement trampolines touch the
     grids first *)
  check "interp engine" [] (unzeroed ~engine:P.Engine_interp gs_src);
  check "gpu data placement first" []
    (unzeroed ~target:(P.Gpu P.Gpu_optimised) gs_src)

(* The --stats lines naming the elided fills and the skipped scatters,
   end to end through the CLI on the checked-in GS example. *)
let test_unzeroed_stats_lines () =
  let err = Filename.temp_file "sfc-zero-fill-stats" ".err" in
  let code =
    Sys.command
      (Filename.quote_command "../bin/sfc.exe"
         [ "run"; "../examples/laplace.f90"; "--target"; "dist"; "--ranks";
           "2"; "--stats" ]
         ~stdout:Filename.null ~stderr:err)
  in
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin err In_channel.input_all)
  in
  Sys.remove err;
  Alcotest.(check int) "sfc run exits 0" 0 code;
  List.iter
    (fun l ->
      Alcotest.(check bool) l true (List.mem l lines))
    [ "grids without zero-fill: u, unew (overwritten by _stencil_kernel_1)";
      "dist: 2 scatters skipped (kernel overwrites the grid)" ]

(* Poisoned-arena differential. Grid-sized storage is recycled, so an
   elided fill hands a grid whatever a collected buffer held. Before
   each run, fill the arena with NaN buffers of every grid and
   rank-block size the run allocates: any cell an elision wrongly
   leaves unwritten turns a checksum into NaN. The arena only pools
   buffers of 4096 cells and up, so the programs are sized to make
   their grids (and the larger rank blocks) poolable. *)
let block_dims grid_dims ranks =
  let global =
    match grid_dims with
    | [ d0; d1 ] -> (d0 - 2, d1 - 2, 1)
    | [ d0; d1; d2 ] -> (d0 - 2, d1 - 2, d2 - 2)
    | _ -> invalid_arg "block_dims"
  in
  match Fsc_dmp.Decomp.create ~global ~ranks with
  | exception Fsc_dmp.Decomp.Invalid_decomp _ -> []
  | d ->
    List.init (Fsc_dmp.Decomp.nranks d) (fun r ->
        let lx, ly, lz = Fsc_dmp.Decomp.local_extents d r in
        if List.length grid_dims = 2 then [ lx + 2; ly + 2 ]
        else [ lx + 2; ly + 2; lz + 2 ])

(* Empty the arena's class for [dims] (the drained buffers stay alive
   in the result so they cannot come back), then retire [per_class]
   NaN-filled buffers into it. *)
let poison_class ~per_class dims =
  let rec drain acc =
    let h0, _ = Rt.arena_stats () in
    let b = Rt.create_uninit dims in
    let h1, _ = Rt.arena_stats () in
    if h1 > h0 then drain (b :: acc) else b :: acc
  in
  let held = drain [] in
  let _, r0 = Rt.arena_stats () in
  for _ = 1 to per_class do
    Rt.fill (Rt.create_uninit dims) Float.nan
  done;
  Gc.full_major ();
  let _, r1 = Rt.arena_stats () in
  if Rt.size (List.hd held) >= 4096 then
    Alcotest.(check bool)
      (Printf.sprintf "NaN buffers retired into the %s class"
         (String.concat "x" (List.map string_of_int dims)))
      true (r1 > r0);
  held

let bitwise_diffs a b =
  let n = ref 0 in
  for i = 0 to Rt.size a - 1 do
    if Int64.bits_of_float (Rt.get_flat a i)
       <> Int64.bits_of_float (Rt.get_flat b i)
    then incr n
  done;
  !n

let test_poisoned_arena () =
  let native =
    Fsc_codegen.Native.create
      ~cache:
        (Fsc_cache.Cache.create
           ~dir:
             (Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "sfc-zero-fill-poison-%d" (Unix.getpid ())))
           ~version:Fsc_codegen.Native.format_version ())
      ~mode:Fsc_codegen.Native.Sync ()
  in
  List.iter
    (fun (pname, src, grids) ->
      let refs =
        List.map (fun (n, b) -> (n, Rt.clone b)) (reference src grids)
      in
      let grid_dims =
        Array.to_list (snd (List.hd refs)).Rt.dims
      in
      let sizes =
        List.sort_uniq compare
          (grid_dims
          :: List.concat_map (block_dims grid_dims) [ 1; 2; 4; 8 ])
      in
      List.iter
        (fun target ->
          let ca = P.compile (P.default_options ~target ()) src in
          List.iter
            (fun engine ->
              let a = P.link ~engine ~native ca in
              (* retire the previous runs' storage first, so it cannot
                 take the poison's place in the arena *)
              Gc.full_major ();
              let held = List.map (poison_class ~per_class:8) sizes in
              P.run a;
              List.iter
                (fun (g, r) ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s/%s %s %s on a poisoned arena: cells \
                                     differing bitwise"
                       pname g (P.target_name target) (P.engine_name engine))
                    0
                    (bitwise_diffs r (P.buffer_exn a g)))
                refs;
              ignore (Sys.opaque_identity held);
              P.shutdown a)
            P.all_engines)
        [ P.Serial; P.Openmp 2; P.Dist 1; P.Dist 2; P.Dist 4; P.Dist 8 ])
    [ ("gauss-seidel", B.gauss_seidel ~nx:16 ~ny:16 ~nz:16 ~niter:2 (),
       [ "u"; "unew" ]);
      ("laplace", B.laplace ~n:126 ~niter:2 (), [ "phi"; "phinew" ]);
      ("pw-advection", B.pw_advection ~nx:16 ~ny:16 ~nz:16 ~niter:1 (),
       [ "su"; "sv"; "sw" ]);
      ("residual", B.residual ~nx:16 ~ny:16 ~nz:16 ~niter:2 (), [ "u"; "r" ]);
      ("smooth", B.smooth ~nx:16 ~ny:16 ~nz:16 ~niter:2 (), [ "rs"; "d" ]);
      ("partial first write", partial_src, [ "u"; "v" ]) ]

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

(* ---- the shared pool under concurrent callers ----

   Every openmp and dist artifact borrows the one process-wide pool, so
   launches from several domains must take turns. Each case links its
   artifacts up front, runs each on its own domain [reps] times, and
   compares every run's checksums with the serial run's. A watchdog
   turns a hang (a lost launch, a completion barrier mixing two
   launches' arrivals) into a failure that names the case; the stuck
   domains can never be joined, so it ends the process. *)
let pool_src = B.gauss_seidel ~nx:24 ~ny:24 ~nz:24 ~niter:3 ()

let grid_checksums a =
  List.sort compare
    (List.map
       (fun (name, b) -> (name, Rt.checksum b))
       a.P.a_ctx.Fsc_rt.Interp.named_buffers)

let link_target target =
  P.link (P.compile (P.default_options ~target ()) pool_src)

let serial_checksums =
  lazy
    (let a = link_target P.Serial in
     P.run a;
     grid_checksums a)

(* Alcotest sends a test's output to its log file, which nobody reads
   once the watchdog has ended the process: it reports on the stderr
   the suite started with. *)
let suite_stderr = Unix.dup Unix.stderr

let run_concurrently ~case ~seconds jobs =
  let left = Atomic.make (List.length jobs) in
  let domains =
    List.map
      (fun job ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.decr left) job))
      jobs
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get left > 0 do
    if Unix.gettimeofday () > deadline then begin
      let msg =
        Printf.sprintf
          "watchdog: shared-pool case '%s' hung: %d of %d callers still \
           running after %.0f s\n"
          case (Atomic.get left) (List.length jobs) seconds
      in
      ignore (Unix.write_substring suite_stderr msg 0 (String.length msg));
      exit 124
    end;
    Unix.sleepf 0.01
  done;
  List.map Domain.join domains

let test_shared_pool_concurrent () =
  let want = Lazy.force serial_checksums in
  let reps = 200 in
  List.iter
    (fun (case, targets) ->
      let callers =
        List.map
          (fun target ->
            let a = link_target target in
            fun () ->
              let wrong = ref 0 in
              for _ = 1 to reps do
                P.run a;
                if grid_checksums a <> want then incr wrong
              done;
              P.shutdown a;
              (P.target_name target, !wrong))
          targets
      in
      List.iter
        (fun (target, wrong) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s runs with checksums other than serial"
               case target)
            0 wrong)
        (run_concurrently ~case ~seconds:120. callers))
    [ ("two openmp(2) callers", [ P.Openmp 2; P.Openmp 2 ]);
      ("dist(2) beside openmp(2)", [ P.Dist 2; P.Openmp 2 ]) ]

(* A re-run draws every grid and rank block from the arena: the run
   hands the previous run's grids back before [_QQmain] allocates, and
   a dist run its rank blocks. After one warm-up run, ten re-runs of
   each target create no grid-sized storage at all. *)
let test_reruns_miss_no_arena () =
  let module Obs = Fsc_obs.Obs in
  let misses = Obs.counter "rt.arena_misses" in
  Obs.set_counters_only true;
  Fun.protect ~finally:(fun () -> Obs.set_counters_only false) @@ fun () ->
  List.iter
    (fun target ->
      let a = link_target target in
      P.run a;
      let m0 = Obs.counter_value misses in
      for _ = 1 to 10 do
        P.run a
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s: arena misses over 10 re-runs"
           (P.target_name target))
        0
        (Obs.counter_value misses - m0);
      Alcotest.(check bool)
        (P.target_name target ^ ": checksums still serial")
        true
        (grid_checksums a = Lazy.force serial_checksums);
      P.shutdown a)
    [ P.Serial; P.Openmp 2; P.Dist 2 ]

(* Every pipeline stage span records the minor-heap words it
   allocated. *)
let test_stage_minor_words () =
  let module Obs = Fsc_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  ignore (P.compile (P.default_options ()) gs_src);
  let stages = Obs.events_with_cat "pipeline" in
  Alcotest.(check bool) "stage spans recorded" true (stages <> []);
  List.iter
    (fun e ->
      match List.assoc_opt "minor_words" e.Obs.e_args with
      | Some (Obs.A_int w) ->
        Alcotest.(check bool) (e.Obs.e_name ^ ": minor words >= 0") true
          (w >= 0)
      | _ -> Alcotest.failf "stage %s records no minor words" e.Obs.e_name)
    stages;
  let words name =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt "minor_words" e.Obs.e_args with
        | Some (Obs.A_int w) when e.Obs.e_name = name -> acc + w
        | _ -> acc)
      0 stages
  in
  Alcotest.(check bool) "the frontend allocates" true (words "frontend" > 0)

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
         Alcotest.test_case "vector stats line" `Quick
           test_vector_stats_line;
         Alcotest.test_case "ablation flags" `Quick test_ablation_flags;
         Alcotest.test_case "failed pass preserves stats" `Quick
           test_failed_pass_preserves_stats;
         Alcotest.test_case "gpu IR artifact" `Quick test_gpu_ir_artifact ]);
      ("gpu-accounting",
       [ Alcotest.test_case "strategy accounting" `Quick
           test_gpu_strategy_accounting ]);
      ("matrix",
       [ Alcotest.test_case "every engine x target == flang-only" `Quick
           test_engine_target_matrix;
         Alcotest.test_case "out-of-bounds kernel raises" `Quick
           test_out_of_bounds_raises ]);
      ("zero-fill",
       [ Alcotest.test_case "per-grid elision decisions" `Quick
           test_unzeroed_decisions;
         Alcotest.test_case "stats lines name grids and skipped scatters"
           `Quick test_unzeroed_stats_lines;
         Alcotest.test_case "poisoned arena: every engine x target == \
                             flang-only" `Quick test_poisoned_arena ]);
      ("concurrency",
       [ Alcotest.test_case "concurrent compiles match serial" `Quick
           test_concurrent_compiles;
         Alcotest.test_case "shared pool: concurrent callers match serial"
           `Quick test_shared_pool_concurrent ]);
      ("storage",
       [ Alcotest.test_case "re-runs miss no arena storage" `Quick
           test_reruns_miss_no_arena;
         Alcotest.test_case "stage spans record minor words" `Quick
           test_stage_minor_words ]) ]
