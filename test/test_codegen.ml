(* The native codegen tier: the emit whitelist and per-nest skips,
   bitwise parity with the closure/vector engines, build origins, and
   the never-fail fallback chain — missing toolchain, corrupt on-disk
   plugin, emit-unsupported nest. Tests that need ocamlopt skip with a
   visible notice when the toolchain is absent (ci.sh prints its own
   notice for the same condition). *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Kc = Fsc_rt.Kernel_compile
module N = Fsc_codegen.Native
module E = Fsc_codegen.Emit
module Bld = Fsc_codegen.Build
module Rt = Fsc_rt.Memref_rt
module Cache = Fsc_cache.Cache

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfc-codegen-%d-%d" (Unix.getpid ()) !n)

let sync_ctx ?ocamlfind ?(dir = fresh_dir ()) () =
  N.create
    ~cache:(Cache.create ~dir ~version:N.format_version ())
    ~mode:N.Sync ?ocamlfind ()

let toolchain_ready = lazy (N.toolchain_error (sync_ctx ()) = None)

let with_toolchain f =
  if Lazy.force toolchain_ready then f ()
  else print_endline "  [skip] native toolchain unavailable"

let contains s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

(* ---- handcrafted 1-D specs ----

   The frontend only maps sqrt and abs, so [math.erf] — deliberately
   outside the emit whitelist — is reachable only by constructing the
   spec directly. [c] makes each test's generated source (and therefore
   its cache key) unique, keeping the in-process plugin memo from
   short-circuiting the path under test. *)

let loop1d ~lb ~ub =
  { Kc.l_level = 0; l_dim = 0; l_lb = lb; l_ub = ub; l_parallel = false }

let nest1d expr =
  { Kc.n_loops = [ loop1d ~lb:0 ~ub:8 ];
    n_stores = [ { Kc.st_buf = 1; st_index = [ Kc.Iv (0, 0) ]; st_expr = expr } ];
    n_uses_iv = false; n_flops_per_cell = 1; n_loads_per_cell = 1;
    n_tile = [] }

let load buf = Kc.F_load (buf, [ Kc.Iv (0, 0) ])

let sqrt_nest c =
  nest1d
    (Kc.F_unary
       ("math.sqrt", Kc.F_binary ("arith.mulf", load 0, Kc.F_const c)))

let erf_nest = nest1d (Kc.F_unary ("math.erf", load 1))
let spec nests = { Kc.k_nests = nests; k_num_bufs = 2; k_num_scalars = 0 }

let make_bufs () =
  let b0 = Rt.create [ 8 ] and b1 = Rt.create [ 8 ] in
  Rt.init b0 (fun i -> 0.1 *. float_of_int (i + 1));
  Rt.init b1 (fun _ -> 0.0);
  [| b0; b1 |]

(* ---- emit unit tests (no toolchain needed) ---- *)

let test_emit_skips_erf () =
  match E.emit ~strides:[| 1 |] (spec [ sqrt_nest 1.0; erf_nest ]) with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok t ->
    Alcotest.(check (list int))
      "only nest 0 emitted" [ 0 ]
      (List.map fst (E.emitted t));
    (match E.skipped t with
    | [ (1, why) ] ->
      Alcotest.(check bool) "skip reason names the op" true
        (contains why "erf")
    | sk -> Alcotest.failf "expected one skip, got %d" (List.length sk));
    (* the key lives only in the registration trailer; the digested
       body must not contain it or warm lookups could never match *)
    Alcotest.(check bool) "module source registers the key" true
      (contains (E.module_source t ~key:"deadbeef") "deadbeef");
    Alcotest.(check bool) "digested body is key-free" false
      (contains (E.body t) "deadbeef")

let test_emit_rejects_all_unsupported () =
  match E.emit ~strides:[| 1 |] (spec [ erf_nest ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error when no nest is emittable"

(* strides are baked into the emitted body, so they must be part of
   the content identity: different dims => different source *)
let test_emit_bakes_strides () =
  let one = spec [ sqrt_nest 1.0 ] in
  match (E.emit ~strides:[| 1 |] one, E.emit ~strides:[| 2 |] one) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "bodies differ per stride" false
      (E.body a = E.body b)
  | _ -> Alcotest.fail "emit failed"

(* ---- handcrafted 3-D specs for the scheduling transforms ----

   Loop level 0 is the outermost and runs over dimension 2 (column
   major: dimension 0 is contiguous), matching what the extractor
   produces for a Fortran triple nest. Index lists are per dimension:
   position p holds the component for dimension p. *)

let loop3 lvl dim lb ub =
  { Kc.l_level = lvl; l_dim = dim; l_lb = lb; l_ub = ub; l_parallel = false }

let loops3d ?(lb = 1) ?(ub = 5) () =
  [ loop3 0 2 lb ub; loop3 1 1 lb ub; loop3 2 0 lb ub ]

let idx3 ?(di = 0) ?(dj = 0) ?(dk = 0) () =
  [ Kc.Iv (2, di); Kc.Iv (1, dj); Kc.Iv (0, dk) ]

let nest3d ?(loops = loops3d ()) ?(tile = []) stores =
  { Kc.n_loops = loops; n_stores = stores; n_uses_iv = false;
    n_flops_per_cell = 1; n_loads_per_cell = 1; n_tile = tile }

let store3 buf ?(index = idx3 ()) expr =
  { Kc.st_buf = buf; st_index = index; st_expr = expr }

let spec3 ?(nbufs = 2) nests =
  { Kc.k_nests = nests; k_num_bufs = nbufs; k_num_scalars = 0 }

let strides3 = [| 1; 6; 36 |]

(* the Gauss-Seidel shape: sweep reads buf0's outer-dim neighbours into
   buf1, copy-back writes buf0 — aligned fusion is illegal, shifted
   fusion needs exactly d = 1 *)
let sweep_nest =
  nest3d
    [ store3 1
        (Kc.F_binary
           ( "arith.mulf",
             Kc.F_binary
               ( "arith.addf",
                 Kc.F_load (0, idx3 ~dk:(-1) ()),
                 Kc.F_load (0, idx3 ~dk:1 ()) ),
             Kc.F_const 0.5 )) ]

let copy_nest = nest3d [ store3 0 (Kc.F_load (1, idx3 ())) ]

let test_fusion_shifted () =
  match E.emit ~strides:strides3 (spec3 [ sweep_nest; copy_nest ]) with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok t -> (
    Alcotest.(check (list string)) "no refusals" []
      (List.map snd (E.refused t));
    match E.groups t with
    | [ { E.g_kind = E.G_shifted d; g_nests = [ 0; 1 ]; g_alts; _ } ] ->
      Alcotest.(check int) "minimal legal shift" 1 d;
      Alcotest.(check int) "standalone member entries for pool hosts" 2
        (List.length g_alts)
    | gs -> Alcotest.failf "expected one shifted pair, got %d groups"
              (List.length gs))

let test_fusion_aligned () =
  (* smooth shape: producer writes buf1 cell-wise, consumer blends
     buf1 and buf0 through the identity index — every shared cell is
     produced before it is consumed, so cell-wise fusion is legal *)
  let producer =
    nest3d
      [ store3 1
          (Kc.F_binary ("arith.mulf", Kc.F_load (0, idx3 ()), Kc.F_const 0.5))
      ]
  in
  let consumer =
    nest3d
      [ store3 2
          (Kc.F_binary
             ("arith.addf", Kc.F_load (1, idx3 ()), Kc.F_load (0, idx3 ())))
      ]
  in
  match E.emit ~strides:strides3 (spec3 ~nbufs:3 [ producer; consumer ]) with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok t -> (
    match E.groups t with
    | [ { E.g_kind = E.G_aligned; g_nests = [ 0; 1 ]; _ } ] -> ()
    | _ -> Alcotest.fail "expected one aligned group")

let test_fusion_refused () =
  (* both nests touch buf1 pinned to one outer plane: not a bijection
     (aligned) and a same-plane conflict at every outer pair (shifted).
     The emitter must refuse with the reason recorded, and fall back
     to two correct single-nest entries. *)
  let pinned = [ Kc.Iv (2, 0); Kc.Iv (1, 0); Kc.Cst 1 ] in
  let a = nest3d [ store3 1 ~index:pinned (Kc.F_load (0, idx3 ())) ] in
  let b = nest3d [ store3 0 (Kc.F_load (1, pinned)) ] in
  match E.emit ~strides:strides3 (spec3 [ a; b ]) with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok t ->
    Alcotest.(check bool) "both nests still emitted as singles" true
      (List.for_all
         (fun g -> g.E.g_kind = E.G_single)
         (E.groups t)
      && List.length (E.groups t) = 2);
    (match E.refused t with
    | [ (1, why) ] ->
      Alcotest.(check bool) "reason names the pinned plane" true
        (contains why "pinned")
    | r -> Alcotest.failf "expected one refusal, got %d" (List.length r))

let test_fusion_structural_gates () =
  (* mismatched loop bounds never fuse *)
  let other =
    nest3d ~loops:(loops3d ~ub:6 ()) [ store3 0 (Kc.F_load (1, idx3 ())) ]
  in
  match E.emit ~strides:strides3 (spec3 [ sweep_nest; other ]) with
  | Ok t ->
    Alcotest.(check int) "bound mismatch stays single" 2
      (List.length (E.groups t));
    (match E.refused t with
    | [ (1, why) ] ->
      Alcotest.(check bool) "reason names loop structure" true
        (contains why "loop structures differ")
    | _ -> Alcotest.fail "expected one refusal")
  | Error e -> Alcotest.failf "emit failed: %s" e

let test_schedule_emission () =
  (* wide loops: the innermost level is unrolled 4-wide, the copy nest
     becomes an allocation-free bulk row move, and a real n_tile hint
     splits the first sequential level into blocked loops; the copy nest
     carries no hint and stays unblocked. The pair shift-fuses, and its
     standalone member entries carry the intra-nest transforms. *)
  let wide = loops3d ~lb:1 ~ub:12 () in
  let sweep = { sweep_nest with Kc.n_loops = wide; n_tile = [ 4 ] } in
  let copy = { copy_nest with Kc.n_loops = wide } in
  let strides = [| 1; 14; 196 |] in
  match E.emit ~strides (spec3 [ sweep; copy ]) with
  | Error e -> Alcotest.failf "emit failed: %s" e
  | Ok t ->
    Alcotest.(check bool) "innermost loops unrolled" true (E.unrolled t > 0);
    Alcotest.(check bool) "copy rows emitted as row blits" true
      (E.blits t > 0);
    Alcotest.(check (list (pair int int))) "only the hinted nest tiled"
      [ (0, 4) ] (E.tiled t);
    let body = E.body t in
    Alcotest.(check bool) "body carries the unrolled trips" true
      (contains body "4 cells per trip");
    Alcotest.(check bool) "body carries the blocked tiles" true
      (contains body "-row tiles");
    Alcotest.(check bool) "row moves never allocate sub views" false
      (contains body "Array1.sub");
    Alcotest.(check bool) "accesses go through the monomorphic externals"
      true
      (contains body "external get : Sfc_native_shim.buf -> int -> float"
      && contains body "external set : Sfc_native_shim.buf"
      && not (contains body "Bigarray.Array1.unsafe_"))

(* ---- end-to-end parity on a real program ---- *)

let gs_src = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:3 ()

let run_engine ?native engine =
  let a, _ = P.stencil ~target:P.Serial ~engine ?native gs_src in
  P.run a;
  (a, P.buffer_exn a "u")

let test_native_bitwise_gs () =
  with_toolchain @@ fun () ->
  let _, u_vec = run_engine P.Engine_vector in
  let a, u_nat = run_engine ~native:(sync_ctx ()) P.Engine_native in
  Alcotest.(check (float 0.)) "bitwise equal to vector" 0.0
    (Rt.max_abs_diff u_vec u_nat);
  List.iter
    (fun (name, impl) ->
      match impl with
      | P.Native_jit (_, nk) ->
        let r = N.report nk in
        Alcotest.(check string) (name ^ " fully native") "native"
          r.N.rp_engine;
        (match r.N.rp_origin with
        | Some (N.Origin_built | N.Origin_memo) -> ()
        | _ -> Alcotest.failf "%s: expected built/memo origin" name)
      | _ -> Alcotest.failf "%s: not a native kernel" name)
    a.P.a_kernels;
  P.shutdown a

(* ---- fallback chain ---- *)

let test_fallback_missing_toolchain () =
  let ctx = sync_ctx ~ocamlfind:"/nonexistent/sfc-ocamlfind" () in
  (match N.toolchain_error ctx with
  | Some _ -> ()
  | None -> Alcotest.fail "bogus ocamlfind probed Ok");
  let _, u_vec = run_engine P.Engine_vector in
  let a, u_nat = run_engine ~native:ctx P.Engine_native in
  Alcotest.(check (float 0.)) "still bitwise correct" 0.0
    (Rt.max_abs_diff u_vec u_nat);
  (match a.P.a_kernels with
  | (_, P.Native_jit (_, nk)) :: _ ->
    let r = N.report nk in
    Alcotest.(check string) "served by vector" "vector" r.N.rp_engine;
    Alcotest.(check bool) "detail says unavailable" true
      (contains r.N.rp_detail "native unavailable")
  | _ -> Alcotest.fail "expected native-wrapped kernels");
  P.shutdown a

let test_mixed_nest_execution () =
  with_toolchain @@ fun () ->
  (* nest 1 reads nest 0's output, so correct results prove the skipped
     nest still runs in sequence on the vector engine *)
  let sp = spec [ sqrt_nest 2.5; erf_nest ] in
  let ref_bufs = make_bufs () and nat_bufs = make_bufs () in
  Kc.run sp ~bufs:ref_bufs ~scalars:[||] ();
  let k = N.prepare (sync_ctx ()) ~name:"mixed" sp in
  N.run k ~bufs:nat_bufs ~scalars:[||] ();
  Alcotest.(check (float 0.)) "bitwise equal to closure engine" 0.0
    (Rt.max_abs_diff ref_bufs.(1) nat_bufs.(1));
  let r = N.report k in
  Alcotest.(check string) "mixed engine" "mixed" r.N.rp_engine;
  Alcotest.(check int) "one native nest" 1 r.N.rp_native_nests;
  Alcotest.(check int) "two nests total" 2 r.N.rp_total_nests

(* Plant a corrupt .cmxs (with a matching stamp) under the exact key a
   fresh kernel will bind to — mirroring native.ml's key recipe — and
   check the tier drops it, rebuilds over the same key, and still
   answers bitwise. *)
let test_corrupt_plugin_rebuilds () =
  with_toolchain @@ fun () ->
  let sp = spec [ sqrt_nest 3.25 ] in
  let dir = fresh_dir () in
  let cache = Cache.create ~dir ~version:N.format_version () in
  let tc =
    match Bld.probe () with Ok tc -> tc | Error e -> Alcotest.fail e
  in
  let e =
    match E.emit ~strides:[| 1 |] sp with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let key =
    Cache.digest cache
      [ "native"; string_of_int N.format_version; Bld.stamp tc; E.body e ]
  in
  let corrupt = "not a cmxs" in
  ignore (Cache.put_sidecar cache ~key ~ext:"ml" (E.module_source e ~key));
  ignore (Cache.put_sidecar cache ~key ~ext:"cmxs" corrupt);
  ignore (Cache.put_sidecar cache ~key ~ext:"stamp" (Bld.stamp tc));
  let k = N.prepare (N.create ~cache ~mode:N.Sync ()) ~name:"corrupt" sp in
  let ref_bufs = make_bufs () and nat_bufs = make_bufs () in
  Kc.run sp ~bufs:ref_bufs ~scalars:[||] ();
  N.run k ~bufs:nat_bufs ~scalars:[||] ();
  Alcotest.(check (float 0.)) "bitwise despite corrupt plugin" 0.0
    (Rt.max_abs_diff ref_bufs.(1) nat_bufs.(1));
  (match (N.report k).N.rp_origin with
  | Some N.Origin_built -> ()
  | _ -> Alcotest.fail "expected a cold rebuild");
  (* rebuilt over the same key: the planted garbage was replaced (this
     also guards the key recipe above against drifting from native.ml) *)
  match Cache.read_sidecar cache ~key ~ext:"cmxs" with
  | Some c ->
    Alcotest.(check bool) "plugin replaced on disk" false (c = corrupt)
  | None -> Alcotest.fail "plugin missing after rebuild"

(* ---- typed build failures ----

   A cache directory replaced by a regular file after [create] makes
   the build directory impossible to create. The build must end
   [Failed] with the reason in the report: in [Sync] mode [run] does
   not raise, and in [Async] mode [await] returns instead of waiting
   on a build thread that died. *)
let test_unusable_cache_dir_fails_typed () =
  with_toolchain @@ fun () ->
  List.iter
    (fun (mode_name, mode, c) ->
      let dir = fresh_dir () in
      let ctx =
        N.create ~cache:(Cache.create ~dir ~version:N.format_version ()) ~mode
          ()
      in
      Out_channel.with_open_bin dir (fun oc ->
          Out_channel.output_string oc "not a directory");
      let sp = spec [ sqrt_nest c ] in
      let k = N.prepare ctx ~name:("unusable-" ^ mode_name) sp in
      let ref_bufs = make_bufs () and nat_bufs = make_bufs () in
      Kc.run sp ~bufs:ref_bufs ~scalars:[||] ();
      N.run k ~bufs:nat_bufs ~scalars:[||] ();
      N.await k;
      Alcotest.(check (float 0.)) (mode_name ^ " bitwise on vector") 0.0
        (Rt.max_abs_diff ref_bufs.(1) nat_bufs.(1));
      let r = N.report k in
      Alcotest.(check string) (mode_name ^ " served by vector") "vector"
        r.N.rp_engine;
      if not (contains r.N.rp_detail "vector (native build failed: ") then
        Alcotest.failf "%s: unexpected detail %S" mode_name r.N.rp_detail;
      Sys.remove dir)
    [ ("sync", N.Sync, 4.75); ("async", N.Async, 5.75) ]

(* ---- the CLI, end to end ---- *)

(* dune runs the suite in _build/default/test, next to the deps *)
let sfc = "../bin/sfc.exe"
let laplace_f90 = "../examples/laplace.f90"

(* [sfc run laplace.f90 --stats] under [env] (VAR=value overrides);
   returns the exit code and the --stats text. *)
let sfc_run ?(env = []) args =
  let err = Filename.temp_file "sfc-codegen-cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command "env"
         (env @ (sfc :: "run" :: laplace_f90 :: "--stats" :: args))
         ~stdout:Filename.null ~stderr:err)
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, text)

let grid_lines text =
  List.filter
    (fun l -> String.length l > 5 && String.sub l 0 5 = "grid ")
    (String.split_on_char '\n' text)

let vector_grids =
  lazy (grid_lines (snd (sfc_run [ "--exec-engine"; "vector" ])))

(* An unusable TMPDIR must not crash a native run (exit 125): the
   probe captures output through a pipe, the compiler's failure to
   write its temp files becomes a typed build failure, and the run
   completes on the vector engine. *)
let test_cli_missing_tmpdir () =
  with_toolchain @@ fun () ->
  let code, text =
    sfc_run
      ~env:[ "TMPDIR=/nonexistent-dir"; "XDG_CACHE_HOME=" ^ fresh_dir () ]
      [ "--exec-engine"; "native" ]
  in
  if code <> 0 then Alcotest.failf "exit %d:\n%s" code text;
  Alcotest.(check (list string)) "grids bitwise vs vector"
    (Lazy.force vector_grids) (grid_lines text)

(* The link command is part of the stamp, so sidecars stamped by the
   earlier gcc-linked toolchain are swept at startup and rebuilt once;
   the rebuilt set then serves a later process from the cache. The old
   stamps are planted over the exact keys the CLI binds. *)
let test_link_stamp_sweeps_old_sidecars () =
  with_toolchain @@ fun () ->
  let tc = match Bld.probe () with Ok tc -> tc | Error e -> Alcotest.fail e in
  let driver = Filename.basename tc.Bld.tc_driver in
  Alcotest.(check bool) "builds run the compiler, not the findlib driver"
    false
    (List.exists (fun w -> Filename.basename w = driver) tc.Bld.tc_command);
  match tc.Bld.tc_link with
  | None -> print_endline "  [skip] no ld -shared link on this system"
  | Some link ->
    Alcotest.(check bool) "stamp names the link command" true
      (contains (Bld.stamp tc) ("-cc " ^ link));
    let old_stamp =
      Bld.stamp { tc with Bld.tc_flags = [ "-shared"; "-w"; "-a" ] }
    in
    let dir = fresh_dir () in
    let native () =
      let code, text =
        sfc_run [ "--exec-engine"; "native"; "--cache-dir"; dir ]
      in
      if code <> 0 then Alcotest.failf "exit %d:\n%s" code text;
      Alcotest.(check (list string)) "grids bitwise vs vector"
        (Lazy.force vector_grids) (grid_lines text);
      text
    in
    ignore (native ());
    let stamps =
      List.filter
        (fun f -> Filename.check_suffix f ".stamp")
        (Array.to_list (Sys.readdir dir))
    in
    Alcotest.(check bool) "cold run stamped its plugins" true (stamps <> []);
    List.iter
      (fun f ->
        Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
            Out_channel.output_string oc old_stamp))
      stamps;
    let ctx =
      N.create ~cache:(Cache.create ~dir ~version:N.format_version ())
        ~mode:N.Sync ()
    in
    Alcotest.(check bool) "old-link sidecars dropped" true
      (N.stale_dropped ctx >= 1);
    let rebuilt = native () in
    if not (contains rebuilt "cold build") || contains rebuilt "warm cache hit"
    then Alcotest.failf "expected cold rebuilds:\n%s" rebuilt;
    let warm = native () in
    if contains warm "cold build" || not (contains warm "warm cache hit") then
      Alcotest.failf "expected warm cache hits:\n%s" warm

(* ---- reference matrix ----

   The one emitted schedule, serial and pool-hosted, must stay bitwise
   identical to the vector engine on every program shape: shifted
   sweep/copy fusion (Gauss-Seidel, Laplace), aligned fusion with a
   rolling load window (smooth), and a global-edge probe (residual) —
   the transforms reorder loop control only, never float arithmetic. *)
let test_reference_matrix () =
  with_toolchain @@ fun () ->
  List.iter
    (fun (pname, src, grids) ->
      let va, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector src in
      P.run va;
      let refs = List.map (fun g -> (g, Rt.clone (P.buffer_exn va g))) grids in
      P.shutdown va;
      List.iter
        (fun (tname, target) ->
          let a, _ =
            P.stencil ~target ~engine:P.Engine_native ~native:(sync_ctx ())
              src
          in
          P.run a;
          List.iter
            (fun (g, r) ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s/%s %s" pname g tname)
                0.0
                (Rt.max_abs_diff r (P.buffer_exn a g)))
            refs;
          P.shutdown a)
        [ ("serial", P.Serial); ("pool", P.Openmp 2) ])
    [ ("gauss-seidel", gs_src, [ "u" ]);
      ("laplace", B.laplace ~n:12 ~niter:3 (), [ "phi" ]);
      ("residual", B.residual ~nx:8 ~ny:8 ~nz:8 ~niter:2 (), [ "u"; "r" ]);
      ("smooth", B.smooth ~nx:8 ~ny:8 ~nz:8 ~niter:2 (), [ "rs"; "d" ]) ]

(* The emitter's unfused and unblocked paths, executed: a pair whose
   fusion is refused (a pinned outer plane) and nests without a tile
   hint must still run bitwise-equal to the closure engine. *)
let test_refused_untiled_runs () =
  with_toolchain @@ fun () ->
  let pinned = [ Kc.Iv (2, 0); Kc.Iv (1, 0); Kc.Cst 1 ] in
  let a =
    nest3d
      [ store3 1 ~index:pinned
          (Kc.F_binary ("arith.mulf", Kc.F_load (0, idx3 ()), Kc.F_const 1.5))
      ]
  in
  let b = nest3d [ store3 0 (Kc.F_load (1, pinned)) ] in
  let sp = spec3 [ a; b ] in
  let bufs () =
    let b0 = Rt.create [ 6; 6; 6 ] and b1 = Rt.create [ 6; 6; 6 ] in
    Rt.init b0 (fun i -> 0.01 *. float_of_int (i + 1));
    [| b0; b1 |]
  in
  let ref_bufs = bufs () and nat_bufs = bufs () in
  Kc.run sp ~bufs:ref_bufs ~scalars:[||] ();
  let k = N.prepare (sync_ctx ()) ~name:"refused" sp in
  N.run k ~bufs:nat_bufs ~scalars:[||] ();
  Array.iteri
    (fun i r ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "buffer %d bitwise vs closure" i)
        0.0
        (Rt.max_abs_diff r nat_bufs.(i)))
    ref_bufs;
  let r = N.report k in
  Alcotest.(check string) "fully native" "native" r.N.rp_engine;
  Alcotest.(check int) "no nest fused" 0 r.N.rp_fused_nests;
  Alcotest.(check (option int)) "no tile rows" None r.N.rp_tile_rows

(* ---- storage arena ----

   Retired large buffers must be recycled (same-size create reuses the
   storage) and reused storage must come back zero-filled, exactly like
   a fresh create. *)
let test_arena_recycles () =
  let dims = [ 64; 64; 2 ] in
  (* 8192 elems, above the arena threshold *)
  let hits0, retires0 = Rt.arena_stats () in
  (let b = Rt.create dims in
   Rt.set b [| 3; 3; 1 |] 42.0);
  Gc.full_major ();
  (* finaliser retired the storage *)
  let _, retires1 = Rt.arena_stats () in
  Alcotest.(check bool) "retired on collection" true (retires1 > retires0);
  let b2 = Rt.create dims in
  let hits1, _ = Rt.arena_stats () in
  Alcotest.(check bool) "same-size create recycled it" true (hits1 > hits0);
  Alcotest.(check (float 0.)) "recycled storage is zero-filled" 0.0
    (Rt.get b2 [| 3; 3; 1 |])

(* ---- tile-budget revalidation ----

   A cached tiled artifact records the L2 budget its tile shape was
   derived under; opening the cache with a different budget must evict
   it, while the same budget keeps it. *)
let test_tile_budget_eviction () =
  with_toolchain @@ fun () ->
  let dir = fresh_dir () in
  let sp =
    spec3
      [ { (nest3d ~loops:(loops3d ~ub:12 ())
             [ store3 1
                 (Kc.F_binary
                    ("arith.mulf", Kc.F_load (0, idx3 ()), Kc.F_const 0.5))
             ])
          with
          Kc.n_tile = [ 4 ] } ]
  in
  let mk l2_kb =
    N.create
      ~cache:(Cache.create ~dir ~version:N.format_version ())
      ~mode:N.Sync ~l2_kb ()
  in
  let ctx = mk 512 in
  let k = N.prepare ctx ~name:"tb" sp in
  let bufs = [| Rt.create [ 14; 14; 14 ]; Rt.create [ 14; 14; 14 ] |] in
  N.run k ~bufs ~scalars:[||] ();
  (match (N.report k).N.rp_origin with
  | Some N.Origin_built -> ()
  | _ -> Alcotest.fail "expected a cold tiled build");
  (* same budget: the tiled artifact revalidates *)
  Alcotest.(check int) "same budget keeps the artifact" 0
    (N.stale_dropped (mk 512));
  (* shrunk budget: the recorded tile shape no longer matches *)
  let ctx2 = mk 256 in
  Alcotest.(check bool) "changed budget evicts it" true
    (N.stale_dropped ctx2 >= 1);
  (* and the rebuild over the new budget still answers bitwise *)
  let k2 = N.prepare ctx2 ~name:"tb" sp in
  let ref_bufs = [| Rt.create [ 14; 14; 14 ]; Rt.create [ 14; 14; 14 ] |] in
  Kc.run sp ~bufs:ref_bufs ~scalars:[||] ();
  let nat_bufs = [| Rt.create [ 14; 14; 14 ]; Rt.create [ 14; 14; 14 ] |] in
  N.run k2 ~bufs:nat_bufs ~scalars:[||] ();
  Alcotest.(check (float 0.)) "rebuilt kernel bitwise" 0.0
    (Rt.max_abs_diff ref_bufs.(1) nat_bufs.(1))

let () =
  Alcotest.run "codegen"
    [ ("emit",
       [ Alcotest.test_case "whitelist skips erf" `Quick test_emit_skips_erf;
         Alcotest.test_case "all-unsupported is an error" `Quick
           test_emit_rejects_all_unsupported;
         Alcotest.test_case "strides baked into body" `Quick
           test_emit_bakes_strides ]);
      ("schedule",
       [ Alcotest.test_case "sweep/copy pair fuses shifted" `Quick
           test_fusion_shifted;
         Alcotest.test_case "producer/consumer fuses aligned" `Quick
           test_fusion_aligned;
         Alcotest.test_case "overlap fixture refuses to fuse" `Quick
           test_fusion_refused;
         Alcotest.test_case "structural gates" `Quick
           test_fusion_structural_gates;
         Alcotest.test_case "tile, unroll and blit emission" `Quick
           test_schedule_emission ]);
      ("native",
       [ Alcotest.test_case "gauss-seidel bitwise vs vector" `Quick
           test_native_bitwise_gs;
         Alcotest.test_case "missing toolchain falls back" `Quick
           test_fallback_missing_toolchain;
         Alcotest.test_case "unsupported nest runs mixed" `Quick
           test_mixed_nest_execution;
         Alcotest.test_case "corrupt plugin dropped and rebuilt" `Quick
           test_corrupt_plugin_rebuilds;
         Alcotest.test_case "unusable cache dir fails typed" `Quick
           test_unusable_cache_dir_fails_typed;
         Alcotest.test_case "cli survives a missing TMPDIR" `Quick
           test_cli_missing_tmpdir;
         Alcotest.test_case "link stamp sweeps old sidecars" `Quick
           test_link_stamp_sweeps_old_sidecars;
         Alcotest.test_case "reference matrix bitwise vs vector" `Quick
           test_reference_matrix;
         Alcotest.test_case "refused fusion and untiled nests run" `Quick
           test_refused_untiled_runs;
         Alcotest.test_case "storage arena recycles buffers" `Quick
           test_arena_recycles;
         Alcotest.test_case "tile budget change evicts artifacts" `Quick
           test_tile_budget_eviction ]) ]
