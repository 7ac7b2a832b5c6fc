(* End-to-end compilation and execution pipelines — the "Figure 1" of the
   paper as code. Each flow takes Fortran source text and produces a
   runnable artifact:

   - [flang_only]: frontend -> FIR -> direct execution (the paper's
     baseline of Flang lowering FIR straight to LLVM-IR with no standard-
     dialect optimisation — here, the naive tree-walking tier);
   - [stencil]: frontend -> FIR -> discover -> merge -> extract ->
     stencil-to-scf (+openmp / gpu pipeline) -> compiled kernels linked
     back into the FIR host program;
   - vendor baselines (Cray CPU, OpenACC-Nvidia GPU, hand-MPI) live in
     [Fsc_rt.Vendor_kernels] and are driven by the bench harness. *)

open Fsc_ir
module Interp = Fsc_rt.Interp
module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Obs = Fsc_obs.Obs
module Diag = Fsc_analysis.Diag

(* A typed, renderable driver error. The CLI catches it, renders the
   diagnostic through [Fsc_analysis.Diag] and exits nonzero — no raw
   [Failure] backtraces for user errors. *)
exception Error_diag of Diag.t

let driver_error fmt =
  Printf.ksprintf
    (fun msg -> raise (Error_diag (Diag.error ~code:"pipeline" msg)))
    fmt

(* A rewrite pass hitting its max-iterations backstop used to escape as
   a raw [Failure] through the CLI; surface it as a typed diagnostic
   naming the offending pass instead. *)
let nontermination_diag pass =
  Error_diag
    (Diag.errorf ~code:"pipeline"
       ~notes:
         [ ( None,
             "the greedy rewriter exceeded its max-iterations backstop; a \
              pattern in this pass keeps firing without reaching a \
              fixpoint" ) ]
       "pass '%s' does not terminate" pass)

(* every pipeline stage is a span under this category, so a --trace of a
   compile shows frontend / discovery / merge / extraction / lowering /
   linking as one nested timeline; each span records the minor-heap
   words its stage allocated, the share of a compile that decides how
   many minor collections land inside it *)
let stage name f =
  Obs.with_span ~cat:"pipeline" ~alloc:true name (fun () ->
      try f () with
      | Rewrite.Nontermination -> raise (nontermination_diag name)
      | Pass.Pipeline_error (pass, Rewrite.Nontermination, _) ->
        raise (nontermination_diag pass))

let log_src = Logs.Src.create "fsc.driver" ~doc:"compilation driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type gpu_strategy =
  | Gpu_initial
  | Gpu_optimised

type target =
  | Serial
  | Openmp of int (* threads *)
  | Gpu of gpu_strategy
  | Dist of int (* simulated MPI ranks *)

let target_kind = function
  | Serial -> "serial"
  | Openmp _ -> "openmp"
  | Gpu Gpu_initial -> "gpu-initial"
  | Gpu Gpu_optimised -> "gpu-optimised"
  | Dist _ -> "dist"

let target_name = function
  | Openmp n -> Printf.sprintf "openmp(%d)" n
  | Dist r -> Printf.sprintf "dist(%d)" r
  | t -> target_kind t

(* Which execution tier runs compiled kernels. The engine is link-time
   state (like the pool size): it never changes the compiled IR, so it
   is not part of {!options} or the cache key. *)
type exec_engine =
  | Engine_interp  (* force the tree-walking interpreter *)
  | Engine_vector  (* Kernel_bytecode's row engine, closure fallback *)
  | Engine_native  (* Fsc_codegen's emitted-OCaml JIT, vector fallback *)

let engine_name = function
  | Engine_interp -> "interp"
  | Engine_vector -> "vector"
  | Engine_native -> "native"

let engine_of_name = function
  | "interp" -> Some Engine_interp
  | "vector" -> Some Engine_vector
  | "native" -> Some Engine_native
  | _ -> None

let all_engines = [ Engine_interp; Engine_vector; Engine_native ]

let engine_names = List.map engine_name all_engines

(* The one place that decides which engine runs a target's kernels:
   native is a CPU execution strategy, so it gives way to vector plans
   where a target runs its own kind of plan, with the reason. *)
let resolve_engine engine target =
  match (engine, target) with
  | Engine_native, Dist _ ->
    (Engine_vector, Some "dist ranks run per-rank vector plans")
  | Engine_native, Gpu _ ->
    (Engine_vector, Some "GPU targets run vector plans on device twins")
  | _ -> (engine, None)

type kernel_impl =
  | Vectorised of Kc.spec * Kb.plan
  | Native_jit of Kc.spec * Fsc_codegen.Native.kernel
  | Interpreted of string (* fallback reason *)

type artifact = {
  a_host : Op.op;
  a_stencil : Op.op option; (* the extracted module, post-lowering *)
  a_ctx : Interp.context;
  a_kernels : (string * kernel_impl) list;
  a_target : target;
  a_dist : Fsc_dmp.Dist_kernel.state option; (* distributed runtime *)
  a_unzeroed : (string * string) list; (* grid, kernel overwriting it *)
}

(* Not [lazy]: forcing a lazy from two domains at once is undefined in
   OCaml 5, and the job server compiles on worker domains. A mutex-run
   once-guard gives the same one-shot init, domain-safely. *)
let reg_mutex = Mutex.create ()
let reg_done = ref false

let ensure_registered () =
  Mutex.lock reg_mutex;
  if not !reg_done then begin
    Fsc_dialects.Registry.init ();
    reg_done := true
  end;
  Mutex.unlock reg_mutex

(* -------------------- flang only -------------------- *)

let flang_only src =
  ensure_registered ();
  let m = stage "frontend" (fun () -> Fsc_fortran.Flower.compile_source src) in
  stage "verify" (fun () ->
      Verifier.verify_in_context_exn (Dialect.flang_context ()) m);
  let ctx = Interp.create_context () in
  Interp.add_module ctx m;
  { a_host = m; a_stencil = None; a_ctx = ctx;
    a_kernels = []; a_target = Serial; a_dist = None; a_unzeroed = [] }

(* -------------------- stencil flow -------------------- *)

let spec_buffers args =
  List.filter_map
    (function Interp.R_buf b -> Some b | _ -> None)
    args

let spec_scalars args =
  List.filter_map
    (function
      | Interp.R_float f -> Some f
      | Interp.R_int n -> Some (float_of_int n)
      | _ -> None)
    args

(* The default native-JIT context: process-wide, created on first use
   (async builds, artifact cache in the default directory). Callers
   wanting a specific cache directory, sync builds or a different
   toolchain pass their own ctx to [link ~native]. *)
let native_mutex = Mutex.create ()
let native_default : Fsc_codegen.Native.ctx option ref = ref None

let default_native_ctx () =
  Mutex.lock native_mutex;
  let ctx =
    match !native_default with
    | Some c -> c
    | None ->
      let c = Fsc_codegen.Native.create () in
      native_default := Some c;
      c
  in
  Mutex.unlock native_mutex;
  ctx

(* Register one stencil kernel's runtime implementation. [compile]
   makes an analysable kernel's implementation and its exec, with the
   artifact's pool inside ([None] under the interp engine, which
   executes the kernel func); the call only picks the target's wrapper.
   [dist] is the distributed runtime state, present on [Dist] targets
   whenever kernels compile. *)
let register_kernel ~compile ~target ~dist ctx kernel_func =
  let name = Fsc_dialects.Func.name kernel_func in
  match compile with
  | None -> (name, Interpreted "execution engine 'interp' selected")
  | Some compile -> (
    match Kc.try_analyze kernel_func with
    | Error reason ->
      Log.debug (fun f ->
          f "kernel %s: interpreter fallback (%s)" name reason);
      (match dist with
      | Some dst ->
        (* the interpreter must see current host globals: gather the
           scattered groups first, and re-scatter afterwards *)
        let impl ctx args =
          Obs.with_span ~cat:"kernel" ("kernel.exec " ^ name) @@ fun () ->
          Fsc_dmp.Dist_kernel.run_fallback dst ~reason (fun () ->
              Interp.call_func ctx kernel_func args)
        in
        Interp.register_external ctx name impl
      | None -> ());
      (name, Interpreted reason)
    | Ok spec ->
      let impl, exec = compile ~name spec in
      let run _ctx args =
        Obs.with_span ~cat:"kernel" ("kernel.exec " ^ name) @@ fun () ->
        let bufs = Array.of_list (spec_buffers args) in
        let scalars = Array.of_list (spec_scalars args) in
        (match (dist, target) with
        | Some dst, _ ->
          Fsc_dmp.Dist_kernel.run_kernel dst ~name spec
            ~host:(fun () -> exec ~bufs ~scalars)
            ~bufs ~scalars
        | None, Gpu strategy ->
          let g =
            match ctx.Interp.gpu with
            | Some g -> g
            | None ->
              driver_error
                "kernel '%s' requires a GPU device, but the artifact was \
                 linked without one (GPU target without device)"
                name
          in
          (* execute on the device twins, charge the simulator *)
          let dev_bufs = Array.map (Fsc_rt.Gpu_sim.kernel_view g) bufs in
          let sim_strategy =
            match strategy with
            | Gpu_initial -> Fsc_rt.Gpu_sim.Strategy_host_register
            | Gpu_optimised -> Fsc_rt.Gpu_sim.Strategy_device_resident
          in
          let block_threads = 32 * 32 in
          let elems =
            if Array.length bufs = 0 then 0
            else Fsc_rt.Memref_rt.size bufs.(0)
          in
          let blocks = (elems + block_threads - 1) / block_threads in
          Obs.with_span ~cat:"kernel"
            ~args:
              [ ("blocks", Obs.A_int blocks);
                ("threads_per_block", Obs.A_int block_threads) ]
            ("gpu.launch " ^ name)
          @@ fun () ->
          Fsc_rt.Gpu_sim.launch g ~strategy:sim_strategy
            ~block_threads
            ~flops:(float_of_int (Kc.flops spec))
            ~bytes_accessed:(8.0 *. float_of_int (Kc.loads spec))
            ~body:(fun () -> exec ~bufs:dev_bufs ~scalars)
            (Array.to_list bufs)
        | None, _ -> exec ~bufs ~scalars);
        []
      in
      Interp.register_external ctx name run;
      (name, impl))

(* GPU data-management externals for the optimised strategy; [managed]
   is the list of kernel symbols whose placement was hoisted. *)
let register_gpu_data ctx (managed : string list) =
  List.iter
    (fun kernel ->
      let with_gpu f _ args =
        (match ctx.Interp.gpu with
        | Some g -> List.iter (f g) (spec_buffers args)
        | None -> ());
        []
      in
      Interp.register_external ctx (kernel ^ "_gpu_init")
        (with_gpu (fun g b ->
             Fsc_rt.Gpu_sim.alloc g b;
             Fsc_rt.Gpu_sim.memcpy_h2d g b));
      Interp.register_external ctx (kernel ^ "_gpu_sync")
        (with_gpu Fsc_rt.Gpu_sim.memcpy_d2h);
      Interp.register_external ctx (kernel ^ "_gpu_free")
        (with_gpu (fun _ _ -> ())))
    managed

type stencil_stats = {
  st_discovered : int;
  st_merged : int;
  st_kernels : int;
}

type options = {
  opt_target : target;
  opt_merge : bool;
}

let default_options ?(target = Serial) ?(merge = true) () =
  { opt_target = target; opt_merge = merge }

(* the paper's Listing-4 GPU tile *)
let gpu_tile_sizes = [ 32; 32; 1 ]

type compiled_artifact = {
  ca_host : Op.op;
  ca_stencil : Op.op;
  ca_kernels : string list;
  ca_managed : string list;
  ca_footprints : (string * Fsc_analysis.Footprint.t) list;
  ca_stats : stencil_stats;
  ca_options : options;
}

let is_stencil_kernel n =
  String.length n >= 15
  && String.sub n 0 15 = "_stencil_kernel"
  (* the *_gpu_init/sync/free device-management trampolines are
     implemented by runtime externals, not kernels *)
  && not (Filename.check_suffix n "_gpu_init")
  && not (Filename.check_suffix n "_gpu_sync")
  && not (Filename.check_suffix n "_gpu_free")

(* The pure front half of the paper's Figure 1: everything from source
   text to lowered modules. No runtime state is created here, so the
   result can be printed, cached and re-linked at will. [opt_merge]
   exists for the ablation studies: disabling it leaves the rest of the
   pipeline untouched. *)
let compile options src =
  ensure_registered ();
  let target = options.opt_target in
  (* 1. Flang frontend *)
  let m = stage "frontend" (fun () -> Fsc_fortran.Flower.compile_source src) in
  (* 2. xDSL side: discover + merge on the mixed module *)
  let dstats = stage "discovery" (fun () -> Fsc_core.Discovery.run m) in
  let merged =
    stage "merge" (fun () ->
        if options.opt_merge then Fsc_core.Merge.run m else 0)
  in
  stage "verify" (fun () -> Verifier.verify_exn m);
  (* 3. extract stencil sections into their own module *)
  let ex = stage "extraction" (fun () -> Fsc_core.Extraction.run m) in
  let host = ex.Fsc_core.Extraction.host_module in
  let stencil_m = ex.Fsc_core.Extraction.stencil_module in
  (* the host side must now be pure Flang-registered dialects *)
  stage "verify host" (fun () ->
      Verifier.verify_in_context_exn (Dialect.flang_context ()) host);
  (* 4. GPU data placement (optimised strategy only) *)
  let managed =
    match target with
    | Gpu Gpu_optimised ->
      stage "gpu data placement" (fun () ->
          Fsc_core.Gpu_data.run ~host_module:host ~stencil_module:stencil_m)
    | _ -> []
  in
  (* 5. lower the stencil module *)
  let mode =
    match target with
    | Gpu _ -> Fsc_lowering.Stencil_to_scf.Gpu
    | _ -> Fsc_lowering.Stencil_to_scf.Cpu
  in
  stage "stencil-to-scf" (fun () ->
      Fsc_lowering.Stencil_to_scf.run ~mode stencil_m);
  stage "canonicalize" (fun () ->
      ignore (Fsc_transforms.Canonicalize.run stencil_m));
  (match target with
  | Openmp _ ->
    stage "scf-to-openmp" (fun () ->
        ignore (Fsc_lowering.Scf_to_openmp.run stencil_m))
  | _ -> ());
  let kernel_funcs =
    Fsc_dialects.Func.all_functions stencil_m
    |> List.filter (fun f -> is_stencil_kernel (Fsc_dialects.Func.name f))
  in
  let kernels = List.map Fsc_dialects.Func.name kernel_funcs in
  (* per-kernel affine footprints, the read/write regions [sfc compile
     --stats] prints and the cache recomputes on every hit; kernels
     outside the analysable shape simply have none *)
  let footprints =
    stage "footprint analysis" (fun () ->
        List.filter_map
          (fun f ->
            match Kc.try_analyze f with
            | Ok spec ->
              Some
                ( Fsc_dialects.Func.name f,
                  Fsc_analysis.Footprint.of_spec spec )
            | Error _ -> None)
          kernel_funcs)
  in
  { ca_host = host; ca_stencil = stencil_m;
    ca_kernels = kernels; ca_footprints = footprints;
    ca_managed = List.map (fun m -> m.Fsc_core.Gpu_data.mg_kernel) managed;
    ca_stats =
      { st_discovered = dstats.Fsc_core.Discovery.found; st_merged = merged;
        st_kernels = List.length kernels };
    ca_options = options }

(* The Listing-4 pipeline's output for a GPU artifact, rebuilt on a
   clone of its stencil module: GPU targets execute vector plans of the
   stencil module itself, so only inspection asks for this module, and
   neither the compile nor the cache entry carries it. *)
let gpu_ir ca =
  match ca.ca_options.opt_target with
  | Gpu _ ->
    let clone = Op.clone ca.ca_stencil in
    ignore (Fsc_lowering.Gpu_pipeline.run ~tile_sizes:gpu_tile_sizes clone);
    clone
  | t -> invalid_arg ("Pipeline.gpu_ir: target " ^ target_name t)

(* -------------------- zero-fill elision -------------------- *)

let kernel_spec = function
  | Vectorised (spec, _) | Native_jit (spec, _) -> Some spec
  | Interpreted _ -> None

(* Which array [fir.alloca]s of [_QQmain]'s top-level block can skip
   their zero-fill: those whose first use, in program order and seeing
   through [fir.convert] aliases, is a call to a compiled kernel whose
   spec overwrites that argument ([Footprint.overwrites]) — the kernel
   writes every cell before anything reads one. Every other first use
   keeps the fill: a use inside a region (a loop body may run a host
   access first, or not at all), a host access, a call to anything but
   a compiled kernel (interp engine, analysis fallback, GPU data
   trampolines), a grid passed twice to one call (the spec's argument
   indices would alias), or a call whose buffer arguments cannot be
   matched to the spec's. Returns (alloca result id, grid name, kernel)
   in program order. *)
let unzeroed_grids host kernels =
  let main =
    List.find_opt
      (fun f -> Fsc_dialects.Func.name f = "_QQmain")
      (Fsc_dialects.Func.all_functions host)
  in
  match main with
  | None -> []
  | Some main ->
    (* value id -> (alloca id, extents), for allocas and their aliases *)
    let roots : (int, int * int array) Hashtbl.t = Hashtbl.create 16 in
    let names : (int, string) Hashtbl.t = Hashtbl.create 16 in
    let decided : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let found = ref [] in
    let keep_fill (v : Op.value) =
      match Hashtbl.find_opt roots v.Op.v_id with
      | Some (id, _) -> Hashtbl.replace decided id ()
      | None -> ()
    in
    let kernel_call op =
      if op.Op.o_name <> "fir.call" then None
      else
        let callee = Op.string_attr op "callee" in
        Option.bind (List.assoc_opt callee kernels) (fun impl ->
            Option.map (fun spec -> (callee, spec)) (kernel_spec impl))
    in
    (* buffer argument k of the spec is the k-th grid operand, as at run
       time; an operand that is neither a grid nor a scalar could shift
       that numbering, so such a call elides nothing *)
    let decide_call callee spec operands =
      let grids =
        List.filter_map (fun v -> Hashtbl.find_opt roots v.Op.v_id) operands
      in
      let matched =
        List.length grids = spec.Kc.k_num_bufs
        && List.for_all
             (fun v ->
               Hashtbl.mem roots v.Op.v_id
               || Types.is_scalar (Op.value_type v))
             operands
      in
      List.iteri
        (fun buf (id, dims) ->
          if not (Hashtbl.mem decided id) then begin
            Hashtbl.replace decided id ();
            let passed_once =
              List.length (List.filter (fun (i, _) -> i = id) grids) = 1
            in
            if matched && passed_once
               && Fsc_analysis.Footprint.overwrites spec ~buf ~dims
            then found := (id, Hashtbl.find names id, callee) :: !found
          end)
        grids
    in
    List.iter
      (fun op ->
        match (Interp.alloca_dims op, op.Op.o_name, kernel_call op) with
        | Some dims, _, _ ->
          let id = (Op.result op).Op.v_id in
          Hashtbl.replace roots id (id, Array.of_list dims);
          Hashtbl.replace names id
            (match Op.attr op "bindc_name" with
            | Some (Attr.Str_a n) -> n
            | _ -> Printf.sprintf "%%%d" id)
        | None, "fir.convert", _ ->
          List.iter
            (fun (v : Op.value) ->
              Option.iter
                (Hashtbl.replace roots (Op.result op).Op.v_id)
                (Hashtbl.find_opt roots v.Op.v_id))
            (Op.operands op)
        | None, _, Some (callee, spec) ->
          decide_call callee spec (Op.operands op)
        | None, _, None ->
          List.iter keep_fill (Op.operands op);
          Op.walk_inner (fun o -> List.iter keep_fill (Op.operands o)) op)
      (Op.block_ops (Fsc_dialects.Func.entry_block main));
    List.rev !found

(* The impure back half: host interpreted, kernels compiled where
   possible, pool/device allocated per target. Works identically on a
   freshly compiled artifact and on one re-parsed from the cache. *)
let link ?(engine = Engine_vector) ?native ca =
  ensure_registered ();
  let target = ca.ca_options.opt_target in
  let engine, _ = resolve_engine engine target in
  let ctx = Interp.create_context () in
  Interp.add_module ctx ca.ca_host;
  Interp.add_module ctx ca.ca_stencil;
  (* every artifact borrows the process-wide pool's workers, never
     more of them than the host has cores: extra threads or ranks
     time-share through work stealing and rank slices *)
  let pool =
    match target with
    | Openmp n -> Some (Fsc_rt.Domain_pool.shared n)
    | Dist r ->
      let p = Fsc_rt.Domain_pool.shared r in
      if Fsc_rt.Domain_pool.size p >= 2 then Some p else None
    | _ -> None
  in
  ctx.Interp.pool <- pool;
  (* every kernel's exec is made once here, with the pool inside; the
     native ctx is resolved only when native kernels run *)
  let compile =
    match engine with
    | Engine_interp -> None
    | Engine_vector ->
      Some
        (fun ~name:_ spec ->
          let plan = Kb.compile_spec spec in
          (Vectorised (spec, plan), Kb.runner ?pool plan))
    | Engine_native ->
      let nctx =
        match native with Some nctx -> nctx | None -> default_native_ctx ()
      in
      Some
        (fun ~name spec ->
          let nk = Fsc_codegen.Native.prepare nctx ~name spec in
          ( Native_jit (spec, nk),
            fun ~bufs ~scalars ->
              Fsc_codegen.Native.run nk ?pool ~bufs ~scalars () ))
  in
  let dist =
    match target with
    | Dist ranks when engine <> Engine_interp ->
      Some (Fsc_dmp.Dist_kernel.create ?pool ~ranks ())
    | _ -> None
  in
  (match target with
  | Gpu strategy ->
    ctx.Interp.gpu <- Some (Fsc_rt.Gpu_sim.create ());
    ctx.Interp.gpu_strategy <-
      (match strategy with
      | Gpu_initial -> Fsc_rt.Gpu_sim.Strategy_host_register
      | Gpu_optimised -> Fsc_rt.Gpu_sim.Strategy_device_resident)
  | _ -> ());
  let kernels =
    stage "link + kernel compile" (fun () ->
        Fsc_dialects.Func.all_functions ca.ca_stencil
        |> List.filter (fun f ->
               List.mem (Fsc_dialects.Func.name f) ca.ca_kernels)
        |> List.map
             (register_kernel ~compile ~target ~dist ctx))
  in
  register_gpu_data ctx ca.ca_managed;
  let unzeroed = unzeroed_grids ca.ca_host kernels in
  List.iter (fun (id, _, _) -> Hashtbl.replace ctx.Interp.unzeroed id ())
    unzeroed;
  { a_host = ca.ca_host; a_stencil = Some ca.ca_stencil;
    a_ctx = ctx; a_kernels = kernels;
    a_target = target; a_dist = dist;
    a_unzeroed = List.map (fun (_, grid, kernel) -> (grid, kernel)) unzeroed }

(* The full stencil pipeline of the paper's Figure 1. Resets the global
   kernel-name counter for reproducible names — which is why [compile]
   (callable concurrently from server workers) does not: a reset racing
   another in-flight compile could hand out duplicate names. *)
let stencil ?target ?merge ?engine ?native src =
  let options = default_options ?target ?merge () in
  Fsc_core.Extraction.reset_name_counter ();
  let ca = compile options src in
  (link ?engine ?native ca, ca.ca_stats)

(* -------------------- execution -------------------- *)

(* Hand the previous run's grids back to the arena: this run's
   allocations then reuse their storage instead of fresh Bigarrays
   whose finalisers wait for a major collection. A device-resident
   twin goes with its host grid, so no end-of-run sync writes into
   storage that now backs another grid. *)
let release_grids ctx =
  List.iter
    (fun (_, buf) ->
      Option.iter (fun g -> Fsc_rt.Gpu_sim.dealloc g buf) ctx.Interp.gpu;
      Fsc_rt.Memref_rt.release buf)
    ctx.Interp.named_buffers;
  ctx.Interp.named_buffers <- []

let release artifact = release_grids artifact.a_ctx

let run artifact =
  (* distributed: buffers are allocated per run, so reset the scatter
     groups (releasing their rank blocks) before main and gather
     everything back after *)
  Option.iter Fsc_dmp.Dist_kernel.begin_run artifact.a_dist;
  release_grids artifact.a_ctx;
  Interp.run_main artifact.a_ctx;
  Option.iter Fsc_dmp.Dist_kernel.sync_back artifact.a_dist;
  (* GPU: make host mirrors consistent at program end *)
  (match artifact.a_ctx.Interp.gpu with
  | Some g when artifact.a_target <> Gpu Gpu_initial ->
    Fsc_rt.Gpu_sim.sync_all_d2h g
  | _ -> ())

let shutdown artifact =
  (* drain in-flight native builds: even a short run must leave its
     compiled plugins published in the cache for the next process. The
     workers belong to the shared pool, so there is nothing to join. *)
  List.iter
    (fun (_, impl) ->
      match impl with
      | Native_jit (_, nk) -> Fsc_codegen.Native.drain nk
      | _ -> ())
    artifact.a_kernels

(* Grid named [name] allocated during execution. *)
let buffer artifact name =
  List.assoc_opt name artifact.a_ctx.Interp.named_buffers

let buffer_exn artifact name =
  match buffer artifact name with
  | Some b -> b
  | None ->
    driver_error
      "no buffer named '%s' was allocated during execution (known \
       buffers: %s)"
      name
      (match artifact.a_ctx.Interp.named_buffers with
      | [] -> "none"
      | bs -> String.concat ", " (List.map fst bs))
