(* Distributed execution of compiled stencil kernels.

   This is the runtime half of the paper's DMP lowering: a kernel spec
   produced by [Fsc_rt.Kernel_compile] from the serial stencil pipeline
   is re-targeted at SPMD execution over a [Decomp] — each rank runs the
   same nests over its ownership-clipped local bounds through the
   vector engine, with [Dist_exec] supersteps providing the
   halo swaps.

   Coherence follows the GPU device-resident contract: buffer groups
   live scattered across ranks while distributed kernels run, and are
   gathered back into the host's global buffers only at the end of the
   run ([sync_back], one team launch in which every member copies its
   own ranks' blocks) or when a non-distributable kernel needs the host
   copy ([run_fallback]). Host code reading grids between kernels inside
   one run sees stale data — exactly as with device-resident GPU
   buffers. Like the paper's data-placement pass, only data a kernel
   needs moves: a buffer whose calling kernel overwrites every cell
   before reading any ([Footprint.overwrites]) is not scattered — its
   rank blocks are allocated unfilled and the kernel fills them.

   A kernel distributes when, in every decomposed dimension (y, and z
   for 3-D fields), all stores hit the iteration cell exactly
   (offset 0), all loads stay within the single-cell halo, and no index
   is constant; anything else — including [Kernel_compile]'s own
   analysis fallbacks — runs on the host between a gather and a
   re-scatter. Nests are grouped into stages so that one halo swap per
   stage suffices: a nest that reads, at a nonzero decomposed offset, a
   buffer written earlier in the stage starts a new stage. Each rank
   runs a stage's nests in program order over its whole local
   interior, so a nest that overwrites data an earlier nest read
   through the halo (the Gauss-Seidel copy-back) follows the sweep, as
   in the hand-MPI code. *)

module Kc = Fsc_rt.Kernel_compile
module Kb = Fsc_rt.Kernel_bytecode
module Rt = Fsc_rt.Memref_rt
module Pool = Fsc_rt.Domain_pool
module Obs = Fsc_obs.Obs
module Fp = Fsc_analysis.Footprint
module SS = Set.Make (String)

(* host fallback runs only ([run_fallback]) *)
let c_fallbacks = Obs.counter "dmp.fallbacks"
let c_scatters = Obs.counter "dmp.scatters"
let c_gathers = Obs.counter "dmp.gathers"
let c_scatters_skipped = Obs.counter "dmp.scatters_skipped"
let c_fused = Obs.counter "dmp.fused"
let c_stales_avoided = Obs.counter "dmp.stales_avoided"

type runner = bufs:Rt.t array -> scalars:float array -> unit

(* One coherence group: all buffers sharing a global shape, scattered
   over one [Dist_exec] state. [g_valid] means the rank-local copies are
   authoritative; false means the host globals are (after a fallback,
   and at the start of a run) and the next distributed kernel must
   re-scatter. [g_fresh] tracks which fields' halo planes currently
   mirror their owners — fresh after a scatter or an exchange, stale
   once a stage writes the field — and is what superstep fusion keys
   on. *)
type group = {
  g_dims : int list;
  g_dx : Dist_exec.t;
  mutable g_valid : bool;
  g_planes : int list * int list; (* [mirror_planes] of the decomposition *)
  mutable g_bufs : (string * Rt.t) list; (* field name -> global buffer *)
  mutable g_fresh : SS.t; (* fields with up-to-date halos *)
}

type stage_plan = {
  sg_nests : Kc.nest list;
  sg_swap : int list; (* buffer arg indices whose halos the stage reads *)
  sg_writes : int list; (* buffer arg indices the stage stores to *)
  sg_write_regions : (int * Fp.region) list;
      (* per written buffer, the joined global write footprint — what
         halo-aware staling tests against the decomposition's mirrored
         planes *)
}

type kplan = {
  kp_spec : Kc.spec;
  kp_stages : stage_plan list;
  (* (stage, rank) -> runner over the stage's ownership-localized nests *)
  kp_runners : (int * int, runner) Hashtbl.t;
}

type state = {
  dk_ranks : int;
  dk_pool : Pool.t option;
  mutable dk_groups : group list;
  mutable dk_ids : (Rt.t * string) list; (* physical buffer -> field name *)
  mutable dk_next_id : int;
  dk_plans : (string, (kplan, string) result) Hashtbl.t;
  (* cumulative statistics *)
  mutable dk_dist_runs : int;
  mutable dk_fallback_runs : int;
  mutable dk_exchanged_stages : int;
  mutable dk_fused_stages : int;
  mutable dk_stales_avoided : int;
  mutable dk_scatters_skipped : int;
  mutable dk_vec_nests : int;
  mutable dk_total_nests : int;
}

let create ?pool ~ranks () =
  { dk_ranks = ranks; dk_pool = pool;
    dk_groups = []; dk_ids = [];
    dk_next_id = 0; dk_plans = Hashtbl.create 8; dk_dist_runs = 0;
    dk_fallback_runs = 0; dk_exchanged_stages = 0; dk_fused_stages = 0;
    dk_stales_avoided = 0; dk_scatters_skipped = 0; dk_vec_nests = 0;
    dk_total_nests = 0 }

let rec find_name b = function
  | [] -> None
  | (b', name) :: tl -> if b' == b then Some name else find_name b tl

(* The field a host buffer is scattered into: "b<n>" for the n-th
   buffer of the run, named once per run. *)
let field_name st b =
  match find_name b st.dk_ids with
  | Some name -> name
  | None ->
    let name = "b" ^ string_of_int st.dk_next_id in
    st.dk_next_id <- st.dk_next_id + 1;
    st.dk_ids <- (b, name) :: st.dk_ids;
    name

(* ------------------------------------------------------------------ *)
(* Kernel planning: distributability and stages                        *)
(* ------------------------------------------------------------------ *)

exception Not_distributable of string

let ndis fmt = Printf.ksprintf (fun m -> raise (Not_distributable m)) fmt

let decomposed_dims field_rank = if field_rank = 2 then [ 1 ] else [ 1; 2 ]

let rec walk_loads f = function
  | Kc.F_load (b, idx) -> f b idx
  | Kc.F_unary (_, e) -> walk_loads f e
  | Kc.F_binary (_, a, b) ->
    walk_loads f a;
    walk_loads f b
  | Kc.F_scalar _ | Kc.F_const _ | Kc.F_ivf _ -> ()

(* Buffers a nest reads at a nonzero offset in a decomposed dimension:
   these reads cross rank boundaries and need fresh halos. *)
let offset_reads ~ddims nest =
  let acc = ref [] in
  List.iter
    (fun s ->
      walk_loads
        (fun b idx ->
          List.iteri
            (fun d form ->
              match form with
              | Kc.Iv (_, off) when off <> 0 && List.mem d ddims ->
                acc := b :: !acc
              | _ -> ())
            idx)
        s.Kc.st_expr)
    nest.Kc.n_stores;
  List.sort_uniq compare !acc

let writes nest = List.map (fun s -> s.Kc.st_buf) nest.Kc.n_stores

(* Every decomposed-dim index must be the iteration variable of the loop
   walking that dimension: offset 0 for stores, |offset| <= 1 (the halo
   width) for loads. Constant planes and transposed index use would need
   per-rank index rewriting beyond halo exchange. *)
let check_nest ~ddims nest =
  let dim_of_level =
    List.map (fun l -> (l.Kc.l_level, l.Kc.l_dim)) nest.Kc.n_loops
  in
  let check ~store what idx =
    List.iteri
      (fun d form ->
        if List.mem d ddims then
          match form with
          | Kc.Cst _ ->
            ndis "%s uses a constant index in decomposed dimension %d"
              what d
          | Kc.Iv (lvl, off) -> (
            match List.assoc_opt lvl dim_of_level with
            | Some ld when ld = d ->
              if store && off <> 0 then
                ndis "%s stores at offset %d in decomposed dimension %d"
                  what off d
              else if (not store) && abs off > 1 then
                ndis
                  "%s reads at offset %d in decomposed dimension %d \
                   (beyond the halo width of 1)"
                  what off d
            | _ ->
              ndis
                "%s indexes decomposed dimension %d with the induction \
                 variable of another dimension's loop"
                what d))
      idx
  in
  List.iter
    (fun s ->
      check ~store:true
        (Printf.sprintf "store to buffer %d" s.Kc.st_buf)
        s.Kc.st_index;
      walk_loads
        (fun b idx ->
          check ~store:false (Printf.sprintf "load of buffer %d" b) idx)
        s.Kc.st_expr)
    nest.Kc.n_stores

(* Group nests into stages needing one halo swap each: a nest reading,
   at a nonzero decomposed offset, a buffer written earlier in the
   current stage needs halos of *this stage's* data and starts a new
   stage. *)
let split_stages ~ddims nests =
  let stages = ref [] and cur = ref [] and written = ref [] in
  List.iter
    (fun nest ->
      let reads = offset_reads ~ddims nest in
      if !cur <> [] && List.exists (fun b -> List.mem b !written) reads
      then begin
        stages := List.rev !cur :: !stages;
        cur := [];
        written := []
      end;
      cur := nest :: !cur;
      written := writes nest @ !written)
    nests;
  if !cur <> [] then stages := List.rev !cur :: !stages;
  List.rev !stages

let plan_spec spec ~field_rank =
  let ddims = decomposed_dims field_rank in
  List.iter (check_nest ~ddims) spec.Kc.k_nests;
  split_stages ~ddims spec.Kc.k_nests
  |> List.map (fun nests ->
         let swap =
           List.sort_uniq compare
             (List.concat_map (offset_reads ~ddims) nests)
         in
         let stage_writes =
           List.sort_uniq compare (List.concat_map writes nests)
         in
         (* join the global write footprints of the stage's nests, per
            buffer: stores are offset-0 in decomposed dimensions
            ([check_nest]), so the global loop bounds bound exactly the
            planes any rank can write *)
         let write_regions =
           List.fold_left
             (fun acc nest ->
               let fp = Fp.of_nest nest in
               List.fold_left
                 (fun acc (bi, r) ->
                   match List.assoc_opt bi acc with
                   | None -> (bi, r) :: acc
                   | Some prev ->
                     (bi, Fp.join_region prev r) :: List.remove_assoc bi acc)
                 acc fp.Fp.nf_writes)
             [] nests
         in
         { sg_nests = nests; sg_swap = swap; sg_writes = stage_writes;
           sg_write_regions = write_regions })

(* ------------------------------------------------------------------ *)
(* Halo-aware staling                                                  *)
(* ------------------------------------------------------------------ *)

(* The interior planes some rank's halo mirrors: per decomposed axis,
   the first/last owned plane of every block that has a neighbour on
   that side. Global boundary planes (1 and n at the grid edge) are
   never mirrored — no rank's halo holds them. *)
let mirror_planes decomp =
  let _, ny, nz = decomp.Decomp.global in
  let nranks = Decomp.nranks decomp in
  let ys = ref [] and zs = ref [] in
  for r = 0 to nranks - 1 do
    let (_, _), (yl, yh), (zl, zh) = Decomp.local_range decomp r in
    if yl > 1 then ys := yl :: !ys;
    if yh < ny then ys := yh :: !ys;
    if zl > 1 then zs := zl :: !zs;
    if zh < nz then zs := zh :: !zs
  done;
  (List.sort_uniq compare !ys, List.sort_uniq compare !zs)

(* Does a write with this global footprint invalidate any rank's halo?
   Only when the written region covers a mirrored plane in some
   decomposed dimension (halo planes span the full cross-section, so
   per-axis intersection is sound). Buffer index = global index: the
   (0:n+1) allocation puts interior plane p at buffer index p. A region
   too short to constrain a decomposed dimension is treated as Top. *)
let write_stales ~ddims ~planes:(planes_y, planes_z) region =
  List.exists
    (fun d ->
      let planes = if d = 1 then planes_y else planes_z in
      match List.nth_opt region d with
      | None -> planes <> []
      | Some dim -> List.exists (Fp.dim_contains dim) planes)
    ddims

let plan st spec ~field_rank ~name =
  match Hashtbl.find_opt st.dk_plans name with
  | Some r -> r
  | None ->
    let r =
      match plan_spec spec ~field_rank with
      | stages ->
        Ok
          { kp_spec = spec; kp_stages = stages;
            kp_runners = Hashtbl.create 16 }
      | exception Not_distributable reason -> Error reason
    in
    Hashtbl.add st.dk_plans name r;
    r

(* ------------------------------------------------------------------ *)
(* Per-rank localization                                               *)
(* ------------------------------------------------------------------ *)

exception Empty_nest

(* Clip a nest's decomposed-dim loop bounds to the rank's ownership and
   translate to local coordinates. A rank executes the iterations for
   cells it owns; ranks at a global boundary also execute the loop's
   boundary-plane iterations (global array index 0 / n+1), which map to
   their outer halo planes. [F_ivf] terms (float of the global iteration
   index) are rebased so per-rank arithmetic reproduces global values
   bitwise. *)
let localize_nest ~decomp ~ddims ~rank nest =
  let (_, _), (yl, yh), (zl, zh) = Decomp.local_range decomp rank in
  let _, ny, nz = decomp.Decomp.global in
  let range_of d = if d = 1 then (yl, yh, ny) else (zl, zh, nz) in
  try
    let shifts = ref [] in
    let loops =
      List.map
        (fun l ->
          if List.mem l.Kc.l_dim ddims then begin
            let gl, gh, n_d = range_of l.Kc.l_dim in
            let lo_g = if gl = 1 then max l.Kc.l_lb 0 else max l.Kc.l_lb gl in
            let hi_g =
              if gh = n_d then min l.Kc.l_ub (n_d + 2)
              else min l.Kc.l_ub (gh + 1)
            in
            let lb = lo_g - (gl - 1) and ub = hi_g - (gl - 1) in
            if lb >= ub then raise Empty_nest;
            if gl <> 1 then shifts := (l.Kc.l_level, gl - 1) :: !shifts;
            { l with Kc.l_lb = lb; l_ub = ub }
          end
          else l)
        nest.Kc.n_loops
    in
    let rec shift_expr e =
      match e with
      | Kc.F_ivf (lvl, off) -> (
        match List.assoc_opt lvl !shifts with
        | Some s -> Kc.F_ivf (lvl, off + s)
        | None -> e)
      | Kc.F_unary (op, a) -> Kc.F_unary (op, shift_expr a)
      | Kc.F_binary (op, a, b) ->
        Kc.F_binary (op, shift_expr a, shift_expr b)
      | Kc.F_load _ | Kc.F_scalar _ | Kc.F_const _ -> e
    in
    let stores =
      if !shifts = [] then nest.Kc.n_stores
      else
        List.map
          (fun s -> { s with Kc.st_expr = shift_expr s.Kc.st_expr })
          nest.Kc.n_stores
    in
    Some { nest with Kc.n_loops = loops; n_stores = stores }
  with Empty_nest -> None

(* ------------------------------------------------------------------ *)
(* Runner compilation (memoized; built on the caller thread only)      *)
(* ------------------------------------------------------------------ *)

let noop_runner ~bufs:_ ~scalars:_ = ()

(* Per-rank execution passes no pool: each rank already runs inside one
   pool worker, and the vector engine's row loops are the parallelism
   within the rank's own cache. A rank's blocks persist across runs
   ([begin_run]), so its runner binds once and re-runs that binding. *)
let compile_runner st spec nests =
  match nests with
  | [] -> noop_runner
  | _ -> (
    let vplan = Kb.compile_spec { spec with Kc.k_nests = nests } in
    st.dk_total_nests <- st.dk_total_nests + Kb.nest_count vplan;
    st.dk_vec_nests <- st.dk_vec_nests + Kb.vectorised_nests vplan;
    Kb.runner vplan)

(* One runner per (stage, rank) over all of the stage's localized
   nests: [Kb.run] runs them in program order over the whole local
   interior. *)
let stage_runner st kplan ~decomp ~ddims ~stage_idx ~rank =
  match Hashtbl.find_opt kplan.kp_runners (stage_idx, rank) with
  | Some r -> r
  | None ->
    let stage = List.nth kplan.kp_stages stage_idx in
    let nests =
      List.filter_map (localize_nest ~decomp ~ddims ~rank) stage.sg_nests
    in
    let r = compile_runner st kplan.kp_spec nests in
    Hashtbl.add kplan.kp_runners (stage_idx, rank) r;
    r

(* ------------------------------------------------------------------ *)
(* Coherence groups                                                    *)
(* ------------------------------------------------------------------ *)

(* Scattering copies the coherent global buffer, halo planes included,
   so immediately after a scatter every rank's halos mirror their
   owners: the field is fresh and the next superstep's exchange of it
   can be fused away. *)
let scatter g name gbuf =
  Obs.incr c_scatters;
  Dist_exec.set_field_from_global g.g_dx name gbuf;
  g.g_fresh <- SS.add name g.g_fresh

let global_of_dims dims =
  match dims with
  | [ d0; d1 ] -> (d0 - 2, d1 - 2, 1)
  | [ d0; d1; d2 ] -> (d0 - 2, d1 - 2, d2 - 2)
  | _ -> invalid_arg "Dist_kernel.global_of_dims"

(* Find or build the coherence group for a buffer shape. Building one
   creates the decomposition for this shape, which raises
   [Decomp.Invalid_decomp] when the grid cannot host [dk_ranks] ranks. *)
let group_for st dims =
  match List.find_opt (fun g -> g.g_dims = dims) st.dk_groups with
  | Some g -> g
  | None ->
    let field_rank = List.length dims in
    let decomp = Decomp.create ~global:(global_of_dims dims) ~ranks:st.dk_ranks in
    let dx =
      Dist_exec.create ?pool:st.dk_pool ~field_rank decomp ~fields:[]
        ~init:(fun _ _ -> 0.0)
    in
    let g =
      { g_dims = dims; g_dx = dx; g_planes = mirror_planes decomp;
        g_valid = true; g_bufs = [];
        g_fresh = SS.empty }
    in
    st.dk_groups <- g :: st.dk_groups;
    g

(* Make global buffer [gb] authoritative on the ranks before a call of
   [spec] on [bufs]. A buffer the kernel overwrites — passed once, never
   loaded, every cell stored by one covering nest — needs no scatter:
   its rank blocks are allocated unfilled and the kernel writes every
   owned and global-boundary cell. The inter-rank halo planes hold
   garbage until an exchange, so the field is not fresh; a covering
   write stales every mirrored plane anyway, so the exchange schedule is
   the one a scatter would have led to. Without mirrored planes (one
   rank) the kernel writes the whole block, as fresh as a scatter. *)
let place st g spec bufs name gb =
  let args =
    List.filter (fun i -> bufs.(i) == gb) (List.init (Array.length bufs) Fun.id)
  in
  match args with
  | [ i ] when Fp.overwrites spec ~buf:i ~dims:gb.Rt.dims ->
    st.dk_scatters_skipped <- st.dk_scatters_skipped + 1;
    Obs.incr c_scatters_skipped;
    Dist_exec.alloc_field g.g_dx name;
    if g.g_planes = ([], []) then
      g.g_fresh <- SS.add name g.g_fresh
  | _ -> scatter g name gb

let ensure_scattered st g spec bufs =
  if not g.g_valid then begin
    (* the host globals are authoritative after a fallback *)
    g.g_fresh <- SS.empty;
    List.iter (fun (name, gb) -> place st g spec bufs name gb) g.g_bufs;
    g.g_valid <- true
  end;
  Array.iter
    (fun b ->
      let name = field_name st b in
      if not (List.mem_assoc name g.g_bufs) then begin
        g.g_bufs <- (name, b) :: g.g_bufs;
        place st g spec bufs name b
      end)
    bufs

let gather_group g =
  if g.g_valid then begin
    Obs.add c_gathers (List.length g.g_bufs);
    Dist_exec.gather_fields g.g_dx g.g_bufs;
    g.g_valid <- false
  end

(* ------------------------------------------------------------------ *)
(* Execution protocol                                                  *)
(* ------------------------------------------------------------------ *)

(* Groups outlive runs, with their rank blocks, halo payloads and
   runner bindings: a re-run of the same program allocates none of
   them again. What a run must not inherit is coherence: no group is
   valid and no buffer placed until this run's first kernel on it, so
   every block is scattered (or handed unfilled to a kernel that
   overwrites it) before anything reads it, exactly as a fresh block
   would be. *)
let begin_run st =
  List.iter
    (fun g ->
      Dist_exec.reset g.g_dx;
      g.g_valid <- false;
      g.g_bufs <- [];
      g.g_fresh <- SS.empty)
    st.dk_groups;
  st.dk_ids <- [];
  st.dk_next_id <- 0

let sync_back st = List.iter gather_group st.dk_groups

let run_fallback st ~reason:_ f =
  st.dk_fallback_runs <- st.dk_fallback_runs + 1;
  Obs.incr c_fallbacks;
  sync_back st;
  f ()

let run_dist st g kplan ~bufs ~scalars =
  st.dk_dist_runs <- st.dk_dist_runs + 1;
  let dx = g.g_dx in
  let decomp = dx.Dist_exec.decomp in
  let ddims = decomposed_dims dx.Dist_exec.field_rank in
  let nranks = Decomp.nranks decomp in
  let names = Array.map (field_name st) bufs in
  let local_bufs =
    Array.init nranks (fun r ->
        Array.map (fun nm -> Dist_exec.field dx.Dist_exec.ranks.(r) nm) names)
  in
  let arg_names bis =
    List.filter_map
      (fun bi -> if bi < Array.length names then Some names.(bi) else None)
      bis
  in
  (* Build the whole invocation — every stage's superstep — as one phase
     list, executed by a single [Dist_exec.run_phases] call: under the
     barrier rendezvous the pool is launched once per kernel invocation,
     not once per phase. The freshness/fusion decisions below are purely
     schedule-level, so they are made here at build time. *)
  let phases =
    List.concat
      (List.mapi
         (fun stage_idx stage ->
           let swap_fields = arg_names stage.sg_swap in
           (* Superstep fusion: a swap field whose halos are already
              fresh — scattered or exchanged since last written — need
              not be exchanged again. When the whole swap set is fresh
              the stage pays no exchange at all (the fused superstep is
              a single compute phase). Dependence distances are within
              the one-cell halo by construction ([check_nest]), so
              freshness is exactly the remaining fusion condition. *)
           let stale =
             List.filter (fun n -> not (SS.mem n g.g_fresh)) swap_fields
           in
           if stale <> [] then
             st.dk_exchanged_stages <- st.dk_exchanged_stages + 1
           else if swap_fields <> [] then begin
             st.dk_fused_stages <- st.dk_fused_stages + 1;
             Obs.incr c_fused
           end;
           (* the exchange refreshes every swap field; the stage's
              writes then stale the written fields' halos — but only
              the writes whose footprint covers a mirrored plane.
              Stores are ownership-clipped to offset 0, so a write
              confined to non-mirrored planes (a global-boundary probe,
              an interior band short of any block edge) leaves every
              rank's halo mirroring its unchanged owner cells. *)
           let staling =
             List.filter
               (fun bi ->
                 match List.assoc_opt bi stage.sg_write_regions with
                 | None -> true
                 | Some region ->
                   write_stales ~ddims ~planes:g.g_planes region)
               stage.sg_writes
           in
           let avoided = List.length stage.sg_writes - List.length staling in
           if avoided > 0 then begin
             st.dk_stales_avoided <- st.dk_stales_avoided + avoided;
             Obs.add c_stales_avoided avoided
           end;
           let written = arg_names staling in
           g.g_fresh <- SS.union (SS.of_list swap_fields) g.g_fresh;
           g.g_fresh <- SS.diff g.g_fresh (SS.of_list written);
           (* compile every rank's runner up front, on the caller: the
              memo table is not thread-safe and the sweep callbacks run
              concurrently on pool workers *)
           let runners =
             Array.init nranks (fun rank ->
                 stage_runner st kplan ~decomp ~ddims ~stage_idx ~rank)
           in
           Dist_exec.superstep_phases dx ~swap_fields:stale
             ~sweep:(fun ~rank ->
               runners.(rank) ~bufs:local_bufs.(rank) ~scalars))
         kplan.kp_stages)
  in
  Dist_exec.run_phases dx phases

(* Execute one compiled kernel under the distributed target. [host] runs
   the kernel on the global buffers (the engine's normal serial path)
   and is used when the kernel does not distribute. *)
let run_kernel st ~name spec ~host ~bufs ~scalars =
  if Array.length bufs = 0 then host ()
  else
    let nd = Array.length bufs.(0).Rt.dims in
    if nd <> 2 && nd <> 3 then
      run_fallback st
        ~reason:(Printf.sprintf "%d-D buffers cannot be decomposed" nd)
        host
    else begin
      (* validates that all buffers share extents, as Kc.run would *)
      ignore (Kc.check_buffers bufs);
      let dims = Array.to_list bufs.(0).Rt.dims in
      let g = group_for st dims in
      match plan st spec ~field_rank:nd ~name with
      | Error reason -> run_fallback st ~reason host
      | Ok kplan ->
        ensure_scattered st g spec bufs;
        run_dist st g kplan ~bufs ~scalars
    end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type group_stats = {
  gs_dims : int list;
  gs_py : int;
  gs_pz : int;
  gs_msgs : int;
  gs_bytes : int;
}

type stats = {
  ds_ranks : int;
  ds_groups : group_stats list;
  ds_dist_runs : int; (* distributed kernel executions, cumulative *)
  ds_fallback_runs : int; (* host fallback runs, cumulative *)
  ds_exchanged_stages : int; (* supersteps that exchanged halos *)
  ds_fused_stages : int; (* supersteps whose exchange was fused away *)
  ds_stales_avoided : int; (* writes footprint-proven off mirrored planes *)
  ds_scatters_skipped : int; (* buffers the calling kernel overwrites *)
  ds_vec_nests : int; (* vectorised / total nests over compiled runners *)
  ds_total_nests : int;
}

let stats st =
  { ds_ranks = st.dk_ranks;
    ds_groups =
      List.rev_map
        (fun g ->
          let msgs, bytes = Dist_exec.stats g.g_dx in
          { gs_dims = g.g_dims; gs_py = g.g_dx.Dist_exec.decomp.Decomp.py;
            gs_pz = g.g_dx.Dist_exec.decomp.Decomp.pz; gs_msgs = msgs;
            gs_bytes = bytes })
        st.dk_groups;
    ds_dist_runs = st.dk_dist_runs; ds_fallback_runs = st.dk_fallback_runs;
    ds_exchanged_stages = st.dk_exchanged_stages;
    ds_fused_stages = st.dk_fused_stages;
    ds_stales_avoided = st.dk_stales_avoided;
    ds_scatters_skipped = st.dk_scatters_skipped;
    ds_vec_nests = st.dk_vec_nests; ds_total_nests = st.dk_total_nests }
