(* Distributed-memory scaling model for Figure 6: Gauss-Seidel over a 2-D
   decomposition on ARCHER2 (128 ranks per node, Slingshot network).

   Per iteration and rank:  T = T_compute + T_comm + T_sync
   - hand-parallelised (Cray): overlapped sends (cost = max over
     directions), tight per-iteration synchronisation;
   - auto DMP/MPI (stencil): the xDSL dialects post the four halo
     messages back-to-back without overlap and add a per-swap bookkeeping
     cost, and the baseline compute rate is the stencil pipeline's —
     matching the paper's two reasons why the hand version wins. *)

type variant =
  | Hand_cray
  | Auto_dmp

(* effective network share per rank: ranks on a node share injection
   bandwidth *)
let rank_bandwidth (net : Machine.network) ~ranks_per_node =
  net.Machine.bandwidth /. float_of_int (max 1 ranks_per_node)

let iteration_time ?(node = Machine.archer2_node)
    ?(net = Machine.slingshot) ~variant ~global ~ranks () =
  let nx, ny, nz = global in
  let d = Fsc_dmp.Decomp.create ~global ~ranks in
  ignore (nx, ny, nz);
  (* worst-case (interior) rank *)
  let lx, ly, lz = Fsc_dmp.Decomp.local_extents d 0 in
  let local_cells = float_of_int (lx * ly * lz) in
  let pipe =
    match variant with
    | Hand_cray -> Cpu_model.Cray
    | Auto_dmp -> Cpu_model.Stencil_opt
  in
  (* each rank is one core; a full node's worth of ranks shares the
     node's bandwidth, so per-rank throughput is the 128-thread value
     divided by 128 *)
  let node_rate =
    Cpu_model.throughput ~node ~bench:Cpu_model.Gauss_seidel ~pipe
      ~threads:node.Machine.cores ()
  in
  let per_rank_rate = node_rate /. float_of_int node.Machine.cores in
  let t_compute = local_cells /. per_rank_rate in
  (* halo messages: two dims, two directions *)
  let bw = rank_bandwidth net ~ranks_per_node:node.Machine.cores in
  let msg_bytes_y = float_of_int (8 * (lx + 2) * (lz + 2)) in
  let msg_bytes_z = float_of_int (8 * (lx + 2) * (ly + 2)) in
  let msg t_bytes = net.Machine.latency +. (t_bytes /. bw) in
  let t_comm =
    match variant with
    | Hand_cray ->
      (* overlapped isend/irecv: pay the largest direction plus one
         synchronisation latency *)
      Float.max (msg msg_bytes_y) (msg msg_bytes_z) +. net.Machine.latency
    | Auto_dmp ->
      (* four serialized blocking exchanges + per-swap dialect overhead *)
      (2.0 *. msg msg_bytes_y) +. (2.0 *. msg msg_bytes_z)
      +. (4.0 *. 6.0e-6)
  in
  (* per-iteration global synchronisation grows with log(ranks) *)
  let sync_base =
    match variant with Hand_cray -> 1.5e-6 | Auto_dmp -> 4.0e-6
  in
  let t_sync = sync_base *. Float.log2 (float_of_int (max 2 ranks)) in
  t_compute +. t_comm +. t_sync

(* ------------------------------------------------------------------ *)
(* Future work (paper Section 6, fifth item): multinode GPU execution,
   combining the DMP distributed decomposition with per-node GPU
   kernels, optionally over NVLink-class interconnect. One rank per GPU;
   halos move device -> host -> network -> host -> device unless
   GPUDirect-style transfer is enabled. *)

type gpu_cluster = {
  gc_gpu : Fsc_rt.Gpu_sim.spec;
  gc_net : Machine.network;
  gc_gpudirect : bool; (* skip the host staging copies *)
}

let default_gpu_cluster =
  { gc_gpu = Fsc_rt.Gpu_sim.v100; gc_net = Machine.slingshot;
    gc_gpudirect = false }

let multinode_gpu_iteration_time ?(cluster = default_gpu_cluster) ~global
    ~gpus ~bytes_per_cell ~flops_per_cell () =
  let open Fsc_rt.Gpu_sim in
  let d = Fsc_dmp.Decomp.create ~global ~ranks:gpus in
  let lx, ly, lz = Fsc_dmp.Decomp.local_extents d 0 in
  let local_cells = float_of_int (lx * ly * lz) in
  let spec = cluster.gc_gpu in
  let t_kernel =
    spec.launch_latency
    +. Float.max
         (local_cells *. flops_per_cell /. spec.peak_flops)
         (local_cells *. bytes_per_cell /. spec.hbm_bw)
  in
  let halo_bytes = float_of_int (Fsc_dmp.Decomp.halo_bytes d 0) in
  let t_net =
    cluster.gc_net.Machine.latency
    +. (halo_bytes /. cluster.gc_net.Machine.bandwidth)
  in
  let t_staging =
    if cluster.gc_gpudirect then 0.0
    else 2.0 *. (spec.pcie_latency +. (halo_bytes /. spec.pcie_bw))
  in
  t_kernel +. t_net +. t_staging

let multinode_gpu_mcells ?cluster ~global ~gpus ~bytes_per_cell
    ~flops_per_cell () =
  let nx, ny, nz = global in
  let cells = float_of_int nx *. float_of_int ny *. float_of_int nz in
  cells
  /. multinode_gpu_iteration_time ?cluster ~global ~gpus ~bytes_per_cell
       ~flops_per_cell ()
  /. 1.0e6

(* Global throughput in cells/s. *)
let throughput ?node ?net ~variant ~global ~ranks () =
  let nx, ny, nz = global in
  let cells = float_of_int nx *. float_of_int ny *. float_of_int nz in
  cells /. iteration_time ?node ?net ~variant ~global ~ranks ()

let mcells ?node ?net ~variant ~global ~ranks () =
  throughput ?node ?net ~variant ~global ~ranks () /. 1.0e6
