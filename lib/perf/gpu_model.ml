(* V100 timing model for Figure 5: one iteration = kernel roofline plus
   the cost of the data management strategy. All three series execute the
   same cell computation; the entire story is data movement:

   - Stencil (initial): gpu.host_register pages every touched byte across
     PCIe on every launch, with no inter-launch caching (Section 4.3);
   - Stencil (optimised): the bespoke data placement pass keeps arrays
     device-resident, paying PCIe once at start/end;
   - OpenACC + Nvidia: unified memory — resident after first touch but
     with managed-memory stalls that throttle effective bandwidth,
     noticeably for the many-array PW advection kernel. *)

type strategy =
  | Openacc_nvidia
  | Stencil_initial
  | Stencil_optimised

(* effective device bandwidth under managed memory stalls *)
let unified_effective_bw (spec : Fsc_rt.Gpu_sim.spec) ~arrays =
  (* stalls scale with the number of distinct managed arrays the kernel
     streams (TLB/fault pressure): GS (2 arrays) barely notices, PW
     (6 arrays) suffers badly — matching the paper's profiling *)
  let penalty = 1.0 +. (3.5 *. float_of_int (max 0 (arrays - 2))) in
  spec.Fsc_rt.Gpu_sim.hbm_bw /. penalty

(* seconds for one kernel launch over [cells] cells *)
let iteration_time ?(spec = Fsc_rt.Gpu_sim.v100) ~strategy ~cells
    ~flops_per_cell ~bytes_per_cell ~arrays ~array_bytes () =
  let open Fsc_rt.Gpu_sim in
  let kernel bw =
    spec.launch_latency
    +. Float.max
         (cells *. flops_per_cell /. spec.peak_flops)
         (cells *. bytes_per_cell /. bw)
  in
  match strategy with
  | Stencil_optimised -> kernel spec.hbm_bw
  | Stencil_initial ->
    (* all arrays page in and out every single launch *)
    kernel spec.hbm_bw
    +. (2.0 *. array_bytes /. spec.page_migration_bw)
    +. (2.0 *. float_of_int arrays *. spec.pcie_latency)
  | Openacc_nvidia ->
    spec.unified_stall +. kernel (unified_effective_bw spec ~arrays)

(* One-time transfer cost amortised over the run (optimised approach). *)
let total_time ?spec ~strategy ~cells ~flops_per_cell ~bytes_per_cell
    ~arrays ~array_bytes ~iters () =
  let s = match spec with Some s -> s | None -> Fsc_rt.Gpu_sim.v100 in
  let per_iter =
    iteration_time ~spec:s ~strategy ~cells ~flops_per_cell ~bytes_per_cell
      ~arrays ~array_bytes ()
  in
  let edge =
    match strategy with
    | Stencil_optimised | Openacc_nvidia ->
      2.0 *. array_bytes /. s.Fsc_rt.Gpu_sim.pcie_bw
    | Stencil_initial -> 0.0
  in
  (float_of_int iters *. per_iter) +. edge

let mcells ?spec ~strategy ~cells ~flops_per_cell ~bytes_per_cell ~arrays
    ~array_bytes ~iters () =
  let t =
    total_time ?spec ~strategy ~cells ~flops_per_cell ~bytes_per_cell
      ~arrays ~array_bytes ~iters ()
  in
  cells *. float_of_int iters /. t /. 1.0e6
