(** V100 timing model for the paper's Figure 5: one iteration = kernel
    roofline plus the cost of the data-management strategy. All three
    series run the same computation; the entire story is data movement. *)

type strategy =
  | Openacc_nvidia  (** unified memory: resident after first touch, but
                        managed-memory stalls throttle effective
                        bandwidth — badly for many-array kernels *)
  | Stencil_initial  (** [gpu.host_register]: pages every byte over PCIe
                         on every launch, no inter-launch caching *)
  | Stencil_optimised  (** the bespoke data-placement pass: one transfer
                           each way, device-resident in between *)

(** Seconds for one kernel launch. *)
val iteration_time :
  ?spec:Fsc_rt.Gpu_sim.spec ->
  strategy:strategy ->
  cells:float ->
  flops_per_cell:float ->
  bytes_per_cell:float ->
  arrays:int ->
  array_bytes:float ->
  unit ->
  float

val mcells :
  ?spec:Fsc_rt.Gpu_sim.spec ->
  strategy:strategy ->
  cells:float ->
  flops_per_cell:float ->
  bytes_per_cell:float ->
  arrays:int ->
  array_bytes:float ->
  iters:int ->
  unit ->
  float
