(** Distributed-memory scaling model for the paper's Figure 6:
    Gauss-Seidel over a 2-D decomposition on ARCHER2 (128 ranks/node,
    Slingshot).

    Per iteration and rank: T = T_compute + T_comm + T_sync. The hand
    version overlaps its halo messages and computes at the Cray
    pipeline's rate; the auto DMP/MPI version posts its four messages
    back-to-back with per-swap bookkeeping and computes at the stencil
    pipeline's rate — the two reasons the paper gives for the hand
    version winning and scaling better. *)

type variant =
  | Hand_cray
  | Auto_dmp

(** {2 Future work (paper §6, fifth item): multinode GPU}

    Combines the DMP decomposition with per-node GPU kernels: one rank
    per GPU, halos staged over PCIe unless [gc_gpudirect] models an
    NVLink/GPUDirect-class path. *)

type gpu_cluster = {
  gc_gpu : Fsc_rt.Gpu_sim.spec;
  gc_net : Machine.network;
  gc_gpudirect : bool;
}

val default_gpu_cluster : gpu_cluster

val multinode_gpu_mcells :
  ?cluster:gpu_cluster ->
  global:int * int * int ->
  gpus:int ->
  bytes_per_cell:float ->
  flops_per_cell:float ->
  unit ->
  float

val iteration_time :
  ?node:Machine.cpu_node ->
  ?net:Machine.network ->
  variant:variant ->
  global:int * int * int ->
  ranks:int ->
  unit ->
  float

(** Global throughput in cells/s. *)
val throughput :
  ?node:Machine.cpu_node ->
  ?net:Machine.network ->
  variant:variant ->
  global:int * int * int ->
  ranks:int ->
  unit ->
  float

val mcells :
  ?node:Machine.cpu_node ->
  ?net:Machine.network ->
  variant:variant ->
  global:int * int * int ->
  ranks:int ->
  unit ->
  float
