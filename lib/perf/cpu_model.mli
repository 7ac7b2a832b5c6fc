(** CPU roofline model for the three compiler pipelines of the paper's
    Figures 2–4.

    Each (pipeline, benchmark) pair is characterised by a compute
    efficiency (the fraction of peak core flops the generated code
    sustains — vectorisation quality, Cray's strength) and effective
    bytes moved per grid cell (fusion and streaming quality — the stencil
    pipeline's strength on PW advection, where merging the three loop
    nests cuts traffic in half). Throughput at [t] threads is
    [min(t * compute_rate, BW(t) / bytes_per_cell)] with [BW] from spread
    thread placement over the node's NUMA regions — which is exactly the
    mechanism that makes the fused stencil overtake hand-written OpenMP
    at 64 threads in Figure 4. *)

type pipeline =
  | Cray  (** the proprietary Cray Compilation Environment *)
  | Flang_only  (** FIR straight to LLVM-IR, no stencil optimisation *)
  | Stencil_opt  (** the paper's stencil pipeline *)

type benchmark =
  | Gauss_seidel  (** 7-point, 6 flops/cell, sweep + copy-back *)
  | Pw_advection  (** 63 flops/cell, 3 nests (fused by the stencil flow) *)

val benchmark_name : benchmark -> string
val flops_per_cell : benchmark -> float

(** Fraction of peak core flops sustained. *)
val efficiency : benchmark -> pipeline -> float

(** Effective DRAM bytes per grid cell. *)
val bytes_per_cell : benchmark -> pipeline -> float

(** Aggregate bandwidth at [t] threads (spread placement). *)
val bandwidth : Machine.cpu_node -> int -> float

(** Cells/s. *)
val throughput :
  ?node:Machine.cpu_node ->
  bench:benchmark ->
  pipe:pipeline ->
  threads:int ->
  unit ->
  float

(** MCells/s, the paper's reporting unit. *)
val mcells :
  ?node:Machine.cpu_node ->
  bench:benchmark ->
  pipe:pipeline ->
  threads:int ->
  unit ->
  float
