(** Simulated GPU device (Nvidia V100-SXM2-16GB class, as on Cirrus).

    Kernels execute functionally on the host; the simulator maintains a
    distinct device memory space and an analytic clock so the three data
    management strategies of the paper's Figure 5 are priced differently:
    on-demand paging for [gpu.host_register] (the "initial" approach),
    explicit transfers for the bespoke data-placement pass (the
    "optimised" approach), and unified-memory stalls for the OpenACC
    baseline. *)

type spec = {
  name : string;
  peak_flops : float;  (** FP64 flop/s *)
  hbm_bw : float;  (** device memory bytes/s *)
  pcie_bw : float;  (** host<->device bytes/s *)
  pcie_latency : float;  (** s per transfer *)
  launch_latency : float;  (** s per kernel launch *)
  page_migration_bw : float;  (** bytes/s for on-demand paging *)
  unified_stall : float;  (** extra s per launch under unified memory *)
  max_threads_per_block : int;
  device_mem_bytes : int;
}

(** The Tesla V100-SXM2-16GB of the paper's Cirrus system. *)
val v100 : spec

(** Raised on device-limit violations (oversized blocks — the paper's
    tile-size runtime failures — or out-of-memory) and on launches that
    access non-resident data under the explicit strategy. *)
exception Launch_failure of string

type residency =
  | Host_registered
  | Device_resident

type dev_buffer = {
  db_host : Memref_rt.t;
  db_device : Memref_rt.t;  (** the device twin (own storage) *)
  mutable db_residency : residency;
}

type t = {
  spec : spec;
  buffers : (int, dev_buffer) Hashtbl.t;
  mutable clock : float;  (** simulated seconds *)
  mutable kernels_launched : int;
  mutable bytes_h2d : int;
  mutable bytes_d2h : int;
  mutable bytes_paged : int;
  mutable allocated_bytes : int;
}

val create : ?spec:spec -> unit -> t

(** Advance the simulated clock. *)
val charge : t -> float -> unit

val copy_time : t -> int -> float

(** {2 Memory management} *)

(** [gpu.host_register]: visible to the device, pages on demand. *)
val host_register : t -> Memref_rt.t -> unit

(** [gpu.alloc]: explicit device residency. *)
val alloc : t -> Memref_rt.t -> unit

(** Drop the device twin of a host buffer, if any, and release the
    twin's storage to the arena ({!Memref_rt.release}). *)
val dealloc : t -> Memref_rt.t -> unit

val memcpy_h2d : t -> Memref_rt.t -> unit
val memcpy_d2h : t -> Memref_rt.t -> unit

(** The buffer a kernel must actually read/write for a host buffer. *)
val kernel_view : t -> Memref_rt.t -> Memref_rt.t

(** {2 Kernel launches} *)

type data_strategy =
  | Strategy_host_register  (** page everything, every launch *)
  | Strategy_device_resident  (** data must already be on the device *)
  | Strategy_unified  (** OpenACC managed memory: first-touch + stalls *)

(** Charge one launch over [buffers] doing [flops] floating point
    operations and [bytes_accessed] bytes of device traffic, then run
    [body] (which must operate on {!kernel_view} buffers) between the
    strategy's page-in and page-out phases.
    @raise Launch_failure per {!exception-Launch_failure}. *)
val launch :
  t ->
  strategy:data_strategy ->
  block_threads:int ->
  flops:float ->
  bytes_accessed:float ->
  body:(unit -> unit) ->
  Memref_rt.t list ->
  unit

(** Copy every device-resident buffer back to its host mirror. *)
val sync_all_d2h : t -> unit

type stats = {
  s_clock : float;
  s_kernels : int;
  s_bytes_h2d : int;
  s_bytes_d2h : int;
  s_bytes_paged : int;
}

val stats : t -> stats
