(* Simulated GPU device (Nvidia V100-SXM2-16GB class, as on Cirrus).

   Kernels execute functionally on the host; the simulator maintains a
   distinct device memory space and an analytic clock so the three data
   management strategies of the paper's Figure 5 are priced differently:

   - gpu.host_register (the "initial" approach): data stays host-resident
     and every kernel launch pays on-demand page migration over PCIe for
     all bytes the kernel touches — no caching between launches, which is
     what the paper observed;
   - explicit gpu.alloc + gpu.memcpy (the "optimised" bespoke pass):
     transfers appear only where the data placement pass put them;
   - OpenACC-with-unified-memory (the Nvidia baseline): first-touch
     migration plus a per-launch stall overhead, cheaper than
     host_register but not free.

   Timing: t_kernel = launch_latency + max(flops/peak, bytes/hbm_bw),
   t_copy = pcie_latency + bytes/pcie_bw. *)

type spec = {
  name : string;
  peak_flops : float;       (* FP64 flop/s *)
  hbm_bw : float;           (* device memory bytes/s *)
  pcie_bw : float;          (* host<->device bytes/s *)
  pcie_latency : float;     (* s per transfer *)
  launch_latency : float;   (* s per kernel launch *)
  page_migration_bw : float;(* bytes/s for on-demand paging *)
  unified_stall : float;    (* extra s per launch under unified memory *)
  max_threads_per_block : int;
  device_mem_bytes : int;
}

let v100 =
  { name = "Nvidia V100-SXM2-16GB";
    peak_flops = 7.8e12;
    hbm_bw = 900e9;
    pcie_bw = 12e9;
    pcie_latency = 10e-6;
    launch_latency = 8e-6;
    page_migration_bw = 2.0e9;  (* on-demand paging is far below PCIe peak *)
    unified_stall = 60e-6;
    max_threads_per_block = 1024;
    device_mem_bytes = 16 * 1024 * 1024 * 1024 }

exception Launch_failure of string

type residency =
  | Host_registered (* pages migrate on every launch *)
  | Device_resident (* lives in device memory *)

type dev_buffer = {
  db_host : Memref_rt.t;           (* host mirror *)
  db_device : Memref_rt.t;         (* device copy (own storage) *)
  mutable db_residency : residency;
}

type t = {
  spec : spec;
  buffers : (int, dev_buffer) Hashtbl.t; (* keyed by host buf_id *)
  mutable clock : float;        (* simulated seconds *)
  mutable kernels_launched : int;
  mutable bytes_h2d : int;
  mutable bytes_d2h : int;
  mutable bytes_paged : int;
  mutable allocated_bytes : int;
}

let create ?(spec = v100) () =
  { spec; buffers = Hashtbl.create 16; clock = 0.0; kernels_launched = 0;
    bytes_h2d = 0; bytes_d2h = 0; bytes_paged = 0; allocated_bytes = 0 }

let charge t seconds = t.clock <- t.clock +. seconds

let copy_time t bytes =
  t.spec.pcie_latency +. (float_of_int bytes /. t.spec.pcie_bw)

let page_time t bytes =
  float_of_int bytes /. t.spec.page_migration_bw

(* ---- memory management ---- *)

let device_buffer t host =
  match Hashtbl.find_opt t.buffers host.Memref_rt.buf_id with
  | Some db -> db
  | None ->
    let bytes = Memref_rt.bytes host in
    if t.allocated_bytes + bytes > t.spec.device_mem_bytes then
      raise (Launch_failure "device out of memory");
    t.allocated_bytes <- t.allocated_bytes + bytes;
    let db =
      { db_host = host;
        db_device = Memref_rt.clone host;
        db_residency = Host_registered }
    in
    Hashtbl.replace t.buffers host.Memref_rt.buf_id db;
    db

(* gpu.host_register: make the host buffer visible to the device without
   an explicit copy — accesses will page on demand. *)
let host_register t host =
  let db = device_buffer t host in
  db.db_residency <- Host_registered

(* gpu.alloc: explicit device allocation for this host buffer. *)
let alloc t host =
  let db = device_buffer t host in
  db.db_residency <- Device_resident;
  charge t 1e-6

(* gpu.dealloc: forget the host buffer's twin and hand the twin's
   storage back to the arena — only this table ever held it. *)
let dealloc t host =
  match Hashtbl.find_opt t.buffers host.Memref_rt.buf_id with
  | Some db ->
    Hashtbl.remove t.buffers host.Memref_rt.buf_id;
    Memref_rt.release db.db_device;
    t.allocated_bytes <- t.allocated_bytes - Memref_rt.bytes host
  | None -> ()

(* gpu.memcpy host -> device *)
let memcpy_h2d t host =
  let db = device_buffer t host in
  Memref_rt.copy_into ~src:db.db_host ~dst:db.db_device;
  let bytes = Memref_rt.bytes host in
  t.bytes_h2d <- t.bytes_h2d + bytes;
  charge t (copy_time t bytes)

let memcpy_d2h t host =
  let db = device_buffer t host in
  Memref_rt.copy_into ~src:db.db_device ~dst:db.db_host;
  let bytes = Memref_rt.bytes host in
  t.bytes_d2h <- t.bytes_d2h + bytes;
  charge t (copy_time t bytes)

(* The buffer a kernel should actually read/write for a host buffer. *)
let kernel_view t host =
  let db = device_buffer t host in
  db.db_device

(* ---- kernel launch accounting ---- *)

type data_strategy =
  | Strategy_host_register
  | Strategy_device_resident
  | Strategy_unified (* the OpenACC baseline *)

(* Charge one kernel launch touching [buffers], doing [flops] floating
   point operations and [bytes_accessed] bytes of device traffic, then
   execute [body] (which must operate on kernel_view buffers) between the
   page-in and page-out phases of the data strategy. *)
let launch t ~strategy ~block_threads ~flops ~bytes_accessed ~body buffers =
  if block_threads > t.spec.max_threads_per_block then
    raise
      (Launch_failure
         (Printf.sprintf "block of %d threads exceeds device limit %d"
            block_threads t.spec.max_threads_per_block));
  t.kernels_launched <- t.kernels_launched + 1;
  charge t t.spec.launch_latency;
  (match strategy with
  | Strategy_host_register ->
    (* every page the kernel touches migrates, both directions, every
       launch: this is the pathology of Figure 5's initial approach *)
    List.iter
      (fun host ->
        let db = device_buffer t host in
        Memref_rt.copy_into ~src:db.db_host ~dst:db.db_device;
        let bytes = Memref_rt.bytes host in
        t.bytes_paged <- t.bytes_paged + bytes;
        charge t (page_time t bytes))
      buffers
  | Strategy_unified ->
    charge t t.spec.unified_stall;
    List.iter
      (fun host ->
        let db = device_buffer t host in
        if db.db_residency = Host_registered then begin
          (* first touch migrates at PCIe speed, then stays resident *)
          Memref_rt.copy_into ~src:db.db_host ~dst:db.db_device;
          db.db_residency <- Device_resident;
          let bytes = Memref_rt.bytes host in
          t.bytes_h2d <- t.bytes_h2d + bytes;
          charge t (copy_time t bytes)
        end)
      buffers
  | Strategy_device_resident ->
    List.iter
      (fun host ->
        let db = device_buffer t host in
        if db.db_residency <> Device_resident then
          raise
            (Launch_failure
               "kernel accesses buffer not resident on the device"))
      buffers);
  (* compute time: roofline of flops vs memory traffic *)
  let t_compute = flops /. t.spec.peak_flops in
  let t_memory = bytes_accessed /. t.spec.hbm_bw in
  charge t (Float.max t_compute t_memory);
  body ();
  (match strategy with
  | Strategy_host_register ->
    (* written pages migrate back *)
    List.iter
      (fun host ->
        let db = device_buffer t host in
        Memref_rt.copy_into ~src:db.db_device ~dst:db.db_host;
        let bytes = Memref_rt.bytes host in
        t.bytes_paged <- t.bytes_paged + bytes;
        charge t (page_time t bytes))
      buffers
  | Strategy_unified | Strategy_device_resident -> ())

(* Synchronise all device buffers back to their host mirrors (end of a
   unified/managed region). *)
let sync_all_d2h t =
  Hashtbl.iter
    (fun _ db ->
      if db.db_residency = Device_resident then begin
        Memref_rt.copy_into ~src:db.db_device ~dst:db.db_host;
        let bytes = Memref_rt.bytes db.db_host in
        t.bytes_d2h <- t.bytes_d2h + bytes;
        charge t (copy_time t bytes)
      end)
    t.buffers

type stats = {
  s_clock : float;
  s_kernels : int;
  s_bytes_h2d : int;
  s_bytes_d2h : int;
  s_bytes_paged : int;
}

let stats t =
  { s_clock = t.clock; s_kernels = t.kernels_launched;
    s_bytes_h2d = t.bytes_h2d; s_bytes_d2h = t.bytes_d2h;
    s_bytes_paged = t.bytes_paged }
