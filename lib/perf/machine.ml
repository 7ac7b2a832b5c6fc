(* Machine descriptions for the paper's two systems (Section 4.1).
   Numbers are public specifications plus calibrated effective rates; the
   models below only claim to reproduce the *shape* of the paper's
   figures (who wins, by what factor, where the crossovers are). *)

type cpu_node = {
  cn_name : string;
  cores : int;
  numa_regions : int;
  cores_per_numa : int;
  (* peak double-precision flop/s of one core *)
  core_flops : float;
  (* sustained memory bandwidth of one NUMA region (bytes/s) *)
  numa_bw : float;
  (* sustained single-core streaming bandwidth cap (bytes/s) *)
  core_bw : float;
}

(* ARCHER2: HPE Cray EX, dual AMD EPYC 7742 (Rome), 128 cores/node,
   8 NUMA regions of 16 cores. *)
let archer2_node =
  { cn_name = "ARCHER2 (2x AMD EPYC 7742)"; cores = 128; numa_regions = 8;
    cores_per_numa = 16;
    core_flops = 36.0e9 (* 2.25 GHz x 16 dp flops/cycle *);
    numa_bw = 48.0e9; core_bw = 15.0e9 }

(* Per-core cache hierarchy. Model data only: no compiler or engine
   reads it (the CPU engines run their nests untiled); the benchmark
   harness in perfbench/ still reports [host_cache]'s L2. *)
type cache_hierarchy = {
  ch_l1_kb : int;  (* per-core L1d *)
  ch_l2_kb : int;  (* per-core private L2 *)
  ch_l3_kb : int;  (* shared LLC slice *)
}

(* AMD EPYC 7742 (Rome): 32 KB L1d + 512 KB L2 per core, 16 MB L3 per
   CCX. *)
let archer2_cache = { ch_l1_kb = 32; ch_l2_kb = 512; ch_l3_kb = 16384 }

(* A model figure, not a probe of the running host: 512 KB private L2,
   the common denominator of current x86 server parts. *)
let host_cache = archer2_cache

type network = {
  nw_name : string;
  latency : float;       (* s per message *)
  bandwidth : float;     (* bytes/s per node (injection) *)
}

(* HPE Cray Slingshot: 2 x 100 Gbps bidirectional per node. *)
let slingshot = { nw_name = "Slingshot"; latency = 2.0e-6;
                  bandwidth = 25.0e9 }

(* Cirrus GPU node: V100 spec lives in Fsc_rt.Gpu_sim.v100. *)
let cirrus_gpu = Fsc_rt.Gpu_sim.v100
