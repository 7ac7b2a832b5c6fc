(* CPU roofline model for the three compiler pipelines of Figures 2-4.

   Each (pipeline, benchmark) pair is characterised by
   - a compute efficiency: the fraction of peak core flops the generated
     code sustains (vectorisation quality — Cray's strength, Section 4.2);
   - effective bytes moved per grid cell (fusion and streaming quality —
     the stencil pipeline's strength on PW advection, where merging the
     three loop nests into one stencil region cuts traffic threefold).

   Throughput(t threads) = min(t * compute_rate, BW(t) / bytes_per_cell)
   with BW(t) from spread thread placement over NUMA regions. *)

type pipeline =
  | Cray
  | Flang_only
  | Stencil_opt

type benchmark =
  | Gauss_seidel (* 6 flops/cell, sweep + copy-back *)
  | Pw_advection (* 63 flops/cell, 3 nests (fused by the stencil flow) *)

let benchmark_name = function
  | Gauss_seidel -> "Gauss-Seidel"
  | Pw_advection -> "PW advection"

let flops_per_cell = function Gauss_seidel -> 6.0 | Pw_advection -> 63.0

(* compute efficiency (fraction of core peak) *)
let efficiency bench pipe =
  match (bench, pipe) with
  (* Cray: aggressive vectorisation (the paper profiled "considerably
     more vectorisation" than the stencil flow) *)
  | Gauss_seidel, Cray -> 0.50
  | Pw_advection, Cray -> 0.50
  (* Stencil: scf lowering + loop specialisation, partial vectorisation *)
  | Gauss_seidel, Stencil_opt -> 0.12
  | Pw_advection, Stencil_opt -> 0.15
  (* Flang alone: FIR straight to LLVM-IR, scalar code, redundant
     address computation *)
  | Gauss_seidel, Flang_only -> 0.020
  | Pw_advection, Flang_only -> 0.013

(* effective bytes per cell *)
let bytes_per_cell bench pipe =
  match (bench, pipe) with
  | Gauss_seidel, Cray -> 32.0 (* sweep + copy, well-streamed *)
  | Gauss_seidel, Stencil_opt -> 48.0
  | Gauss_seidel, Flang_only -> 80.0
  | Pw_advection, Cray -> 96.0 (* three unfused nests re-read u,v,w *)
  | Pw_advection, Stencil_opt -> 48.0 (* fused: one pass over memory *)
  | Pw_advection, Flang_only -> 160.0

(* Aggregate bandwidth at [t] threads with spread placement. *)
let bandwidth (node : Machine.cpu_node) t =
  let numa_used = min t node.Machine.numa_regions in
  Float.min
    (float_of_int t *. node.Machine.core_bw)
    (float_of_int numa_used *. node.Machine.numa_bw)

(* thread-management overhead of a parallel sweep (fork/join + barrier) *)
let parallel_overhead pipe t =
  if t <= 1 then 1.0
  else
    let base = match pipe with Flang_only -> 0.06 | _ -> 0.03 in
    1.0 +. (base *. Float.log2 (float_of_int t))

(* Cells/s at [threads] on [node]. *)
let throughput ?(node = Machine.archer2_node) ~bench ~pipe ~threads () =
  let compute_rate =
    node.Machine.core_flops *. efficiency bench pipe /. flops_per_cell bench
  in
  let t = float_of_int threads in
  let mem_rate = bandwidth node threads /. bytes_per_cell bench pipe in
  Float.min (t *. compute_rate) mem_rate /. parallel_overhead pipe threads

let mcells ?node ~bench ~pipe ~threads () =
  throughput ?node ~bench ~pipe ~threads () /. 1.0e6
