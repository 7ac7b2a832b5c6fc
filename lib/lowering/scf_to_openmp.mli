(** convert-scf-to-openmp: rewrites top-level [scf.parallel] loops into
    [omp.parallel { omp.wsloop }] — how the paper auto-parallelises
    unchanged serial Fortran for the Figure 3/4 experiments. *)

open Fsc_ir

(** Convert every top-level [scf.parallel]; returns how many. *)
val run : ?num_threads:int -> Op.op -> int
