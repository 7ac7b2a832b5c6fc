(** Lowering of the stencil dialect to scf loops over memrefs — the xDSL
    "stencil lowering" box of the paper's Figure 1. One source, two modes
    (Section 3): for CPU the outermost loop becomes [scf.parallel] and
    inner loops [scf.for]; for GPU the whole iteration space is coalesced
    into a single multi-dimensional [scf.parallel] ready for block/thread
    mapping. Dimension 0 (the Fortran-contiguous one) always ends up
    fastest-varying. *)

open Fsc_ir

type mode =
  | Cpu
  | Gpu

(** Lower every [stencil.apply] (plus its stores and plumbing) in every
    function of the module, in place. *)
val run : mode:mode -> Op.op -> unit
