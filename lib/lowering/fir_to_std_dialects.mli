(** FIR -> standard dialects: the paper's fourth further-work item,
    implemented.

    Translates a FIR module into scf/memref/arith/math/func: allocations
    become memrefs (scalars as [memref<1xT>]), the heap pointer cell is
    store-forwarded away, [fir.coordinate_of]+load/store fuse into memref
    accesses, [fir.do_loop]/[fir.if] become scf, [fir.convert] becomes
    arith casts (reference-to-pointer conversions at kernel-call
    boundaries become [builtin.unrealized_conversion_cast]). [fir.print]
    is kept (no standard I/O equivalent). Functions using constructs
    outside this set are copied unchanged and reported. *)

open Fsc_ir

exception Unsupported of string

type result = {
  lowered : Op.op;  (** a fresh module *)
  skipped : (string * string) list;  (** (function, reason) *)
}

(** Translate every function of the module into a fresh module. *)
val run : Op.op -> result
