(** Static bounds analysis: flag provably out-of-bounds array accesses.

    Compares the compile-time range of each subscript of a
    [fir.coordinate_of] (constant, or loop-variable plus offset over a
    constant-bounds loop) against the root array's static extents.
    Reports only {e provable} violations: the access must execute
    unconditionally (all ancestors are constant-bounds, non-empty
    [fir.do_loop]s) and the offending index range must be known. *)

open Fsc_ir

(** Constant [(lb, ub, step)] of a loop (inclusive [ub]), requiring
    [step >= 1]. *)
val const_bounds : Op.op -> (int * int * int) option

(** Inclusive value range of a loop induction variable with constant
    bounds. *)
val iv_range : Op.value -> (int * int) option

(** One error diagnostic (code ["bounds"]) per provably out-of-bounds
    (access, dimension) under the given op. *)
val check : Op.op -> Diag.t list
