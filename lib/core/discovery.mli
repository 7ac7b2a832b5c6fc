(** Stencil discovery — the paper's central transformation (Listing 3).

    Operating on the FIR produced by the frontend, the pass finds
    [fir.store] operations whose address is indexed by enclosing DO
    loops, analyses the right-hand side to find the neighbouring-cell
    reads, and replaces the loop nest with stencil dialect operations
    ([stencil.external_load] / [load] / [apply] / [store]) inserted
    directly before the outermost applicable loop. Loops whose bodies
    become empty are removed; stencil shape inference then assigns
    bounds.

    A store candidate is rejected — left completely untouched — when:
    - its address is not a [fir.coordinate_of] with per-dimension indices
      of the form induction-variable + constant (all variables distinct);
    - the loop nest bounds/step are not compile-time constants (step 1);
    - a right-hand-side array read uses a different induction variable
      for some dimension (e.g. a transposed access);
    - the expression tree contains an operation with no standard-dialect
      equivalent, or reads a scalar that is written inside the nest;
    - the {!Fsc_analysis.Dependence} oracle finds (or cannot rule out) a
      loop-carried dependence involving the candidate's store or reads —
      in-place Gauss-Seidel sweeps, imperfect nests whose inner loop
      rewrites the same elements, and cross-statement races.

    Every rejection is recorded as a structured
    {!Fsc_analysis.Diag.t} with the store's source location, consumed by
    [sfc check]. *)

open Fsc_ir

(** Raised internally when a candidate store is rejected; the message is
    recorded in {!stats}. *)
exception Reject of string

(** Like {!Reject} but carrying a fully-formed diagnostic (race
    rejections come with the conflicting access's location as a note). *)
exception Reject_diag of string * Fsc_analysis.Diag.t

type reject = {
  rej_store : string;  (** debug description of the store op *)
  rej_reason : string;
  rej_diag : Fsc_analysis.Diag.t;
      (** structured diagnostic with source location *)
}

type stats = {
  mutable found : int;  (** stencils generated *)
  mutable rejected : reject list;
      (** every candidate the pass declined — consumed by [sfc check]
          and tests *)
}

(** Run discovery over every [func.func] in the module. Returns the
    statistics; the module is rewritten in place. *)
val run : ?log_rejects:bool -> Op.op -> stats
