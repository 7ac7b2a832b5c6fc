(** Stencil merging (Listing 3, line 29): adjacent [stencil.apply]
    operations that share lower and upper bounds are fused into a single
    apply with the union of inputs and the concatenation of results.
    This is what turns the PW advection benchmark's three loop nests into
    one stencil region, saving two full passes over memory per iteration.

    Safety: apply B is fused into apply A only when B does not read any
    array that A writes (via [stencil.store]), and everything between
    them in the block is pure plumbing. *)

open Fsc_ir

(** Merge until fixpoint within every block of the module; returns the
    number of fusions performed. *)
val run : Op.op -> int
