(** The [sfc check] engine: run the dependence/race and bounds analyses
    over a module — or straight from Fortran source — without
    compiling, and produce diagnostics plus a per-nest
    parallelisability summary. *)

open Fsc_ir

type nest_summary = {
  ns_parallel : int;
  ns_carried : int;
  ns_unknown : int;
}

(** Computed affine footprint of one statement nest, per field name:
    the joined read/write regions of every access in the nest's scope.
    Dumped by [sfc check --footprints]. *)
type nest_footprint = {
  fp_loc : Diag.srcloc option;
  fp_reads : (string * Footprint.region) list;
  fp_writes : (string * Footprint.region) list;
}

type result = {
  r_diags : Diag.t list;
  r_summary : nest_summary;
      (** one entry per distinct loop-nest scope (outermost applicable
          loop) *)
  r_footprints : nest_footprint list;
      (** one entry per statement nest, in program order *)
}

val empty_summary : nest_summary

(** Frontend (lex/parse/sema/lowering) failures as located ["frontend"]
    diagnostics; [None] for unrelated exceptions. *)
val diag_of_frontend_exn : exn -> Diag.t option

(** Lower Fortran source and {!check_module} it. [Error] carries the
    frontend diagnostic when the source does not lower. *)
val check_source : string -> (Op.op * result, Diag.t) Result.t

val summary_to_string : nest_summary -> string
