(** Pass manager: named module passes with optional verification between
    passes and per-pass timing — the mini equivalent of mlir-opt's
    [--pass-pipeline] driver from the paper's Listing 4. Every pass run
    is also recorded as an [Fsc_obs.Obs] span (category "pass") when
    tracing is enabled. *)

type t = {
  name : string;  (** printed in pipelines, timings and errors *)
  run : Op.op -> unit;  (** transforms the module in place *)
}

val create : string -> (Op.op -> unit) -> t

type stats = {
  s_pass : string;
  s_seconds : float;  (** pass execution only *)
  s_verify_seconds : float;  (** post-pass verification, timed separately *)
  s_ops_before : int;  (** ops in the module before the pass *)
  s_ops_after : int;  (** ops in the module after the pass *)
}

(** Raised when a pass (or the post-pass verifier, suffixed
    [" (verify)"]) throws; carries the failing stage name, the original
    exception, and the stats recorded up to and including the failing
    pass. The original backtrace is preserved. *)
exception Pipeline_error of string * exn * stats list

(** Run the passes in order over module [m]. With [verify_each] (default
    true) the IR is verified after every pass — against [ctx]'s dialect
    registry when given, otherwise structurally only. Returns per-pass
    timings. *)
val run_pipeline :
  ?verify_each:bool -> ?ctx:Dialect.context -> t list -> Op.op -> stats list

