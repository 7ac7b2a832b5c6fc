(** Observability substrate: spans, monotonic counters, and Chrome
    trace-event export.

    Recording is safe from any domain (pool workers record chunk
    counters concurrently with the caller). When disabled (the default)
    every probe is near-free, so hot loops stay instrumented
    unconditionally. A span survives exceptions: a failing pass still
    leaves its span in the trace, tagged with the error. *)

(** Minimal JSON values: enough to round-trip our own output and any
    reasonable trace-sized document. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (** Compact text; integral numbers below 1e15 print without a
      fraction, others with [%.6g]. *)
  val to_string : t -> string

  exception Parse_error of string

  (** @raise Parse_error with the offending position. *)
  val of_string : string -> t

  (** The value of [key] in an object; [None] on other values. *)
  val member : string -> t -> t option
end

type arg =
  | A_int of int
  | A_float of float
  | A_str of string

(** A completed span. *)
type event = {
  e_name : string;
  e_cat : string;
  e_tid : int;  (** domain id that recorded the span *)
  e_start : float;  (** seconds since {!epoch} *)
  e_dur : float;  (** seconds *)
  e_args : (string * arg) list;
}

(** Wall-clock time ([Unix.gettimeofday]) that span starts are relative
    to; {!reset} moves it to now. *)
val epoch : float ref

(** Whether spans are recorded (and counters accumulate). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Accumulate counters without recording spans, for a long-running
    server whose metrics dumps read the counters while span events
    would grow without bound. *)
val set_counters_only : bool -> unit

(** Drop every recorded span, zero every counter (handles stay valid)
    and restart the {!epoch}. *)
val reset : unit -> unit

(** {1 Spans} *)

type span

(** Start a span; a span begun while recording is off records
    nothing. *)
val span_begin : ?cat:string -> string -> span

val span_end : ?args:(string * arg) list -> span -> unit

(** Run [f] under a span. The span is recorded even when [f] raises —
    tagged with the exception — and the exception propagates with its
    original backtrace. With [~alloc:true] a recorded span also carries
    a [minor_words] argument: the words [f] allocated on the minor heap
    of the calling domain. *)
val with_span :
  ?cat:string ->
  ?args:(string * arg) list ->
  ?alloc:bool ->
  string ->
  (unit -> 'a) ->
  'a

(** {1 Counters} *)

type counter

(** The counter of that name, interned: every call with one name shares
    one cell. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

(** Every counter that accumulated anything, sorted by name. *)
val counter_totals : unit -> (string * int) list

(** {1 Inspection and export} *)

(** Recorded events in completion order (a nested span completes before
    its parent, so children precede parents). *)
val events : unit -> event list

val events_with_cat : string -> event list

(** Spans aggregated by name, in order of first completion:
    [(name, count, total seconds)]. *)
val span_summary : ?cat:string -> unit -> (string * int * float) list

(** Chrome trace-event format (the JSON object flavour): spans become
    ["X"] complete events, counters one final ["C"] event each. Load the
    file in chrome://tracing or https://ui.perfetto.dev. *)
val trace_json : unit -> Json.t

(** Write {!trace_json} to a file. *)
val write_trace : string -> unit

(** Human-readable summary of everything recorded, for [--stats]. *)
val report : unit -> string
