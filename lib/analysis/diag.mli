(** Compiler diagnostics: severities, source locations, text and JSON
    renderers.

    Every analysis in this library — and the discovery pass in
    [Fsc_core] — reports findings as {!t} values so that [sfc check],
    pipeline error paths and tests share one user-facing format:

    {v file:line:col: warning[race]: message v}

    Locations come from the Fortran frontend: the lexer/parser record
    line:col, the lowering attaches them to FIR ops as [Attr.Loc_a]
    ["loc"] attributes, and {!loc_of_op} reads them back. *)

open Fsc_ir

type severity = Error | Warning | Note

type srcloc = { l_line : int; l_col : int }

type t = {
  d_severity : severity;
  d_code : string;
      (** short machine-readable slug: ["race"], ["bounds"],
          ["stencil-reject"], ["frontend"], ["verify"], ["pipeline"] *)
  d_loc : srcloc option;
  d_message : string;
  d_notes : (srcloc option * string) list;
      (** secondary locations, e.g. the conflicting read of a race *)
}

val loc : int -> int -> srcloc

(** Location of an op's ["loc"] attribute, when the frontend threaded
    one. *)
val loc_of_op : Op.op -> srcloc option

val make :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  severity ->
  code:string ->
  string ->
  t

val error :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  string ->
  t

val warning :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  string ->
  t

val note :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  string ->
  t

val errorf :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val warningf :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val notef :
  ?loc:srcloc ->
  ?notes:(srcloc option * string) list ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

(** [render ?file d] is the human-readable form,
    [file:line:col: severity[code]: message] followed by indented note
    lines. *)
val render : ?file:string -> t -> string

val render_all : ?file:string -> t list -> string

(** One JSON object per diagnostic (hand-rolled, dependency-free). *)
val to_json : ?file:string -> t -> string

val json_escape : string -> string

(** Drop repeated findings: diagnostics sharing a code and location
    after the first occurrence. Order otherwise preserved. *)
val dedupe : t list -> t list

(** Stable sort by location (unlocated first) for deterministic
    machine-readable output. *)
val sort_by_loc : t list -> t list

val count : severity -> t list -> int

(** Number of diagnostics that should fail the run; [werror] promotes
    warnings to errors. *)
val error_count : ?werror:bool -> t list -> int
