(** Greedy pattern-rewrite driver — the engine behind canonicalisation
    and the dialect-conversion style lowerings. *)

type rewriter

(** A pattern inspects one operation and either rewrites it (returning
    [true]) or declines ([false]). Patterns must perform their IR surgery
    through the helpers below so affected operations are revisited. *)
type pattern = {
  p_name : string;
  p_benefit : int;  (** higher-benefit patterns are tried first *)
  p_match_name : string option;
      (** fast filter: only try the pattern on ops with this name *)
  p_rewrite : rewriter -> Op.op -> bool;
}

val pattern :
  ?benefit:int ->
  ?match_name:string ->
  string ->
  (rewriter -> Op.op -> bool) ->
  pattern

(** Schedule an op for (re)processing. *)
val enqueue : rewriter -> Op.op -> unit

(** Replace all results of [op] with [values] and erase it; users are
    re-enqueued. *)
val replace_op : rewriter -> Op.op -> Op.value list -> unit

(** Create an op before [anchor] and enqueue it. *)
val create_before :
  rewriter ->
  anchor:Op.op ->
  ?operands:Op.value list ->
  ?results:Types.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:Op.region list ->
  string ->
  Op.op

(** Record an in-place modification so the op is revisited. *)
val notify_changed : rewriter -> Op.op -> unit

(** The [max_iterations] non-termination backstop of {!apply_greedily}
    fired: the pattern set keeps rewriting without reaching a fixpoint.
    Drivers convert this into a diagnostic naming the offending pass. *)
exception Nontermination

(** Apply [patterns] to everything nested in [top] until fixpoint.
    Returns whether anything changed.
    @raise Nontermination when [max_iterations] is exceeded. *)
val apply_greedily : ?max_iterations:int -> pattern list -> Op.op -> bool
