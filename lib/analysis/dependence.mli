(** Loop-carried dependence / race analysis over FIR loop nests.

    Computes per-loop distance vectors for pairs of affine array accesses
    (via {!Index_expr}) and classifies each store's loop nest as parallel
    (Jacobi-style), carried (Gauss-Seidel-style, with the offending
    read/write pair) or unknown. The discovery pass consults this module
    as its legality oracle; [sfc check] reports its findings as
    diagnostics. *)

open Fsc_ir

(** {2 Access summaries} *)

type access = {
  acc_op : Op.op;  (** the [fir.load] / [fir.store] *)
  acc_is_write : bool;
  acc_root : Index_expr.array_root;
  acc_forms : Index_expr.form list;  (** per array dimension *)
}

(** Summarise a [fir.store] / [fir.load] whose address is a
    [fir.coordinate_of] into a resolvable array root. [None] for
    scalar accesses or unresolvable bases. *)
val access_of_store : Op.op -> access option

val access_of_load : Op.op -> access option

(** Every array access inside [scope] (pre-order), including conditional
    ones — conservatively treated like any other. *)
val collect_accesses : Op.op -> access list

(** {2 Loop nests} *)

type nest = {
  n_store : access;
  n_loops : Op.op list;  (** applicable loops, outermost first *)
  n_ivs : Op.value list;  (** induction variables, outermost first *)
  n_scope : Op.op;  (** the outermost applicable loop *)
  n_inner_seq : Op.op list;
      (** enclosing loops between scope and store whose induction
          variable does not index the store: each of their iterations
          rewrites the same elements (an output dependence they carry) *)
}

(** The enclosing [fir.do_loop]s of an op, outermost first. *)
val enclosing_loops : Op.op -> Op.op list

(** The loop nest a store belongs to: [None] unless every subscript is
    affine in a distinct enclosing loop's induction variable. *)
val nest_of_store : Op.op -> nest option

(** {2 Pairwise dependence} *)

type dep_kind = Flow | Anti | Output

type dependence = {
  dep_src : access;  (** the write *)
  dep_dst : access;  (** the conflicting access (read or write) *)
  dep_kind : dep_kind;
  dep_distances : int option list;
      (** per nest loop, outermost first; [None] = not compile-time
          known *)
  dep_carrier : int;
      (** index into the nest loops of the loop that (possibly) carries
          the dependence *)
  dep_definite : bool;
      (** [true]: provably carried with a known distance vector;
          [false]: may-dependence (subscripts not fully analysable) *)
}

(** {2 Nest classification} *)

type classification =
  | Parallel
  | Carried of dependence list  (** at least one definite carried dep *)
  | May of dependence list  (** only may-dependences *)

val classify : nest -> classification

(** All hazards that make extracting [nest]'s store unsound: dependences
    involving the store itself, plus dependences between any other write
    in scope and the candidate's own reads ([reads] are the candidate's
    [fir.load] ops). *)
val candidate_hazards : nest -> reads:Op.op list -> dependence list

(** {2 Scalar cells} *)

type scalar_fate =
  | Scalar_invariant  (** never written inside the nest *)
  | Scalar_private
      (** written, but every read sees a value stored earlier in the
          same iteration: privatisable temporary *)
  | Scalar_carried of Op.op * Op.op
      (** [(store, load)]: some read can observe a previous iteration's
          value — a reduction/recurrence pattern *)

(** Fate of the scalar memory cell [cell] with respect to the loop
    [scope]. *)
val scalar_fate : scope:Op.op -> cell:Op.value -> scalar_fate

(** {2 Descriptions} *)

(** One-line human description of a dependence, for diagnostics. *)
val describe : dependence -> string
