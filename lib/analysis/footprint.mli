(** Affine footprint analysis over compiled kernel specs.

    The dependence oracle answers "is this nest parallel?"; this module
    answers the stronger question several backends need: which
    rectangular region of which field does each statement read and
    write?  Footprints are conservative per-dimension interval boxes
    derived from {!Fsc_rt.Kernel_compile} index forms ([Iv (level,
    offset)] / [Cst c]) and loop bounds, with a sound [Top] for any
    subscript the abstraction cannot bound.  Consumers: halo-aware
    staling in [Fsc_dmp.Dist_kernel] (a write only stales halo
    freshness when its footprint touches a mirrored boundary plane)
    and the [sfc check] lints built in {!Check}. *)

(** One dimension of a footprint: a closed interval or the whole axis.
    [Range (lo, hi)] is inclusive on both ends and satisfies
    [lo <= hi]. *)
type dim =
  | Top
  | Range of int * int

(** A rectangular region: one {!dim} per buffer dimension, outermost
    buffer dimension first (same order as [Kernel_compile.index_form]
    lists). *)
type region = dim list

(** [range lo hi] builds a [Range], swapping the endpoints if given in
    descending order. *)
val range : int -> int -> dim

val join_dim : dim -> dim -> dim
(** Least upper bound: the interval hull. *)

val meet_dim : dim -> dim -> dim option
(** Greatest lower bound; [None] when the intersection is empty. *)

val dim_contains : dim -> int -> bool
val dims_intersect : dim -> dim -> bool

(** Region-level lattice ops.  Mismatched ranks are handled
    conservatively: missing dimensions behave as [Top]. *)

val join_region : region -> region -> region

val meet_region : region -> region -> region option
(** [None] when the regions are disjoint in some shared dimension. *)

val regions_intersect : region -> region -> bool

val region_to_string : region -> string
(** E.g. ["[1:12][0:13][?]"] — [?] renders [Top]. *)

(** Footprint of one compiled loop nest, joined per buffer argument. *)
type nest_fp = {
  nf_empty : bool;
      (** Some loop has an empty range: the nest executes nothing and
          both access lists are empty. *)
  nf_reads : (int * region) list;
      (** Per buffer-argument index, the join of all load regions. *)
  nf_writes : (int * region) list;
      (** Per buffer-argument index, the join of all store regions. *)
}

val of_nest : Fsc_rt.Kernel_compile.nest -> nest_fp

(** Whole-kernel footprint: one {!nest_fp} per nest, in program
    order. *)
type t = nest_fp list

val of_spec : Fsc_rt.Kernel_compile.spec -> t

val to_string : t -> string
(** Stable multi-line rendering, one line per nest; used both for
    [--stats] display and as the canonical form the artifact cache
    stores and revalidates against. *)
