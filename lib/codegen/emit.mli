(** Kernel spec -> scheduled OCaml source for the native tier.

    v2: the emitter applies bitwise-preserving scheduling transforms —
    L2 cache tiling from the [n_tile] hint, rolling register windows
    and row blits inside innermost loops, and cross-nest fusion
    (aligned cell-wise, or outer-level shifted for sweep/copy pairs) —
    before printing flat [Bigarray.Array1] loops with bounds, strides
    and stencil deltas baked in as constants. Every module opens with
    two monomorphic externals, [get] and [set], over the float64
    buffer type; the loops use them in place of the polymorphic
    [Bigarray.Array1.unsafe_get/set], which compile to the same code
    but cost the typer more at each call site. Per-cell arithmetic stays
    an exact transliteration of the closure engine (same statement
    order, same float ops, hex-literal constants), so emitted kernels
    remain bit-identical to the other three engines.

    Bodies are unsafe (no bounds checks); callers must run the
    bind-time whole-space bounds validation in {!Native} before
    dispatching to a compiled entry.

    Emission is best-effort per nest: a nest using an operation outside
    the whitelist (notably ["math.erf"], deliberately excluded so the
    fallback chain stays exercisable) is skipped with a reason and runs
    on the vector engine instead. Fusion is best-effort per nest pair:
    when the access footprints cannot prove legality the nests stay
    separate and the refusal reason is recorded. *)

module Kc = Fsc_rt.Kernel_compile

type group_kind =
  | G_single  (** one nest, no fusion *)
  | G_aligned  (** >= 2 nests merged cell-wise into one body *)
  | G_shifted of int
      (** a producer/consumer pair interleaved with the given shift
          along the outer level; the fused schedule is serial *)

(** One emitted entry: a maximal run of consecutive nests scheduled
    together. *)
type group = {
  g_nests : int list;  (** member nest indices, ascending *)
  g_fname : string;  (** registered entry name *)
  g_kind : group_kind;
  g_par : bool;
      (** the entry work-shares its outer level through the [pfor]
          argument; shift-fused entries ignore it and run serially *)
  g_alts : (int * string) list;
      (** for shift-fused groups: each member also emitted as a
          standalone entry, preferred by hosts holding a real pool *)
}

type t

(** [emit ~strides ?skip spec] renders every supported nest of
    [spec]. [strides.(d)] is the flat stride of dimension [d] (shared
    by all buffers — enforced by the caller via shape checking).
    [skip] pre-excludes nests (index, reason) the caller already
    decided against (e.g. an empty iteration space proven by footprint
    analysis). Returns [Error reason] only when {e no} nest could be
    emitted. *)
val emit :
  strides:int array ->
  ?skip:(int * string) list ->
  Kc.spec ->
  (t, string) result

(** Emitted groups in nest order. *)
val groups : t -> group list

(** Flattened [(nest index, entry name)] view of {!groups} — every nest
    that made it into the module, with the entry that runs it. *)
val emitted : t -> (int * string) list

(** [(nest index, reason)] for each nest left to the vector engine. *)
val skipped : t -> (int * string) list

(** Fusion refusals: nest index paired with why fusing it into its
    predecessor's group was rejected. *)
val refused : t -> (int * string) list

(** Nests emitted with blocked loops: (nest index, tile rows). *)
val tiled : t -> (int * int) list

(** Rolling register windows emitted across the module. *)
val reused : t -> int

(** Innermost copy loops emitted as row blits across the module. *)
val blits : t -> int

(** Innermost loops emitted 4 cells per trip (plus remainder). *)
val unrolled : t -> int

(** The emitted definitions without the registration trailer — the
    content-addressed identity of the generated code (the cache key is
    a digest over this, so it must not contain the key itself).
    Deterministic in the spec and strides: tile shape and
    fusion decisions are part of the text, hence of the digest. *)
val body : t -> string

(** The complete module source: {!body} plus a trailer registering
    every group (and alternate) entry under [key] with
    {!Sfc_native_shim}. *)
val module_source : t -> key:string -> string
