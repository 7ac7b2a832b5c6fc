(** MLIR-style type system.

    Unlike real MLIR, types form a closed sum: this substrate only needs
    the builtin types plus the FIR, LLVM and stencil families the paper's
    pipeline manipulates. Stencil bounds are inclusive on both ends, as
    printed in the paper's Listing 2 ([!stencil.temp<[-1,255]x...>]). *)

type dim =
  | Static of int
  | Dynamic

(** Per-dimension inclusive index bounds of a stencil field or temp. *)
type bounds = (int * int) list

type t =
  | I1
  | I8
  | I16
  | I32
  | I64
  | F32
  | F64
  | Index
  | None_t
  | Memref of dim list * t
  | Vector of int list * t
  | Func_t of t list * t list
  | Llvm_ptr  (** opaque pointer *)
  | Llvm_typed_ptr of t  (** "transparent" pointer with pointee *)
  | Llvm_struct of t list
  | Llvm_array of int * t
  | Fir_ref of t
  | Fir_heap of t
  | Fir_box of t
  | Fir_array of dim list * t
  | Fir_char of int
  | Fir_llvm_ptr of t
      (** deliberately distinct from {!Llvm_ptr}: the paper exploits that
          they are semantically identical but nominally different *)
  | Stencil_field of bounds * t
  | Stencil_temp of bounds * t
  | Stencil_result of t

val is_integer : t -> bool
val is_float : t -> bool
val is_scalar : t -> bool

(** Element type of shaped types (transparent through nesting);
    identity on scalars. *)
val element_type : t -> t

(** Rank of a shaped type; scalars have rank 0. *)
val rank : t -> int

(** The MLIR textual syntax; round-trips through {!Parser.parse_type}. *)
val to_string : t -> string

(** Append {!to_string}'s text to a buffer. *)
val to_buffer : Buffer.t -> t -> unit

val equal : t -> t -> bool

(** {2 Bounds arithmetic (used by shape inference)} *)

val bounds_volume : bounds -> int

(** Smallest box covering both.
    @raise Invalid_argument on rank mismatch. *)
val bounds_union : bounds -> bounds -> bounds

val bounds_intersect : bounds -> bounds -> bounds

(** Bounds needed on an input accessed at [offsets] when computing an
    output over [b]: the union of [b] shifted by each offset. *)
val bounds_expand_by_offsets : bounds -> int list list -> bounds
