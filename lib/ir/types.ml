(* MLIR-style type system for the mini compiler infrastructure.

   Unlike real MLIR, types are a closed sum: this substrate only needs the
   builtin types plus the FIR, LLVM and stencil type families that the
   paper's pipeline manipulates. Bounds on stencil types are inclusive on
   the lower end and exclusive on the upper end is NOT the convention used
   here: we follow the Open Earth printing convention [lb,ub] where both
   ends denote the first and last accessible index (see Listing 2 of the
   paper, e.g. !stencil.temp<[-1,255]x[-1,255]xf64>). *)

type dim =
  | Static of int
  | Dynamic

(* Per-dimension inclusive index bounds of a stencil field or temp. *)
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
  (* llvm dialect types *)
  | Llvm_ptr                 (* opaque pointer *)
  | Llvm_typed_ptr of t      (* "transparent" pointer, carries pointee *)
  | Llvm_struct of t list
  | Llvm_array of int * t
  (* FIR dialect types; note Fir_llvm_ptr is deliberately distinct from
     Llvm_ptr — the paper exploits that they are semantically identical but
     nominally different (Section 3). *)
  | Fir_ref of t
  | Fir_heap of t
  | Fir_box of t
  | Fir_array of dim list * t
  | Fir_char of int
  | Fir_llvm_ptr of t
  (* stencil dialect types *)
  | Stencil_field of bounds * t
  | Stencil_temp of bounds * t
  | Stencil_result of t

let is_integer = function
  | I1 | I8 | I16 | I32 | I64 | Index -> true
  | _ -> false

let is_float = function F32 | F64 -> true | _ -> false

let is_scalar t = is_integer t || is_float t

let rec element_type = function
  | Memref (_, t) | Vector (_, t) -> t
  | Fir_array (_, t) -> element_type t
  | Stencil_field (_, t) | Stencil_temp (_, t) -> t
  | t -> t

(* Rank of a shaped type; scalars have rank 0. *)
let rank = function
  | Memref (dims, _) | Fir_array (dims, _) -> List.length dims
  | Vector (dims, _) -> List.length dims
  | Stencil_field (b, _) | Stencil_temp (b, _) -> List.length b
  | _ -> 0

let add_dim buf = function
  | Static n -> Buffer.add_string buf (string_of_int n)
  | Dynamic -> Buffer.add_char buf '?'

(* [prefix<d0xd1x...xelem>] for the shaped types. *)
let rec add_shaped :
    'd. Buffer.t -> string -> (Buffer.t -> 'd -> unit) -> 'd list -> t -> unit
    =
 fun buf prefix add_d ds t ->
  Buffer.add_string buf prefix;
  Buffer.add_char buf '<';
  List.iter
    (fun d ->
      add_d buf d;
      Buffer.add_char buf 'x')
    ds;
  to_buffer buf t;
  Buffer.add_char buf '>'

and add_list buf ts =
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ", ";
      to_buffer buf t)
    ts

and add_wrapped buf prefix t =
  Buffer.add_string buf prefix;
  Buffer.add_char buf '<';
  to_buffer buf t;
  Buffer.add_char buf '>'

and add_bounds buf prefix b t =
  Buffer.add_string buf prefix;
  Buffer.add_char buf '<';
  List.iter
    (fun (lo, hi) ->
      Buffer.add_char buf '[';
      Buffer.add_string buf (string_of_int lo);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int hi);
      Buffer.add_string buf "]x")
    b;
  to_buffer buf t;
  Buffer.add_char buf '>'

and to_buffer buf = function
  | I1 -> Buffer.add_string buf "i1"
  | I8 -> Buffer.add_string buf "i8"
  | I16 -> Buffer.add_string buf "i16"
  | I32 -> Buffer.add_string buf "i32"
  | I64 -> Buffer.add_string buf "i64"
  | F32 -> Buffer.add_string buf "f32"
  | F64 -> Buffer.add_string buf "f64"
  | Index -> Buffer.add_string buf "index"
  | None_t -> Buffer.add_string buf "none"
  | Memref (dims, t) -> add_shaped buf "memref" add_dim dims t
  | Vector (dims, t) ->
    add_shaped buf "vector"
      (fun buf n -> Buffer.add_string buf (string_of_int n))
      dims t
  | Func_t (args, rets) ->
    Buffer.add_char buf '(';
    add_list buf args;
    Buffer.add_string buf ") -> (";
    add_list buf rets;
    Buffer.add_char buf ')'
  | Llvm_ptr -> Buffer.add_string buf "!llvm.ptr"
  | Llvm_typed_ptr t -> add_wrapped buf "!llvm.ptr" t
  | Llvm_struct ts ->
    Buffer.add_string buf "!llvm.struct<(";
    add_list buf ts;
    Buffer.add_string buf ")>"
  | Llvm_array (n, t) ->
    Buffer.add_string buf "!llvm.array<";
    Buffer.add_string buf (string_of_int n);
    Buffer.add_string buf " x ";
    to_buffer buf t;
    Buffer.add_char buf '>'
  | Fir_ref t -> add_wrapped buf "!fir.ref" t
  | Fir_heap t -> add_wrapped buf "!fir.heap" t
  | Fir_box t -> add_wrapped buf "!fir.box" t
  | Fir_array (dims, t) -> add_shaped buf "!fir.array" add_dim dims t
  | Fir_char n ->
    Buffer.add_string buf "!fir.char<";
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '>'
  | Fir_llvm_ptr t -> add_wrapped buf "!fir.llvm_ptr" t
  | Stencil_field (b, t) -> add_bounds buf "!stencil.field" b t
  | Stencil_temp (b, t) -> add_bounds buf "!stencil.temp" b t
  | Stencil_result t -> add_wrapped buf "!stencil.result" t

(* Scalars print as shared literals; everything else goes through a
   buffer. *)
let to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"
  | Index -> "index"
  | None_t -> "none"
  | t ->
    let buf = Buffer.create 32 in
    to_buffer buf t;
    Buffer.contents buf

let equal (a : t) (b : t) = a = b

(* Number of accessible cells per dimension of an inclusive bounds list. *)
let bounds_extents (b : bounds) = List.map (fun (lo, hi) -> hi - lo + 1) b

let bounds_volume b =
  List.fold_left (fun acc e -> acc * e) 1 (bounds_extents b)

(* Grow [b] so it covers [b'] as well. *)
let bounds_union (b : bounds) (b' : bounds) : bounds =
  if List.length b <> List.length b' then
    invalid_arg "Types.bounds_union: rank mismatch";
  List.map2 (fun (l1, h1) (l2, h2) -> (min l1 l2, max h1 h2)) b b'

(* Shrink the accessible region: intersection of two bounds. *)
let bounds_intersect (b : bounds) (b' : bounds) : bounds =
  if List.length b <> List.length b' then
    invalid_arg "Types.bounds_intersect: rank mismatch";
  List.map2 (fun (l1, h1) (l2, h2) -> (max l1 l2, min h1 h2)) b b'

(* Bounds needed on an input accessed with [offsets] when computing an
   output over [b]: shift b by each offset and union. *)
let bounds_expand_by_offsets (b : bounds) (offsets : int list list) : bounds =
  let shift ofs =
    List.map2 (fun (lo, hi) o -> (lo + o, hi + o)) b ofs
  in
  match offsets with
  | [] -> b
  | first :: rest ->
    List.fold_left (fun acc o -> bounds_union acc (shift o)) (shift first) rest
