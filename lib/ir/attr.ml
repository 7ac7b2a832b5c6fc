(* Operation attributes: compile-time constant metadata attached to ops,
   mirroring MLIR's attribute dictionary. *)

type t =
  | Unit_a
  | Bool_a of bool
  | Int_a of int
  | Float_a of float
  | Str_a of string
  | Type_a of Types.t
  | Arr_a of t list
  | Index_a of int list (* #stencil.index<0, -1> and friends *)
  | Sym_a of string     (* @symbol reference *)
  | Dict_a of (string * t) list
  | Loc_a of int * int  (* source location: line, column *)

(* A string in the OCaml-escaped quoted form the parser reads back
   ([%S]); plain names skip the escaping. *)
let rec plain_from s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c >= ' ' && c <= '~' && c <> '"' && c <> '\\' && plain_from s (i + 1)

let add_quoted buf s =
  if plain_from s 0 then begin
    Buffer.add_char buf '"';
    Buffer.add_string buf s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf (Printf.sprintf "%S" s)

(* Keep floats round-trippable through the parser. *)
let float_string f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e'
     || String.contains s 'n' (* nan, inf(n) *)
  then s
  else s ^ ".0"

let add_int_list buf xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (string_of_int x))
    xs

let rec to_buffer ~add_type buf = function
  | Unit_a -> Buffer.add_string buf "unit"
  | Bool_a b -> Buffer.add_string buf (if b then "true" else "false")
  | Int_a i -> Buffer.add_string buf (string_of_int i)
  | Float_a f -> Buffer.add_string buf (float_string f)
  | Str_a s -> add_quoted buf s
  | Type_a t -> add_type buf t
  | Arr_a xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        to_buffer ~add_type buf x)
      xs;
    Buffer.add_char buf ']'
  | Index_a xs ->
    Buffer.add_string buf "#stencil.index<";
    add_int_list buf xs;
    Buffer.add_char buf '>'
  | Sym_a s ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s
  | Dict_a kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_quoted buf k;
        Buffer.add_string buf " = ";
        to_buffer ~add_type buf v)
      kvs;
    Buffer.add_char buf '}'
  | Loc_a (line, col) ->
    Buffer.add_string buf "loc(";
    Buffer.add_string buf (string_of_int line);
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int col);
    Buffer.add_char buf ')'

let to_string a =
  let buf = Buffer.create 32 in
  to_buffer ~add_type:Types.to_buffer buf a;
  Buffer.contents buf

(* Accessors used pervasively by passes; raising on shape mismatch keeps
   verifier bugs loud. *)
let as_int = function
  | Int_a i -> i
  | a -> invalid_arg ("Attr.as_int: " ^ to_string a)

let as_string = function
  | Str_a s -> s
  | Sym_a s -> s
  | a -> invalid_arg ("Attr.as_string: " ^ to_string a)

let as_index = function
  | Index_a xs -> xs
  | Arr_a xs -> List.map as_int xs
  | a -> invalid_arg ("Attr.as_index: " ^ to_string a)
