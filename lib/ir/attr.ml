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

let rec to_string = function
  | Unit_a -> "unit"
  | Bool_a b -> if b then "true" else "false"
  | Int_a i -> string_of_int i
  | Float_a f ->
    (* Keep floats round-trippable through the parser. *)
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* nan, inf(n) *)
    then s
    else s ^ ".0"
  | Str_a s -> Printf.sprintf "%S" s
  | Type_a t -> Types.to_string t
  | Arr_a xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Index_a xs ->
    "#stencil.index<" ^ String.concat ", " (List.map string_of_int xs) ^ ">"
  | Sym_a s -> "@" ^ s
  | Dict_a kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S = %s" k (to_string v)) kvs)
    ^ "}"
  | Loc_a (line, col) -> Printf.sprintf "loc(%d:%d)" line col

let pp fmt a = Format.pp_print_string fmt (to_string a)

let equal (a : t) (b : t) = a = b

(* Accessors used pervasively by passes; raising on shape mismatch keeps
   verifier bugs loud. *)
let as_int = function
  | Int_a i -> i
  | a -> invalid_arg ("Attr.as_int: " ^ to_string a)

let as_float = function
  | Float_a f -> f
  | Int_a i -> float_of_int i
  | a -> invalid_arg ("Attr.as_float: " ^ to_string a)

let as_string = function
  | Str_a s -> s
  | Sym_a s -> s
  | a -> invalid_arg ("Attr.as_string: " ^ to_string a)

let as_index = function
  | Index_a xs -> xs
  | Arr_a xs -> List.map as_int xs
  | a -> invalid_arg ("Attr.as_index: " ^ to_string a)
