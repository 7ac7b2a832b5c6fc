(* Textual IR output in MLIR's *generic* operation syntax:

     %0, %1 = "dialect.op"(%a, %b) ({ ...regions... })
              {"attr" = value} : (t_a, t_b) -> (t_0, t_1)

   The generic form is deliberately chosen over per-op pretty forms so that
   [Parser] can read everything back without per-dialect grammar, exactly
   how the paper's pipeline passes modules between Flang, xDSL and
   mlir-opt as text.

   Everything is appended straight to the caller's buffer: names, value
   numbers and scalar types without a temporary string, and every other
   type printed once per module and then copied from a table. *)

type env = {
  buf : Buffer.t;
  ids : Id_table.t; (* value id -> print number *)
  mutable next_value : int;
  mutable next_block : int;
  add_type : Buffer.t -> Types.t -> unit;
}

let create_env buf =
  let types = Hashtbl.create 16 in
  let add_type buf (t : Types.t) =
    match t with
    | I1 | I8 | I16 | I32 | I64 | F32 | F64 | Index | None_t ->
      Buffer.add_string buf (Types.to_string t)
    | _ -> (
      match Hashtbl.find_opt types t with
      | Some s -> Buffer.add_string buf s
      | None ->
        let s = Types.to_string t in
        Hashtbl.add types t s;
        Buffer.add_string buf s)
  in
  { buf; ids = Id_table.create 512; next_value = 0; next_block = 0;
    add_type }

let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [%N], numbering [v] on first sight. *)
let add_value env (v : Op.value) =
  let n = Id_table.find env.ids v.Op.v_id in
  let n =
    if n >= 0 then n
    else begin
      let n = env.next_value in
      env.next_value <- n + 1;
      Id_table.replace env.ids v.Op.v_id n;
      n
    end
  in
  Buffer.add_char env.buf '%';
  add_int env.buf n

let add_values env (vs : Op.value array) =
  for i = 0 to Array.length vs - 1 do
    if i > 0 then Buffer.add_string env.buf ", ";
    add_value env (Array.unsafe_get vs i)
  done

let add_types env (vs : Op.value array) =
  for i = 0 to Array.length vs - 1 do
    if i > 0 then Buffer.add_string env.buf ", ";
    env.add_type env.buf (Array.unsafe_get vs i).Op.v_type
  done

let spaces = String.make 64 ' '

let rec indent buf n =
  if n <= 32 then Buffer.add_substring buf spaces 0 (2 * n)
  else begin
    Buffer.add_string buf spaces;
    indent buf (n - 32)
  end

(* Attributes print sorted by key; most ops already hold them sorted. *)
let rec sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && sorted rest
  | _ -> true

let rec add_attrs env first = function
  | [] -> ()
  | (k, v) :: rest ->
    if not first then Buffer.add_string env.buf ", ";
    Attr.add_quoted env.buf k;
    Buffer.add_string env.buf " = ";
    Attr.to_buffer ~add_type:env.add_type env.buf v;
    add_attrs env false rest

let rec print_op env depth (op : Op.op) =
  let buf = env.buf in
  indent buf depth;
  if Array.length op.Op.o_results > 0 then begin
    add_values env op.Op.o_results;
    Buffer.add_string buf " = "
  end;
  Attr.add_quoted buf op.Op.o_name;
  Buffer.add_char buf '(';
  add_values env op.Op.o_operands;
  Buffer.add_char buf ')';
  let regions = op.Op.o_regions in
  if Array.length regions > 0 then begin
    Buffer.add_string buf " (";
    for i = 0 to Array.length regions - 1 do
      if i > 0 then Buffer.add_string buf ", ";
      print_region env depth regions.(i)
    done;
    Buffer.add_char buf ')'
  end;
  (match op.Op.o_attrs with
  | [] -> ()
  | attrs ->
    let attrs =
      if sorted attrs then attrs
      else List.sort (fun (a, _) (b, _) -> String.compare a b) attrs
    in
    Buffer.add_string buf " {";
    add_attrs env true attrs;
    Buffer.add_char buf '}');
  Buffer.add_string buf " : (";
  add_types env op.Op.o_operands;
  Buffer.add_string buf ") -> (";
  add_types env op.Op.o_results;
  Buffer.add_string buf ")\n"

and print_region env depth (r : Op.region) =
  Buffer.add_string env.buf "{\n";
  print_blocks env (depth + 1) r.Op.g_blocks;
  indent env.buf depth;
  Buffer.add_char env.buf '}'

and print_blocks env depth = function
  | [] -> ()
  | b :: rest ->
    print_block env depth b;
    print_blocks env depth rest

and print_block env depth (b : Op.block) =
  let buf = env.buf in
  indent buf (depth - 1);
  Buffer.add_string buf "^bb";
  add_int buf env.next_block;
  env.next_block <- env.next_block + 1;
  let args = b.Op.b_args in
  if Array.length args > 0 then begin
    Buffer.add_char buf '(';
    for i = 0 to Array.length args - 1 do
      if i > 0 then Buffer.add_string buf ", ";
      add_value env args.(i);
      Buffer.add_string buf ": ";
      env.add_type buf args.(i).Op.v_type
    done;
    Buffer.add_char buf ')'
  end;
  Buffer.add_string buf ":\n";
  print_ops env depth b.Op.b_first

and print_ops env depth = function
  | None -> ()
  | Some op ->
    print_op env depth op;
    print_ops env depth op.Op.o_next

let to_buffer buf (op : Op.op) = print_op (create_env buf) 0 op

let module_to_string (op : Op.op) =
  let buf = Buffer.create 4096 in
  to_buffer buf op;
  Buffer.contents buf
