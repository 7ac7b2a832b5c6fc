(* Textual IR output in MLIR's *generic* operation syntax:

     %0, %1 = "dialect.op"(%a, %b) ({ ...regions... })
              {"attr" = value} : (t_a, t_b) -> (t_0, t_1)

   The generic form is deliberately chosen over per-op pretty forms so that
   [Parser] can read everything back without per-dialect grammar, exactly
   how the paper's pipeline passes modules between Flang, xDSL and
   mlir-opt as text. *)

type env = {
  names : (int, string) Hashtbl.t; (* value id -> printed name *)
  mutable next_value : int;
  mutable next_block : int;
  buf : Buffer.t;
}

let create_env () =
  { names = Hashtbl.create 64; next_value = 0; next_block = 0;
    buf = Buffer.create 1024 }

let value_name env (v : Op.value) =
  match Hashtbl.find_opt env.names v.Op.v_id with
  | Some n -> n
  | None ->
    let n = Printf.sprintf "%%%d" env.next_value in
    env.next_value <- env.next_value + 1;
    Hashtbl.replace env.names v.Op.v_id n;
    n

let indent env n =
  Buffer.add_string env.buf (String.make (2 * n) ' ')

let rec print_op env depth (op : Op.op) =
  indent env depth;
  let results = Op.results op in
  if results <> [] then begin
    Buffer.add_string env.buf
      (String.concat ", " (List.map (value_name env) results));
    Buffer.add_string env.buf " = "
  end;
  Buffer.add_string env.buf (Printf.sprintf "%S" op.Op.o_name);
  Buffer.add_char env.buf '(';
  Buffer.add_string env.buf
    (String.concat ", " (List.map (value_name env) (Op.operands op)));
  Buffer.add_char env.buf ')';
  (* Regions *)
  let regions = Op.regions op in
  if regions <> [] then begin
    Buffer.add_string env.buf " (";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string env.buf ", ";
        print_region env depth r)
      regions;
    Buffer.add_char env.buf ')'
  end;
  (* Attributes, sorted for deterministic output. *)
  let attrs =
    List.sort (fun (a, _) (b, _) -> compare a b) op.Op.o_attrs
  in
  if attrs <> [] then begin
    Buffer.add_string env.buf " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string env.buf ", ";
        Buffer.add_string env.buf
          (Printf.sprintf "%S = %s" k (Attr.to_string v)))
      attrs;
    Buffer.add_char env.buf '}'
  end;
  (* Type signature *)
  Buffer.add_string env.buf " : (";
  Buffer.add_string env.buf
    (String.concat ", "
       (List.map (fun v -> Types.to_string (Op.value_type v)) (Op.operands op)));
  Buffer.add_string env.buf ") -> (";
  Buffer.add_string env.buf
    (String.concat ", "
       (List.map (fun v -> Types.to_string (Op.value_type v)) results));
  Buffer.add_string env.buf ")";
  Buffer.add_char env.buf '\n'

and print_region env depth (r : Op.region) =
  Buffer.add_string env.buf "{\n";
  List.iter (print_block env (depth + 1)) r.Op.g_blocks;
  indent env depth;
  Buffer.add_char env.buf '}'

and print_block env depth (b : Op.block) =
  let label = Printf.sprintf "^bb%d" env.next_block in
  env.next_block <- env.next_block + 1;
  Hashtbl.replace env.names (-b.Op.b_id) label;
  indent env (depth - 1);
  Buffer.add_string env.buf label;
  let args = Op.block_args b in
  if args <> [] then begin
    Buffer.add_char env.buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string env.buf ", ";
        Buffer.add_string env.buf (value_name env a);
        Buffer.add_string env.buf ": ";
        Buffer.add_string env.buf (Types.to_string (Op.value_type a)))
      args;
    Buffer.add_char env.buf ')'
  end;
  Buffer.add_string env.buf ":\n";
  List.iter (print_op env depth) (Op.block_ops b)

let op_to_string (op : Op.op) =
  let env = create_env () in
  print_op env 0 op;
  Buffer.contents env.buf

let module_to_string = op_to_string
