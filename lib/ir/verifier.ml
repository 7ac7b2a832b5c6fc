(* Structural and dialect verification.

   [verify] checks IR well-formedness; [verify_in_context] additionally
   enforces the dialect-registration constraint that drives the paper's
   module-splitting design: a tool rejects ops from dialects it has not
   registered. *)

type diagnostic = {
  d_op : string;
  d_loc : (int * int) option; (* source line:col of the offending op *)
  d_message : string;
}

let diag op msg =
  { d_op = op.Op.o_name; d_loc = Op.location op; d_message = msg }

let to_string d =
  match d.d_loc with
  | Some (line, col) ->
    Printf.sprintf "[%s at %d:%d] %s" d.d_op line col d.d_message
  | None -> Printf.sprintf "[%s] %s" d.d_op d.d_message

let report errors op msg = errors := diag op msg :: !errors

(* Collect the set of values visible at [op]: block arguments of enclosing
   blocks plus results of ops preceding it (we check SSA-dominance in the
   single-block structured-control-flow discipline this codebase uses). *)
let check_dominance errors top =
  let visible = Id_table.create 256 in
  let see (vs : Op.value array) =
    for i = 0 to Array.length vs - 1 do
      Id_table.replace visible vs.(i).Op.v_id 0
    done
  in
  let rec go_blocks = function
    | [] -> ()
    | (block : Op.block) :: rest ->
      see block.Op.b_args;
      go_ops block.Op.b_first;
      go_blocks rest
  and go_ops = function
    | None -> ()
    | Some op ->
      go_op op;
      go_ops op.Op.o_next
  and go_op op =
    Array.iter
      (fun (v : Op.value) ->
        if Id_table.find visible v.Op.v_id < 0 then
          report errors op
            (Printf.sprintf "operand %%#%d does not dominate its use"
               v.Op.v_id))
      op.Op.o_operands;
    Array.iter (fun (r : Op.region) -> go_blocks r.Op.g_blocks) op.Op.o_regions;
    see op.Op.o_results
  in
  go_op top

let rec records_use op i = function
  | [] -> false
  | (u : Op.use) :: rest ->
    (u.Op.u_op == op && u.Op.u_index = i) || records_use op i rest

let rec check_block_parents errors op r = function
  | [] -> ()
  | (b : Op.block) :: rest ->
    (match b.Op.b_parent with
    | Some p when p == r -> ()
    | _ -> report errors op "block parent link broken");
    check_block_parents errors op r rest

let check_count errors op what expected got =
  let ok = expected < 0 || got = expected in
  if not ok then
    report errors op
      (Printf.sprintf "expected %d %s, got %d" expected what got);
  ok

let check_op errors (op : Op.op) =
  (* Parent links of regions *)
  Array.iter
    (fun (r : Op.region) ->
      (match r.Op.g_parent with
      | Some p when p == op -> ()
      | _ -> report errors op "region parent link broken");
      check_block_parents errors op r r.Op.g_blocks)
    op.Op.o_regions;
  (* Use lists: every operand records this op as a user. *)
  for i = 0 to Array.length op.Op.o_operands - 1 do
    if not (records_use op i op.Op.o_operands.(i).Op.v_uses) then
      report errors op "operand use-list entry missing"
  done;
  (* Dialect-declared structural expectations *)
  match Dialect.lookup_op op.Op.o_name with
  | None -> ()
  | Some info ->
    let operands_ok =
      check_count errors op "operands" info.Dialect.oi_num_operands
        (Array.length op.Op.o_operands)
    in
    let results_ok =
      check_count errors op "results" info.Dialect.oi_num_results
        (Array.length op.Op.o_results)
    in
    let regions_ok =
      check_count errors op "regions" info.Dialect.oi_num_regions
        (Array.length op.Op.o_regions)
    in
    (* per-op verifiers may index operands: only run them on
       structurally sound ops *)
    (match info.Dialect.oi_verify with
    | Some f when operands_ok && results_ok && regions_ok -> (
      match f op with Ok () -> () | Error msg -> report errors op msg)
    | _ -> ());
    if info.Dialect.oi_terminator then begin
      match op.Op.o_parent with
      | Some b -> (
        match Op.last_op b with
        | Some last when last == op -> ()
        | _ ->
          report errors op "terminator is not the last operation of its block")
      | None -> ()
    end

let check_structure errors top = Op.walk (check_op errors) top

let verify top =
  let errors = ref [] in
  check_structure errors top;
  check_dominance errors top;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let verify_in_context ctx top =
  let errors = ref [] in
  check_structure errors top;
  check_dominance errors top;
  Op.walk
    (fun op ->
      if not (Dialect.op_accepted ctx op) then
        errors :=
          diag op
            (Printf.sprintf "dialect %S is not registered with %s"
               (Dialect.dialect_of_op_name op.Op.o_name)
               ctx.Dialect.ctx_name)
          :: !errors)
    top;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let verify_exn top =
  match verify top with
  | Ok () -> ()
  | Error es ->
    failwith
      ("IR verification failed:\n"
      ^ String.concat "\n" (List.map to_string es))

let verify_in_context_exn ctx top =
  match verify_in_context ctx top with
  | Ok () -> ()
  | Error es ->
    failwith
      (Printf.sprintf "IR verification failed in context %s:\n%s"
         ctx.Dialect.ctx_name
         (String.concat "\n" (List.map to_string es)))
