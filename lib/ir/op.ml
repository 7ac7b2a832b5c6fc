(* Core SSA IR: values, operations, blocks and regions.

   The representation mirrors MLIR: an operation has operands (SSA values),
   results (SSA values it defines), an attribute dictionary and nested
   regions; a region holds blocks; a block holds block arguments and a
   doubly-linked list of operations. Everything is mutable because the
   transformation passes of the paper (discovery, extraction, merging,
   lowering) are all in-place IR surgery.

   Invariant maintained by this module: every value knows its uses, i.e.
   the (op, operand-index) pairs that reference it. All operand mutation
   must go through [set_operand] / [set_operands] / [erase] so the use
   lists stay consistent. *)

type value = {
  v_id : int;
  mutable v_type : Types.t;
  mutable v_def : def;
  mutable v_uses : use list;
}

and def =
  | Op_result of op * int
  | Block_arg of block * int

and use = {
  u_op : op;
  u_index : int;
}

and op = {
  o_id : int;
  mutable o_name : string;
  mutable o_operands : value array;
  mutable o_results : value array;
  mutable o_attrs : (string * Attr.t) list;
  mutable o_regions : region array;
  mutable o_parent : block option;
  mutable o_prev : op option;
  mutable o_next : op option;
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_parent : region option;
}

and region = {
  g_id : int;
  mutable g_blocks : block list;
  mutable g_parent : op option;
}

(* Shared by every domain: concurrent compiles (server workers) create
   IR at the same time, and a duplicated id would alias two values in
   every id-keyed table (printer names, use maps). *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let value_type v = v.v_type

let has_uses v = v.v_uses <> []

let num_uses v = List.length v.v_uses

let defining_op v =
  match v.v_def with Op_result (op, _) -> Some op | Block_arg _ -> None

(* ------------------------------------------------------------------ *)
(* Use-list maintenance                                                *)
(* ------------------------------------------------------------------ *)

let add_use value ~op ~index =
  value.v_uses <- { u_op = op; u_index = index } :: value.v_uses

let remove_use value ~op ~index =
  value.v_uses <-
    List.filter
      (fun u -> not (u.u_op == op && u.u_index = index))
      value.v_uses

let set_operand op index value =
  let old = op.o_operands.(index) in
  if not (old == value) then begin
    remove_use old ~op ~index;
    op.o_operands.(index) <- value;
    add_use value ~op ~index
  end

let replace_all_uses_with old_v new_v =
  (* Snapshot: set_operand mutates the use list we are iterating. *)
  let uses = old_v.v_uses in
  List.iter (fun u -> set_operand u.u_op u.u_index new_v) uses

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create_region () = { g_id = next_id (); g_blocks = []; g_parent = None }

let create_block ?(args = []) () =
  let b =
    { b_id = next_id (); b_args = [||]; b_first = None; b_last = None;
      b_parent = None }
  in
  b.b_args <-
    Array.of_list
      (List.mapi
         (fun i t ->
           { v_id = next_id (); v_type = t; v_def = Block_arg (b, i);
             v_uses = [] })
         args);
  b

let add_block region block =
  block.b_parent <- Some region;
  region.g_blocks <- region.g_blocks @ [ block ]

let region_with_block ?(args = []) () =
  let r = create_region () in
  let b = create_block ~args () in
  add_block r b;
  (r, b)

let create ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = []) name
    =
  let op =
    { o_id = next_id (); o_name = name; o_operands = [||]; o_results = [||];
      o_attrs = attrs; o_regions = Array.of_list regions; o_parent = None;
      o_prev = None; o_next = None }
  in
  op.o_operands <- Array.of_list operands;
  Array.iteri (fun i v -> add_use v ~op ~index:i) op.o_operands;
  op.o_results <-
    Array.of_list
      (List.mapi
         (fun i t ->
           { v_id = next_id (); v_type = t; v_def = Op_result (op, i);
             v_uses = [] })
         results);
  Array.iter (fun r -> r.g_parent <- Some op) op.o_regions;
  op

let result ?(index = 0) op = op.o_results.(index)

let results op = Array.to_list op.o_results

let operand ?(index = 0) op = op.o_operands.(index)

let operands op = Array.to_list op.o_operands

let num_operands op = Array.length op.o_operands

let num_results op = Array.length op.o_results

let region ?(index = 0) op = op.o_regions.(index)

let regions op = Array.to_list op.o_regions

let has_attr op key = List.mem_assoc key op.o_attrs

let attr op key = List.assoc_opt key op.o_attrs

let attr_exn op key =
  match attr op key with
  | Some a -> a
  | None ->
    invalid_arg (Printf.sprintf "Op.attr_exn: no attribute %S on %s" key
                   op.o_name)

let set_attr op key a =
  op.o_attrs <- (key, a) :: List.remove_assoc key op.o_attrs

(* Source location threaded from the frontend as a "loc" attribute. *)
let location op =
  match attr op "loc" with
  | Some (Attr.Loc_a (line, col)) -> Some (line, col)
  | _ -> None

let int_attr op key = Attr.as_int (attr_exn op key)
let string_attr op key = Attr.as_string (attr_exn op key)

(* ------------------------------------------------------------------ *)
(* Linked-list surgery                                                 *)
(* ------------------------------------------------------------------ *)

let parent_block op = op.o_parent

let parent_op op =
  match op.o_parent with
  | None -> None
  | Some b -> ( match b.b_parent with None -> None | Some r -> r.g_parent)

let unlink op =
  (match op.o_prev with
  | Some p -> p.o_next <- op.o_next
  | None -> (
    match op.o_parent with Some b -> b.b_first <- op.o_next | None -> ()));
  (match op.o_next with
  | Some n -> n.o_prev <- op.o_prev
  | None -> (
    match op.o_parent with Some b -> b.b_last <- op.o_prev | None -> ()));
  op.o_prev <- None;
  op.o_next <- None;
  op.o_parent <- None

let append_to block op =
  unlink op;
  op.o_parent <- Some block;
  match block.b_last with
  | None ->
    block.b_first <- Some op;
    block.b_last <- Some op
  | Some last ->
    last.o_next <- Some op;
    op.o_prev <- Some last;
    block.b_last <- Some op

let prepend_to block op =
  unlink op;
  op.o_parent <- Some block;
  match block.b_first with
  | None ->
    block.b_first <- Some op;
    block.b_last <- Some op
  | Some first ->
    first.o_prev <- Some op;
    op.o_next <- Some first;
    block.b_first <- Some op

let insert_before ~anchor op =
  unlink op;
  let block =
    match anchor.o_parent with
    | Some b -> b
    | None -> invalid_arg "Op.insert_before: anchor not in a block"
  in
  op.o_parent <- Some block;
  op.o_next <- Some anchor;
  op.o_prev <- anchor.o_prev;
  (match anchor.o_prev with
  | Some p -> p.o_next <- Some op
  | None -> block.b_first <- Some op);
  anchor.o_prev <- Some op

let insert_after ~anchor op =
  unlink op;
  let block =
    match anchor.o_parent with
    | Some b -> b
    | None -> invalid_arg "Op.insert_after: anchor not in a block"
  in
  op.o_parent <- Some block;
  op.o_prev <- Some anchor;
  op.o_next <- anchor.o_next;
  (match anchor.o_next with
  | Some n -> n.o_prev <- Some op
  | None -> block.b_last <- Some op);
  anchor.o_next <- Some op

(* Erase [op]: unlink it and drop its operand uses. The op must itself be
   unused (its results have no remaining uses). *)
let erase op =
  Array.iter
    (fun r ->
      if has_uses r then
        invalid_arg
          (Printf.sprintf "Op.erase: result of %s still has uses" op.o_name))
    op.o_results;
  Array.iteri (fun i v -> remove_use v ~op ~index:i) op.o_operands;
  op.o_operands <- [||];
  unlink op

(* ------------------------------------------------------------------ *)
(* Iteration                                                           *)
(* ------------------------------------------------------------------ *)

let block_ops block =
  let rec collect acc = function
    | None -> List.rev acc
    | Some op -> collect (op :: acc) op.o_next
  in
  collect [] block.b_first

let iter_block_ops f block =
  (* Safe against removal of the op currently visited: fetch next first. *)
  let rec go = function
    | None -> ()
    | Some op ->
      let next = op.o_next in
      f op;
      go next
  in
  go block.b_first

let first_op block = block.b_first
let last_op block = block.b_last

let block_arg ?(index = 0) block = block.b_args.(index)
let block_args block = Array.to_list block.b_args

(* Pre-order walk over [op] and everything nested inside its regions. *)
let rec walk f op =
  f op;
  Array.iter
    (fun r ->
      List.iter (fun b -> List.iter (walk f) (block_ops b)) r.g_blocks)
    op.o_regions

(* Walk only the ops nested inside [op]'s regions (not [op] itself). *)
let walk_inner f op =
  Array.iter
    (fun r ->
      List.iter (fun b -> List.iter (walk f) (block_ops b)) r.g_blocks)
    op.o_regions

let collect_ops pred top =
  let acc = ref [] in
  walk (fun op -> if pred op then acc := op :: !acc) top;
  List.rev !acc

(* Is [op] positioned after [anchor] in the same block? *)
let is_after ~anchor op =
  let same_block =
    match (op.o_parent, anchor.o_parent) with
    | Some b1, Some b2 -> b1 == b2
    | _ -> false
  in
  same_block
  &&
  let rec walk o =
    match o.o_next with
    | None -> false
    | Some n -> if n == op then true else walk n
  in
  walk anchor

(* Move the producer chain of [v] before [anchor] when it is positioned
   after it in the same block (dependencies first). Only correct for pure
   chains; callers are responsible for that. *)
let rec hoist_chain_before ~anchor (v : value) =
  match defining_op v with
  | None -> ()
  | Some op ->
    if is_after ~anchor op then begin
      Array.iter (hoist_chain_before ~anchor) op.o_operands;
      insert_before ~anchor op
    end

(* ------------------------------------------------------------------ *)
(* Module helpers                                                      *)
(* ------------------------------------------------------------------ *)

let module_op_name = "builtin.module"

let create_module () =
  let r, _ = region_with_block () in
  create module_op_name ~regions:[ r ]

let module_block m =
  match (region m).g_blocks with
  | [ b ] -> b
  | _ -> invalid_arg "Op.module_block: malformed module"

let is_module op = op.o_name = module_op_name

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)
(* ------------------------------------------------------------------ *)

(* Deep-copy [op] (including nested regions). [mapping] translates free
   values (operands defined outside the cloned subtree); values defined
   inside are remapped automatically. Returns the clone; the caller links
   it into a block. *)
let clone ?(mapping = Hashtbl.create 16) op =
  let map_value v =
    match Hashtbl.find_opt mapping v.v_id with Some v' -> v' | None -> v
  in
  let rec clone_op op =
    let regions =
      Array.to_list op.o_regions |> List.map clone_region
    in
    let operands = List.map map_value (Array.to_list op.o_operands) in
    let results = List.map (fun r -> r.v_type) (Array.to_list op.o_results) in
    let c =
      create op.o_name ~operands ~results ~attrs:op.o_attrs ~regions
    in
    Array.iteri
      (fun i r -> Hashtbl.replace mapping r.v_id c.o_results.(i))
      op.o_results;
    c
  and clone_region r =
    let r' = create_region () in
    List.iter
      (fun b ->
        let b' = create_block ~args:(List.map value_type (block_args b)) () in
        Array.iteri
          (fun i a -> Hashtbl.replace mapping a.v_id b'.b_args.(i))
          b.b_args;
        add_block r' b';
        List.iter (fun o -> append_to b' (clone_op o)) (block_ops b))
      r.g_blocks;
    r'
  in
  clone_op op

(* ------------------------------------------------------------------ *)
(* Debug                                                               *)
(* ------------------------------------------------------------------ *)

let to_debug_string op =
  Printf.sprintf "%s(#%d, %d operands, %d results, %d regions)" op.o_name
    op.o_id (Array.length op.o_operands) (Array.length op.o_results)
    (Array.length op.o_regions)
