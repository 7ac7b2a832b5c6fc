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
  mutable o_self : op option; (* [Some] of this op, shared by its links *)
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_parent : region option;
  mutable b_self : block option; (* [Some] of this block, for its ops' parent *)
}

and region = {
  g_id : int;
  mutable g_blocks : block list;
  mutable g_parent : op option;
  mutable g_self : region option; (* [Some] of this region, for its blocks *)
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
  match v.v_def with Op_result (op, _) -> op.o_self | Block_arg _ -> None

(* ------------------------------------------------------------------ *)
(* Use-list maintenance                                                *)
(* ------------------------------------------------------------------ *)

let add_use value ~op ~index =
  value.v_uses <- { u_op = op; u_index = index } :: value.v_uses

(* A use is recorded once per (op, operand slot); only the list before
   it is copied. *)
let rec drop_use op index = function
  | [] -> []
  | u :: rest ->
    if u.u_op == op && u.u_index = index then rest
    else u :: drop_use op index rest

let remove_use value ~op ~index =
  value.v_uses <- drop_use op index value.v_uses

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

let create_region () =
  let r =
    { g_id = next_id (); g_blocks = []; g_parent = None; g_self = None }
  in
  r.g_self <- Some r;
  r

(* The values [types] define, numbered from 0. *)
let values_array def types =
  Array.of_list
    (List.mapi
       (fun i t -> { v_id = next_id (); v_type = t; v_def = def i; v_uses = [] })
       types)

let create_block ?(args = []) () =
  let b =
    { b_id = next_id (); b_args = [||]; b_first = None; b_last = None;
      b_parent = None; b_self = None }
  in
  b.b_self <- Some b;
  if args <> [] then b.b_args <- values_array (fun i -> Block_arg (b, i)) args;
  b

let add_block region block =
  block.b_parent <- region.g_self;
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
      o_attrs = attrs; o_regions = [||]; o_parent = None; o_prev = None;
      o_next = None; o_self = None }
  in
  op.o_self <- Some op;
  if operands <> [] then begin
    op.o_operands <- Array.of_list operands;
    for i = 0 to Array.length op.o_operands - 1 do
      add_use op.o_operands.(i) ~op ~index:i
    done
  end;
  (* a single result, the common case, without a closure or a list *)
  (match results with
  | [] -> ()
  | [ t ] ->
    op.o_results <-
      [| { v_id = next_id (); v_type = t; v_def = Op_result (op, 0);
           v_uses = [] } |]
  | _ -> op.o_results <- values_array (fun i -> Op_result (op, i)) results);
  if regions <> [] then begin
    op.o_regions <- Array.of_list regions;
    for i = 0 to Array.length op.o_regions - 1 do
      op.o_regions.(i).g_parent <- op.o_self
    done
  end;
  op

let result ?(index = 0) op = op.o_results.(index)

let results op = Array.to_list op.o_results

let operand ?(index = 0) op = op.o_operands.(index)

let operands op = Array.to_list op.o_operands

let num_operands op = Array.length op.o_operands

let num_results op = Array.length op.o_results

let region ?(index = 0) op = op.o_regions.(index)

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
  op.o_parent <- block.b_self;
  match block.b_last with
  | None ->
    block.b_first <- op.o_self;
    block.b_last <- op.o_self
  | Some last as prev ->
    last.o_next <- op.o_self;
    op.o_prev <- prev;
    block.b_last <- op.o_self

let prepend_to block op =
  unlink op;
  op.o_parent <- block.b_self;
  match block.b_first with
  | None ->
    block.b_first <- op.o_self;
    block.b_last <- op.o_self
  | Some first as next ->
    first.o_prev <- op.o_self;
    op.o_next <- next;
    block.b_first <- op.o_self

let insert_before ~anchor op =
  unlink op;
  let block =
    match anchor.o_parent with
    | Some _ as b -> b
    | None -> invalid_arg "Op.insert_before: anchor not in a block"
  in
  op.o_parent <- block;
  op.o_next <- anchor.o_self;
  op.o_prev <- anchor.o_prev;
  (match (anchor.o_prev, block) with
  | Some p, _ -> p.o_next <- op.o_self
  | None, Some b -> b.b_first <- op.o_self
  | None, None -> ());
  anchor.o_prev <- op.o_self

let insert_after ~anchor op =
  unlink op;
  let block =
    match anchor.o_parent with
    | Some _ as b -> b
    | None -> invalid_arg "Op.insert_after: anchor not in a block"
  in
  op.o_parent <- block;
  op.o_prev <- anchor.o_self;
  op.o_next <- anchor.o_next;
  (match (anchor.o_next, block) with
  | Some n, _ -> n.o_prev <- op.o_self
  | None, Some b -> b.b_last <- op.o_self
  | None, None -> ());
  anchor.o_next <- op.o_self

(* Erase [op]: unlink it and drop its operand uses. The op must itself be
   unused (its results have no remaining uses). *)
let erase op =
  if Array.exists has_uses op.o_results then
    invalid_arg
      (Printf.sprintf "Op.erase: result of %s still has uses" op.o_name);
  for i = 0 to Array.length op.o_operands - 1 do
    remove_use op.o_operands.(i) ~op ~index:i
  done;
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

(* Pre-order walk over [op] and everything nested inside its regions.
   It follows each block's linked list and reads an op's successor
   before visiting the op, so [f] may erase or move the op it is given
   and rewrite anything nested inside it, without a per-block list being
   built. A successor that [f] erased or moved out of the block would
   silently end the walk of that block early, so it raises instead. *)
let rec walk f op =
  f op;
  walk_regions f op.o_regions

and walk_regions f regions =
  for i = 0 to Array.length regions - 1 do
    walk_blocks f (Array.unsafe_get regions i).g_blocks
  done

and walk_blocks f = function
  | [] -> ()
  | b :: rest ->
    walk_ops f b b.b_first;
    walk_blocks f rest

and walk_ops f b = function
  | None -> ()
  | Some op ->
    let next = op.o_next in
    walk f op;
    (match next with
    | Some n -> (
      match n.o_parent with
      | Some p when p == b -> ()
      | _ ->
        invalid_arg
          (Printf.sprintf
             "Op.walk: visiting %s removed its successor %s from the block"
             op.o_name n.o_name))
    | None -> ());
    walk_ops f b next

(* Walk only the ops nested inside [op]'s regions (not [op] itself). *)
let walk_inner f op = walk_regions f op.o_regions

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
  let record (v : value) v' = Hashtbl.replace mapping v.v_id v' in
  let rec clone_op op =
    let regions = Array.map clone_region op.o_regions in
    let c =
      { o_id = next_id (); o_name = op.o_name;
        o_operands = Array.map map_value op.o_operands; o_results = [||];
        o_attrs = op.o_attrs; o_regions = regions; o_parent = None;
        o_prev = None; o_next = None; o_self = None }
    in
    c.o_self <- Some c;
    for i = 0 to Array.length c.o_operands - 1 do
      add_use c.o_operands.(i) ~op:c ~index:i
    done;
    c.o_results <-
      Array.mapi
        (fun i r ->
          let v =
            { v_id = next_id (); v_type = r.v_type; v_def = Op_result (c, i);
              v_uses = [] }
          in
          record r v;
          v)
        op.o_results;
    for i = 0 to Array.length regions - 1 do
      regions.(i).g_parent <- c.o_self
    done;
    c
  and clone_region r =
    let r' = create_region () in
    List.iter
      (fun b ->
        let b' = create_block () in
        b'.b_args <-
          Array.mapi
            (fun i a ->
              let v =
                { v_id = next_id (); v_type = a.v_type;
                  v_def = Block_arg (b', i); v_uses = [] }
              in
              record a v;
              v)
            b.b_args;
        add_block r' b';
        clone_ops b' b.b_first)
      r.g_blocks;
    r'
  and clone_ops b' = function
    | None -> ()
    | Some o ->
      append_to b' (clone_op o);
      clone_ops b' o.o_next
  in
  clone_op op

(* ------------------------------------------------------------------ *)
(* Debug                                                               *)
(* ------------------------------------------------------------------ *)

let to_debug_string op =
  Printf.sprintf "%s(#%d, %d operands, %d results, %d regions)" op.o_name
    op.o_id (Array.length op.o_operands) (Array.length op.o_results)
    (Array.length op.o_regions)
