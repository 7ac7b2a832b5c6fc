(* Stencil merging (Listing 3 line 29): adjacent stencil.apply operations
   that share lower and upper bounds are fused into a single apply. This
   is what turns the PW advection benchmark's three loop nests into one
   stencil region (Section 4.1 of the paper), saving two full passes over
   memory per iteration.

   Safety: apply B may be fused into apply A only if B does not read any
   array that A writes (the write only becomes visible through memory via
   stencil.store, which conceptually happens after the whole region). *)

open Fsc_ir
module Stencil = Fsc_stencil.Stencil

(* The array root behind a temp input (temp <- load <- external_load). *)
let rec input_root (v : Op.value) : Op.value option =
  match Op.defining_op v with
  | Some op when op.Op.o_name = "stencil.load" ->
    input_root (Op.operand op)
  | Some op when op.Op.o_name = "stencil.external_load" ->
    Some (Op.operand op)
  | _ -> None

(* Arrays written by an apply: roots of the fields its results are stored
   to. *)
let output_roots apply =
  List.concat_map
    (fun (r : Op.value) ->
      List.filter_map
        (fun (u : Op.use) ->
          if Stencil.is_store u.Op.u_op then
            match Op.defining_op (Op.operand ~index:1 u.Op.u_op) with
            | Some fl when fl.Op.o_name = "stencil.external_load" ->
              Some (Op.operand fl)
            | _ -> None
          else None)
        r.Op.v_uses)
    (Op.results apply)

let apply_out_bounds apply =
  match Op.results apply with
  | r :: _ -> Stencil.type_bounds (Op.value_type r)
  | [] -> invalid_arg "apply_out_bounds"

(* Are [a] and [b] adjacent enough to merge? Everything between them in
   the block must be stencil plumbing or pure ops (no intervening FIR
   side effects). *)
let only_plumbing_between a b_op =
  let rec go o =
    match o.Op.o_next with
    | None -> false
    | Some n ->
      if n == b_op then true
      else if
        List.mem n.Op.o_name
          [ "stencil.external_load"; "stencil.load"; "stencil.store";
            "arith.constant"; "fir.load" ]
        || Dialect.op_is_pure n
      then go n
      else false
  in
  go a

let can_merge a b =
  apply_out_bounds a = apply_out_bounds b
  && only_plumbing_between a b
  &&
  let a_outs = output_roots a in
  let b_in_roots =
    List.filter_map input_root (Op.operands b)
  in
  not
    (List.exists
       (fun out -> List.exists (fun i -> i == out) b_in_roots)
       a_outs)

(* Fuse [b_op] into [a]: a new apply with the union of inputs and the
   concatenation of results, inserted where [a] stood. B's input plumbing
   (pure loads) is hoisted before A first so every fused operand
   dominates the fusion point. *)
let fuse a b_op =
  List.iter (Op.hoist_chain_before ~anchor:a) (Op.operands b_op);
  let inputs_a = Op.operands a and inputs_b = Op.operands b_op in
  let inputs =
    List.fold_left
      (fun acc v -> if List.exists (fun w -> w == v) acc then acc
        else acc @ [ v ])
      inputs_a inputs_b
  in
  let builder = Builder.before a in
  let result_types =
    List.map Op.value_type (Op.results a @ Op.results b_op)
  in
  let arg_types = List.map Op.value_type inputs in
  let region, blk = Op.region_with_block ~args:arg_types () in
  let mapping = Hashtbl.create 32 in
  let new_args = Op.block_args blk in
  let bind_args src_apply =
    let body = Stencil.apply_body src_apply in
    List.iteri
      (fun i (arg : Op.value) ->
        let input = Op.operand ~index:i src_apply in
        let j =
          match
            List.find_index (fun v -> v == input) inputs
          with
          | Some j -> j
          | None -> assert false
        in
        Hashtbl.replace mapping arg.Op.v_id (List.nth new_args j))
      (Op.block_args body)
  in
  bind_args a;
  bind_args b_op;
  (* Clone both bodies (minus terminators), remember returned values. *)
  let clone_body src_apply =
    let body = Stencil.apply_body src_apply in
    let returned = ref [] in
    List.iter
      (fun op ->
        if op.Op.o_name = "stencil.return" then
          returned :=
            List.map
              (fun (v : Op.value) ->
                match Hashtbl.find_opt mapping v.Op.v_id with
                | Some v' -> v'
                | None -> v)
              (Op.operands op)
        else begin
          let c = Op.clone ~mapping op in
          Op.append_to blk c
        end)
      (Op.block_ops body);
    !returned
  in
  let ret_a = clone_body a in
  let ret_b = clone_body b_op in
  ignore (Builder.op (Builder.at_end blk) "stencil.return"
            ~operands:(ret_a @ ret_b));
  let fused =
    Builder.insert builder
      (Op.create "stencil.apply" ~operands:inputs ~results:result_types
         ~regions:[ region ])
  in
  (* Rewire results. *)
  let fused_results = Op.results fused in
  List.iteri
    (fun i (r : Op.value) ->
      Op.replace_all_uses_with r (List.nth fused_results i))
    (Op.results a);
  let na = Op.num_results a in
  List.iteri
    (fun i (r : Op.value) ->
      Op.replace_all_uses_with r (List.nth fused_results (na + i)))
    (Op.results b_op);
  Op.erase a;
  Op.erase b_op;
  fused

(* Merge until fixpoint within every block of [m]. *)
let run m =
  let merged = ref 0 in
  let rec try_block block =
    let applies =
      List.filter Stencil.is_apply (Op.block_ops block)
    in
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        if can_merge a b then begin
          ignore (fuse a b);
          incr merged;
          true
        end
        else pairs rest
      | _ -> false
    in
    if pairs applies then try_block block
  in
  Op.walk
    (fun op ->
      Array.iter
        (fun r -> List.iter try_block r.Op.g_blocks)
        op.Op.o_regions)
    m;
  !merged
