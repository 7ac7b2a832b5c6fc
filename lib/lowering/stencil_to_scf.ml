(* Lowering of the stencil dialect to scf loops over memrefs — the xDSL
   "stencil lowering" box of the paper's Figure 1. One source, two modes
   (Section 3): for CPU the outermost loop becomes scf.parallel and inner
   loops scf.for; for GPU the whole iteration space is coalesced into a
   single multi-dimensional scf.parallel ready for block/thread mapping.

   Dimension order: dim 0 is the contiguous (Fortran-first) dimension, so
   loops are emitted outermost = highest dimension, innermost = dim 0. *)

open Fsc_ir
module Stencil = Fsc_stencil.Stencil
module Arith = Fsc_dialects.Arith
module Scf = Fsc_dialects.Scf
module Memref = Fsc_dialects.Memref

type mode =
  | Cpu
  | Gpu

(* The memref behind a field/temp value, following external_load/load. *)
let rec backing_memref (v : Op.value) =
  match Op.defining_op v with
  | Some op when op.Op.o_name = "stencil.external_load" -> Op.operand op
  | Some op when op.Op.o_name = "stencil.load" ->
    backing_memref (Op.operand op)
  | Some op when op.Op.o_name = "stencil.cast" ->
    backing_memref (Op.operand op)
  | _ -> invalid_arg "Stencil_to_scf.backing_memref"

(* Stores consuming the results of [apply]: (result index, store op). *)
let stores_of_apply apply =
  List.concat
    (List.mapi
       (fun i (r : Op.value) ->
         List.filter_map
           (fun (u : Op.use) ->
             if Stencil.is_store u.Op.u_op then Some (i, u.Op.u_op)
             else None)
           r.Op.v_uses)
       (Op.results apply))

(* Emit the computation for one grid cell: clone the apply body with
   stencil ops rewritten to memref accesses at [idxs] (absolute cell
   position, ordered by dimension). *)
let lower_cell b apply ~idxs ~stores =
  let body = Stencil.apply_body apply in
  let args = Op.block_args body in
  let mapping : (int, Op.value) Hashtbl.t = Hashtbl.create 32 in
  (* apply operands: temps map to their memref, scalars map through *)
  List.iteri
    (fun i (arg : Op.value) ->
      let input = Op.operand ~index:i apply in
      match Op.value_type input with
      | Types.Stencil_temp _ | Types.Stencil_field _ ->
        Hashtbl.replace mapping arg.Op.v_id (backing_memref input)
      | _ -> Hashtbl.replace mapping arg.Op.v_id input)
    args;
  let lookup (v : Op.value) =
    match Hashtbl.find_opt mapping v.Op.v_id with
    | Some v' -> v'
    | None -> v
  in
  let offset_index d off =
    let base = List.nth idxs d in
    if off = 0 then base
    else begin
      let c = Arith.constant_index b off in
      Builder.op1 b "arith.addi" ~operands:[ base; c ]
        ~results:[ Types.Index ]
    end
  in
  List.iter
    (fun op ->
      match op.Op.o_name with
      | "stencil.access" ->
        let mr = lookup (Op.operand op) in
        let offsets = Stencil.access_offset op in
        let indices = List.mapi offset_index offsets in
        let v = Memref.load b mr indices in
        Hashtbl.replace mapping (Op.result op).Op.v_id v
      | "stencil.index" ->
        let d = Attr.as_int (Op.attr_exn op "dim") in
        Hashtbl.replace mapping (Op.result op).Op.v_id (List.nth idxs d)
      | "stencil.return" ->
        let values = List.map lookup (Op.operands op) in
        List.iter
          (fun (result_idx, store_op) ->
            let out_mr = backing_memref (Op.operand ~index:1 store_op) in
            Memref.store b (List.nth values result_idx) out_mr idxs)
          stores
      | _ ->
        let c = Op.clone ~mapping op in
        ignore (Builder.insert b c);
        Array.iteri
          (fun i (r : Op.value) ->
            Hashtbl.replace mapping r.Op.v_id c.Op.o_results.(i))
          op.Op.o_results)
    (Op.block_ops body)

(* Lower one apply (plus its stores) to loops inserted before it. *)
let lower_apply ~mode apply =
  let stores = stores_of_apply apply in
  if stores = [] then invalid_arg "Stencil_to_scf: apply without store";
  let lb, ub = Stencil.store_bounds (snd (List.hd stores)) in
  let rank = List.length lb in
  let b = Builder.before apply in
  let lbs = List.map (Arith.constant_index b) lb in
  (* scf loop bounds are exclusive *)
  let ubs = List.map (fun u -> Arith.constant_index b (u + 1)) ub in
  let step = Arith.constant_index b 1 in
  (match mode with
  | Gpu ->
    (* one coalesced scf.parallel over every dimension, outermost dim
       first so dim 0 stays fastest-varying *)
    let order = List.init rank (fun i -> rank - 1 - i) in
    let sel xs = List.map (List.nth xs) order in
    ignore
      (Scf.parallel b ~lbs:(sel lbs) ~ubs:(sel ubs)
         ~steps:(List.map (fun _ -> step) order)
         (fun inner ivs ->
           (* ivs arrive outermost-first; rebuild dimension order *)
           let idxs =
             List.init rank (fun d ->
                 List.nth ivs (rank - 1 - d))
           in
           lower_cell inner apply ~idxs ~stores))
  | Cpu ->
    (* outermost dimension parallel, inner dimensions serial *)
    let outer_d = rank - 1 in
    ignore
      (Scf.parallel b
         ~lbs:[ List.nth lbs outer_d ]
         ~ubs:[ List.nth ubs outer_d ]
         ~steps:[ step ]
         (fun pb pivs ->
           let outer_iv = List.hd pivs in
           (* nested scf.for from dim rank-2 down to dim 0 *)
           let rec nest bld d idxs_acc =
             if d < 0 then
               lower_cell bld apply ~idxs:idxs_acc ~stores
             else begin
               let lb_d = List.nth lbs d and ub_d = List.nth ubs d in
               ignore
                 (Scf.for_ bld ~lb:lb_d ~ub:ub_d ~step (fun fb iv _ ->
                      nest fb (d - 1) (replace_nth idxs_acc d iv);
                      []))
             end
           and replace_nth xs i v = List.mapi (fun j x -> if j = i then v else x) xs
           in
           let init_idxs =
             List.init rank (fun d ->
                 if d = outer_d then outer_iv else outer_iv (* placeholder *))
           in
           nest pb (rank - 2) init_idxs)));
  (* erase the stencil ops this apply involved *)
  List.iter (fun (_, s) -> Op.erase s) stores;
  List.iter
    (fun (r : Op.value) ->
      if Op.has_uses r then
        invalid_arg "Stencil_to_scf: apply result has non-store use")
    (Op.results apply);
  Op.erase apply

(* Remove now-dead stencil plumbing (external_load/load/cast). *)
let cleanup func =
  let rec sweep () =
    let removed = ref false in
    Op.walk_inner
      (fun op ->
        if
          List.mem op.Op.o_name
            [ "stencil.external_load"; "stencil.load"; "stencil.cast" ]
          && (not (List.exists Op.has_uses (Op.results op)))
          && Op.parent_block op <> None
        then begin
          Op.erase op;
          removed := true
        end)
      func;
    if !removed then sweep ()
  in
  sweep ()

let run ~mode m =
  Op.walk
    (fun op ->
      if op.Op.o_name = "func.func" then begin
        let applies = Op.collect_ops Stencil.is_apply op in
        List.iter (lower_apply ~mode) applies;
        cleanup op
      end)
    m
