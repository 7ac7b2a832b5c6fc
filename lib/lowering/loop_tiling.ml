(* scf-parallel-loop-tiling{parallel-loop-tile-sizes=...}: splits an
   scf.parallel into an outer parallel over tile origins (step = tile
   size) and an inner parallel over intra-tile offsets bounded by
   min(tile, remaining). The paper found GPU performance — and even
   correctness — sensitive to these sizes; 32,32,1 performed well across
   kernels (Section 3). *)

open Fsc_ir
module Arith = Fsc_dialects.Arith
module Scf = Fsc_dialects.Scf

let tile_one ~tile_sizes par =
  let lbs, ubs, steps = Scf.parallel_bounds par in
  let rank = List.length lbs in
  let sizes =
    List.init rank (fun i ->
        if i < List.length tile_sizes then List.nth tile_sizes i else 1)
  in
  let b = Builder.before par in
  let size_consts = List.map (Arith.constant_index b) sizes in
  (* outer: same bounds, step = original step * tile size *)
  let outer_steps =
    List.map2 (fun s c -> Arith.muli b s c) steps size_consts
  in
  let body = Scf.body_block par in
  let outer =
    Scf.parallel b ~lbs ~ubs ~steps:outer_steps (fun ob oivs ->
        (* inner parallel over [0, min(size, ub - oiv)) step original *)
        let inner_ubs =
          List.mapi
            (fun i oiv ->
              let ub = List.nth ubs i and sz = List.nth size_consts i in
              let remaining =
                Builder.op1 ob "arith.subi" ~operands:[ ub; oiv ]
                  ~results:[ Types.Index ]
              in
              Builder.op1 ob "arith.minsi" ~operands:[ sz; remaining ]
                ~results:[ Types.Index ])
            oivs
        in
        let zero = Arith.constant_index ob 0 in
        ignore
          (Scf.parallel ob
             ~lbs:(List.map (fun _ -> zero) oivs)
             ~ubs:inner_ubs ~steps
             (fun ib iivs ->
               (* absolute index = outer + inner *)
               let idxs =
                 List.map2
                   (fun o i ->
                     Builder.op1 ib "arith.addi" ~operands:[ o; i ]
                       ~results:[ Types.Index ])
                   oivs iivs
               in
               (* splice the original body, remapping its ivs *)
               let mapping = Hashtbl.create 8 in
               List.iteri
                 (fun d (arg : Op.value) ->
                   Hashtbl.replace mapping arg.Op.v_id (List.nth idxs d))
                 (Op.block_args body);
               List.iter
                 (fun op ->
                   if op.Op.o_name <> "scf.yield" then begin
                     let c = Op.clone ~mapping op in
                     ignore (Builder.insert ib c)
                   end)
                 (Op.block_ops body))))
  in
  Op.set_attr outer "tiled" Attr.Unit_a;
  Op.set_attr outer "tile_sizes"
    (Attr.Arr_a (List.map (fun s -> Attr.Int_a s) sizes));
  Op.erase par

(* Tiles every *top-level* scf.parallel (not ones already produced by
   tiling). *)
let run ~tile_sizes m =
  let parallels =
    Op.collect_ops
      (fun o ->
        o.Op.o_name = "scf.parallel"
        && (not (Op.has_attr o "tiled"))
        && (match Op.parent_op o with
           | Some p -> p.Op.o_name <> "scf.parallel"
           | None -> true))
      m
  in
  List.iter (tile_one ~tile_sizes) parallels

let pass ~tile_sizes =
  Pass.create
    (Printf.sprintf "scf-parallel-loop-tiling{parallel-loop-tile-sizes=%s}"
       (String.concat "," (List.map string_of_int tile_sizes)))
    (fun m -> run ~tile_sizes m)
