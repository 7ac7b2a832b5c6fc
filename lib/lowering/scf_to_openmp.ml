(* convert-scf-to-openmp: rewrites top-level scf.parallel loops into
   omp.parallel { omp.wsloop } — this is how the paper auto-parallelises
   unchanged serial Fortran for the Figure 3/4 experiments. *)

open Fsc_ir
module Scf = Fsc_dialects.Scf
module Openmp = Fsc_dialects.Openmp

let convert ?num_threads par =
  let lbs, ubs, steps = Scf.parallel_bounds par in
  let body = Scf.body_block par in
  let b = Builder.before par in
  ignore
    (Openmp.parallel b ?num_threads (fun pb ->
         ignore
           (Openmp.wsloop pb ~lbs ~ubs ~steps (fun wb ivs ->
                let mapping = Hashtbl.create 8 in
                List.iteri
                  (fun d (arg : Op.value) ->
                    Hashtbl.replace mapping arg.Op.v_id (List.nth ivs d))
                  (Op.block_args body);
                List.iter
                  (fun op ->
                    if op.Op.o_name <> "scf.yield" then
                      ignore (Builder.insert wb (Op.clone ~mapping op)))
                  (Op.block_ops body)))));
  Op.erase par

let run ?num_threads m =
  let parallels =
    Op.collect_ops
      (fun o ->
        o.Op.o_name = "scf.parallel"
        &&
        match Op.parent_op o with
        | Some p ->
          p.Op.o_name <> "scf.parallel" && p.Op.o_name <> "omp.wsloop"
          && p.Op.o_name <> "omp.parallel"
        | None -> true)
      m
  in
  List.iter (convert ?num_threads) parallels;
  List.length parallels
