(* FIR -> standard dialects: the paper's fourth further-work item.

   "We believe that it would be worth exploring the potential of lowering
   FIR into the standard MLIR dialects rather than directly to LLVM-IR.
   This could reduce the maintenance burden ... and would also aid in
   bringing additional dialects into the Flang ecosystem." (Section 6)

   This pass translates a FIR module into scf/memref/arith/math/func:

   - fir.alloca of a scalar        -> memref.alloca of memref<1xT>
   - fir.alloca/allocmem of arrays -> memref.alloca / memref.alloc
   - the heap pointer cell         -> store-forwarded away (mem2reg-lite:
     flow-sensitive forwarding is sound in this structured IR because a
     store textually dominates the loads it feeds)
   - fir.coordinate_of + load/store -> memref.load / memref.store
   - fir.do_loop                   -> scf.for (exclusive upper bound)
   - fir.if / fir.result           -> scf.if / scf.yield
   - fir.convert                   -> arith casts; reference-to-pointer
     conversions at kernel-call boundaries become
     builtin.unrealized_conversion_cast (memref -> !llvm.ptr)
   - fir.no_reassoc                -> dropped
   - fir.call                      -> func.call

   fir.print (list-directed I/O) has no standard-dialect equivalent and
   is kept; everything computational leaves the fir dialect. Functions
   using constructs outside this set (fir.iterate_while, escaping element
   references) are copied unchanged and reported. *)

open Fsc_ir
module Arith = Fsc_dialects.Arith
module Scf = Fsc_dialects.Scf
module Memref = Fsc_dialects.Memref
module Func = Fsc_dialects.Func

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

(* how a FIR value is represented after translation *)
type repr =
  | Direct of Op.value (* scalar SSA value, or a memref for arrays *)
  | Scalar_cell of Op.value (* memref<1xT> holding a mutable scalar *)
  | Heap_cell of Op.value option ref (* forwarded allocmem result *)
  | Elem of Op.value * Op.value list (* memref + indices, from coordinate_of *)

type env = {
  mutable reprs : (int, repr) Hashtbl.t;
}

let lookup env (v : Op.value) =
  match Hashtbl.find_opt env.reprs v.Op.v_id with
  | Some r -> r
  | None -> unsupported "untranslated value %%#%d" v.Op.v_id

let direct env v =
  match lookup env v with
  | Direct d -> d
  | Scalar_cell _ | Heap_cell _ | Elem _ ->
    unsupported "reference used as a value"

let memref_elem_type t =
  match t with
  | Types.Fir_array (dims, elem) ->
    Types.Memref (dims, elem)
  | t when Types.is_scalar t -> Types.Memref ([ Types.Static 1 ], t)
  | t -> unsupported "cannot lower allocation of %s" (Types.to_string t)

let rec translate_block env b block =
  List.iter (fun op -> translate_op env b op) (Op.block_ops block)

and bind env (old : Op.value) repr = Hashtbl.replace env.reprs old.Op.v_id repr

and translate_op env b (op : Op.op) =
  let operand i = Op.operand ~index:i op in
  (* keep the Fortran variable name so drivers/tests can find grids *)
  let name_attrs () =
    match Op.attr op "bindc_name" with
    | Some a -> [ ("bindc_name", a) ]
    | None -> []
  in
  match op.Op.o_name with
  | "fir.alloca" -> (
    match Op.attr_exn op "in_type" with
    | Attr.Type_a (Types.Fir_array _ as t) ->
      let mr =
        Builder.op1 b "memref.alloca" ~results:[ memref_elem_type t ]
          ~attrs:(name_attrs ())
      in
      bind env (Op.result op) (Direct mr)
    | Attr.Type_a (Types.Fir_heap _) ->
      bind env (Op.result op) (Heap_cell (ref None))
    | Attr.Type_a t when Types.is_scalar t ->
      let mr =
        Builder.op1 b "memref.alloca" ~results:[ memref_elem_type t ]
      in
      bind env (Op.result op) (Scalar_cell mr)
    | _ -> unsupported "fir.alloca shape")
  | "fir.allocmem" -> (
    match Op.attr_exn op "in_type" with
    | Attr.Type_a (Types.Fir_array _ as t) ->
      let mr =
        Builder.op1 b "memref.alloc" ~results:[ memref_elem_type t ]
          ~attrs:(name_attrs ())
      in
      bind env (Op.result op) (Direct mr)
    | _ -> unsupported "fir.allocmem shape")
  | "fir.freemem" -> Memref.dealloc b (direct env (operand 0))
  | "fir.store" -> (
    let target = lookup env (operand 1) in
    match target with
    | Heap_cell slot ->
      (* forward the stored memref; no code emitted *)
      slot := Some (direct env (operand 0))
    | Scalar_cell mr ->
      let zero = Arith.constant_index b 0 in
      Memref.store b (direct env (operand 0)) mr [ zero ]
    | Elem (mr, idxs) -> Memref.store b (direct env (operand 0)) mr idxs
    | Direct _ -> unsupported "store to a non-reference")
  | "fir.load" -> (
    match lookup env (operand 0) with
    | Heap_cell { contents = Some mr } -> bind env (Op.result op) (Direct mr)
    | Heap_cell { contents = None } ->
      unsupported "load of unset heap cell (allocate not seen yet)"
    | Scalar_cell mr ->
      let zero = Arith.constant_index b 0 in
      bind env (Op.result op) (Direct (Memref.load b mr [ zero ]))
    | Elem (mr, idxs) ->
      bind env (Op.result op) (Direct (Memref.load b mr idxs))
    | Direct mr ->
      (* loading a dummy-argument reference: scalars arrive as
         memref<1xT> (by-reference) *)
      (match Op.value_type mr with
      | Types.Memref ([ Types.Static 1 ], _) ->
        let zero = Arith.constant_index b 0 in
        bind env (Op.result op) (Direct (Memref.load b mr [ zero ]))
      | _ -> bind env (Op.result op) (Direct mr)))
  | "fir.coordinate_of" ->
    let base =
      match lookup env (operand 0) with
      | Direct mr -> mr
      | Heap_cell { contents = Some mr } -> mr
      | _ -> unsupported "coordinate_of base"
    in
    let idxs =
      List.init (Op.num_operands op - 1) (fun i -> direct env (operand (i + 1)))
    in
    (* element references must be consumed by load/store only *)
    List.iter
      (fun (u : Op.use) ->
        match u.Op.u_op.Op.o_name with
        | "fir.load" | "fir.store" -> ()
        | name -> unsupported "element reference escapes into %s" name)
      (Op.result op).Op.v_uses;
    bind env (Op.result op) (Elem (base, idxs))
  | "fir.convert" -> (
    let from_t = Op.value_type (operand 0) in
    let to_t = Op.value_type (Op.result op) in
    match (from_t, to_t) with
    | _, Types.Fir_llvm_ptr _ | _, Types.Llvm_ptr ->
      (* reference -> pointer at a kernel-call boundary *)
      let mr =
        match lookup env (operand 0) with
        | Direct mr -> mr
        | Heap_cell { contents = Some mr } -> mr
        | _ -> unsupported "pointer conversion of non-array"
      in
      bind env (Op.result op)
        (Direct
           (Builder.op1 b "builtin.unrealized_conversion_cast"
              ~operands:[ mr ] ~results:[ Types.Llvm_ptr ]))
    | _ ->
      let v = direct env (operand 0) in
      bind env (Op.result op)
        (Direct (Fsc_core.Fir_to_std.std_convert b v to_t)))
  | "fir.no_reassoc" ->
    bind env (Op.result op) (Direct (direct env (operand 0)))
  | "fir.do_loop" ->
    let lb = direct env (operand 0) in
    let ub = direct env (operand 1) in
    let step = direct env (operand 2) in
    if Op.num_operands op > 3 then unsupported "do_loop iter_args";
    let one = Arith.constant_index b 1 in
    let ub_excl =
      Builder.op1 b "arith.addi" ~operands:[ ub; one ]
        ~results:[ Types.Index ]
    in
    let body = Fsc_fir.Fir.do_loop_body op in
    ignore
      (Scf.for_ b ~lb ~ub:ub_excl ~step (fun inner iv _ ->
           bind env (Op.block_arg ~index:0 body) (Direct iv);
           translate_block env inner body;
           []))
  | "fir.if" ->
    let cond = direct env (operand 0) in
    let then_region = Op.region ~index:0 op in
    let else_fn =
      if Array.length op.Op.o_regions > 1 then
        Some
          (fun eb ->
            translate_block env eb
              (List.hd (Op.region ~index:1 op).Op.g_blocks))
      else None
    in
    ignore
      (Scf.if_ b cond ?else_:else_fn (fun tb ->
           translate_block env tb (List.hd then_region.Op.g_blocks)))
  | "fir.result" ->
    if Op.num_operands op > 0 then unsupported "fir.result with values"
  | "fir.call" ->
    let args =
      List.map
        (fun (v : Op.value) ->
          match lookup env v with
          | Direct d -> d
          | Scalar_cell mr -> mr
          | Heap_cell { contents = Some mr } -> mr
          | _ -> unsupported "call argument")
        (Op.operands op)
    in
    let call =
      Func.call b
        ~callee:(Op.string_attr op "callee")
        ~results:(List.map Op.value_type (Op.results op))
        args
    in
    List.iteri
      (fun i (r : Op.value) ->
        bind env r (Direct (Op.result ~index:i call)))
      (Op.results op)
  | "fir.print" ->
    (* list-directed I/O has no standard equivalent; keep it *)
    let operands = List.map (fun v -> direct env v) (Op.operands op) in
    ignore (Builder.op b "fir.print" ~operands ~attrs:op.Op.o_attrs)
  | "func.return" ->
    Func.return_ b (List.map (fun v -> direct env v) (Op.operands op))
  | "fir.exit" | "fir.cycle" | "fir.iterate_while" ->
    unsupported "%s has no scf lowering here" op.Op.o_name
  | name when Dialect.in_dialect name "arith"
              || Dialect.in_dialect name "math" ->
    let operands = List.map (fun v -> direct env v) (Op.operands op) in
    let c =
      Builder.op b name ~operands
        ~results:(List.map Op.value_type (Op.results op))
        ~attrs:op.Op.o_attrs
    in
    List.iteri
      (fun i (r : Op.value) -> bind env r (Direct (Op.result ~index:i c)))
      (Op.results op)
  | name -> unsupported "no standard lowering for %s" name

(* FIR reference argument types become memrefs. *)
let translate_arg_type t =
  match t with
  | Types.Fir_ref (Types.Fir_array (dims, elem)) -> Types.Memref (dims, elem)
  | Types.Fir_ref s when Types.is_scalar s ->
    Types.Memref ([ Types.Static 1 ], s)
  | t -> t

let translate_func f =
  let args, results = Func.signature f in
  let new_args = List.map translate_arg_type args in
  let env = { reprs = Hashtbl.create 64 } in
  Func.func
    ~name:(Func.name f)
    ~attrs:(List.remove_assoc "function_type"
              (List.remove_assoc "sym_name" f.Op.o_attrs))
    ~args:new_args ~results
    (fun b new_vals ->
      let entry = Func.entry_block f in
      List.iteri
        (fun i (old : Op.value) ->
          let nv = List.nth new_vals i in
          match Op.value_type old with
          | Types.Fir_ref (Types.Fir_array _) -> bind env old (Direct nv)
          | Types.Fir_ref s when Types.is_scalar s ->
            bind env old (Scalar_cell nv)
          | _ -> bind env old (Direct nv))
        (Op.block_args entry);
      translate_block env b entry)

type result = {
  lowered : Op.op; (* the new module *)
  skipped : (string * string) list; (* function, reason *)
}

(* Translate every function of [m] into a fresh module. Functions outside
   the supported set are cloned unchanged and reported. *)
let run m =
  let out = Op.create_module () in
  let blk = Op.module_block out in
  let skipped = ref [] in
  List.iter
    (fun f ->
      match translate_func f with
      | nf -> Op.append_to blk nf
      | exception Unsupported reason ->
        skipped := (Func.name f, reason) :: !skipped;
        Op.append_to blk (Op.clone f))
    (Func.all_functions m);
  { lowered = out; skipped = List.rev !skipped }
