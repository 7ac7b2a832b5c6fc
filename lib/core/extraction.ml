(* Stencil extraction (Section 3 of the paper).

   After discovery the IR mixes FIR with the stencil dialect — but Flang
   does not register the stencil/memref/builtin dialects and mlir-opt does
   not register FIR, so the module must be split: every stencil section is
   lifted into a function in a *separate* module, compiled by the
   mlir-opt-style flow, and invoked from FIR through a plain call.

   Data crosses the boundary as pointers: the host side converts each
   array reference to !fir.llvm_ptr<i8> (fir.convert — the only pointer
   type FIR can reach), while the kernel side receives !llvm.ptr and
   rebuilds a memref via builtin.unrealized_conversion_cast. The types are
   nominally different but semantically identical; as in the paper, the
   mismatch is only reconciled at link time (our runtime linker accepts
   it, and the dialect-registration verifier shows why neither module
   could hold both halves). *)

open Fsc_ir
module Stencil = Fsc_stencil.Stencil

type kernel_arg =
  | K_array of { extents : int list; elem : Types.t }
  | K_scalar of Types.t

type kernel_info = {
  k_name : string;
  k_args : kernel_arg list;
}

type extracted = {
  host_module : Op.op;
  stencil_module : Op.op;
  kernels : kernel_info list;
}

let is_stencil_op op =
  Dialect.in_dialect op.Op.o_name "stencil"

(* A section: the maximal consecutive run of ops in one block starting at
   a stencil op, spanning to the last stencil op such that any interposed
   non-stencil op is pure plumbing. *)
let find_sections block =
  let ops = Op.block_ops block in
  let rec go acc current = function
    | [] -> (
      match current with
      | [] -> List.rev acc
      | c -> List.rev (List.rev c :: acc))
    | op :: rest ->
      if is_stencil_op op then go acc (op :: current) rest
      else if
        current <> []
        && List.exists is_stencil_op rest
        && (Dialect.op_is_pure op || op.Op.o_name = "fir.load")
      then
        (* host-side plumbing interleaved in the section: skip over it;
           it stays in the host module *)
        go acc current rest
      else if current <> [] then go (List.rev current :: acc) [] rest
      else go acc [] rest
  in
  go [] [] ops

(* Array extents encoded in a field type (bounds are zero-based). *)
let field_extents t =
  List.map (fun (lo, hi) -> hi - lo + 1) (Stencil.type_bounds t)

let memref_type_of_field t =
  Types.Memref
    ( List.map (fun e -> Types.Static e) (field_extents t),
      Stencil.type_elem t )

(* Atomic so concurrent compiles (the job server) never mint the same
   name; resetting remains a serial-caller affair. *)
let kernel_counter = Atomic.make 0

let fresh_kernel_name () =
  Printf.sprintf "_stencil_kernel_%d" (Atomic.fetch_and_add kernel_counter 1)

(* Extract one section from [block] into a kernel function appended to
   [stencil_block]. Returns kernel metadata. *)
let extract_section ~stencil_block section =
  let kname = fresh_kernel_name () in
  (* Free values: operands of section ops defined outside the section. *)
  let in_section op = List.exists (fun o -> o == op) section in
  let free = ref [] in
  List.iter
    (fun op ->
      Array.iter
        (fun (v : Op.value) ->
          let defined_inside =
            match Op.defining_op v with
            | Some d -> in_section d
            | None -> false
          in
          if
            (not defined_inside)
            && not (List.exists (fun w -> w == v) !free)
          then free := v :: !free)
        op.Op.o_operands)
    section;
  let free = List.rev !free in
  (* Classify free values: array references (external_load operands) vs
     scalars. *)
  let classify (v : Op.value) =
    match Op.value_type v with
    | Types.Fir_ref (Types.Fir_array _)
    | Types.Fir_ref (Types.Fir_heap (Types.Fir_array _))
    | Types.Fir_heap (Types.Fir_array _) ->
      `Array
    | t when Types.is_scalar t -> `Scalar
    | t ->
      invalid_arg
        ("Extraction: cannot pass value of type " ^ Types.to_string t
        ^ " across the module boundary")
  in
  (* Field type each array is loaded at (from its external_load use in the
     section). *)
  let field_type_of v =
    let found = ref None in
    List.iter
      (fun op ->
        if
          op.Op.o_name = "stencil.external_load"
          && Op.operand op == v
        then found := Some (Op.value_type (Op.result op)))
      section;
    match !found with
    | Some t -> t
    | None ->
      invalid_arg "Extraction: array free value without external_load"
  in
  let args_info =
    List.map
      (fun v ->
        match classify v with
        | `Array ->
          let ft = field_type_of v in
          (v, K_array { extents = field_extents ft;
                        elem = Stencil.type_elem ft })
        | `Scalar -> (v, K_scalar (Op.value_type v)))
      free
  in
  (* Kernel function: one !llvm.ptr per array, value type per scalar. *)
  let kernel_arg_types =
    List.map
      (fun (_, k) ->
        match k with K_array _ -> Types.Llvm_ptr | K_scalar t -> t)
      args_info
  in
  let anchor = List.hd section in
  (* host-side plumbing interleaved in the section (hoisted scalar loads)
     must dominate the trampoline call we are about to insert *)
  List.iter
    (fun (v, _) -> Op.hoist_chain_before ~anchor v)
    args_info;
  let host_b = Builder.before anchor in
  (* Host-side marshalling: convert array refs to !fir.llvm_ptr<i8>. *)
  let host_args =
    List.map
      (fun (v, k) ->
        match k with
        | K_array _ -> (
          match Op.value_type v with
          | Types.Fir_ref (Types.Fir_heap _) ->
            let data = Fsc_fir.Fir.load host_b v in
            Fsc_fir.Fir.convert host_b
              ~to_:(Types.Fir_llvm_ptr Types.I8) data
          | _ ->
            Fsc_fir.Fir.convert host_b
              ~to_:(Types.Fir_llvm_ptr Types.I8) v)
        | K_scalar _ -> v)
      args_info
  in
  ignore
    (Builder.op host_b "fir.call" ~operands:host_args
       ~attrs:[ ("callee", Attr.Sym_a kname) ]);
  (* Kernel body: rebuild memrefs, then move the section ops in. *)
  let kernel =
    Fsc_dialects.Func.func ~name:kname ~args:kernel_arg_types ~results:[]
      (fun kb kargs ->
        let mapping = Hashtbl.create 16 in
        List.iteri
          (fun i (v, k) ->
            let karg = List.nth kargs i in
            match k with
            | K_array _ ->
              let ft = field_type_of v in
              let mr =
                Builder.op1 kb "builtin.unrealized_conversion_cast"
                  ~operands:[ karg ]
                  ~results:[ memref_type_of_field ft ]
              in
              Hashtbl.replace mapping v.Op.v_id mr
            | K_scalar _ -> Hashtbl.replace mapping v.Op.v_id karg)
          args_info;
        (* Move (clone) section ops into the kernel, then erase originals.
           Cloning keeps value identity bookkeeping simple. *)
        let blk = Builder.block kb in
        List.iter
          (fun op ->
            let c = Op.clone ~mapping op in
            Op.append_to blk c)
          section;
        Fsc_dialects.Func.return_ kb [])
  in
  Op.append_to stencil_block kernel;
  (* Erase the originals, last-to-first so consumers go before their
     producers. Any use from outside the section would be a bug in
     discovery (stencil values never escape their section). *)
  List.iter
    (fun op ->
      List.iter
        (fun (r : Op.value) ->
          List.iter
            (fun (u : Op.use) ->
              if not (in_section u.Op.u_op) then
                invalid_arg
                  "Extraction: stencil result used outside section")
            r.Op.v_uses)
        (Op.results op))
    section;
  List.iter Op.erase (List.rev section);
  { k_name = kname;
    k_args = List.map snd args_info }

(* Split [m]: mutates it into the host module and returns the stencil
   module alongside. *)
let run m =
  let stencil_module = Op.create_module () in
  let stencil_block = Op.module_block stencil_module in
  let kernels = ref [] in
  let rec process_block block =
    (* Recurse first so nested sections (inside fir.do_loop bodies, where
       they typically live) are handled. *)
    List.iter
      (fun op ->
        if not (is_stencil_op op) then
          Array.iter
            (fun r -> List.iter process_block r.Op.g_blocks)
            op.Op.o_regions)
      (Op.block_ops block);
    List.iter
      (fun section ->
        if section <> [] then
          kernels := extract_section ~stencil_block section :: !kernels)
      (find_sections block)
  in
  List.iter process_block (Op.region m).Op.g_blocks;
  { host_module = m; stencil_module; kernels = List.rev !kernels }

let reset_name_counter () = Atomic.set kernel_counter 0
