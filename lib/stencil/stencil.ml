(* The stencil dialect of the Open Earth Compiler (Gysi et al., TACO 2021),
   as used by the paper via xDSL.

   Value vocabulary:
   - !stencil.field<[l,h]x...xT>  — storage backing a grid (from a memref);
   - !stencil.temp<[l,h]x...xT>   — a value-semantics snapshot of a field
     region, input/output of stencil.apply;
   - stencil.apply               — the computation: executes its region once
     per output grid cell; stencil.access reads an input temp at a constant
     offset from the current cell; stencil.return yields the cell value.

   Bounds are inclusive on both ends (Listing 2: [-1,255] means indices
   -1..255 are addressable). *)

open Fsc_ir

let d = Dialect.define_dialect "stencil"

let field_type bounds elem = Types.Stencil_field (bounds, elem)
let temp_type bounds elem = Types.Stencil_temp (bounds, elem)

let type_bounds = function
  | Types.Stencil_field (b, _) | Types.Stencil_temp (b, _) -> b
  | t -> invalid_arg ("Stencil.type_bounds: " ^ Types.to_string t)

let type_elem = function
  | Types.Stencil_field (_, t) | Types.Stencil_temp (_, t) -> t
  | t -> invalid_arg ("Stencil.type_elem: " ^ Types.to_string t)

let () =
  Dialect.define_op d "external_load" ~num_operands:1 ~num_results:1
    ~verify:(fun op ->
      match Op.value_type (Op.result op) with
      | Types.Stencil_field _ -> Ok ()
      | _ -> Error "stencil.external_load must produce a field");
  Dialect.define_op d "external_store" ~num_operands:2 ~num_results:0;
  Dialect.define_op d "cast" ~num_operands:1 ~num_results:1 ~pure:true;
  Dialect.define_op d "load" ~num_operands:1 ~num_results:1 ~pure:true
    ~verify:(fun op ->
      match
        (Op.value_type (Op.operand op), Op.value_type (Op.result op))
      with
      | Types.Stencil_field _, Types.Stencil_temp _ -> Ok ()
      | _ -> Error "stencil.load: field -> temp");
  Dialect.define_op d "store" ~num_operands:2 ~num_results:0
    ~verify:(fun op ->
      match
        (Op.value_type (Op.operand ~index:0 op),
         Op.value_type (Op.operand ~index:1 op))
      with
      | Types.Stencil_temp _, Types.Stencil_field _ -> Ok ()
      | _ -> Error "stencil.store: temp -> field");
  Dialect.define_op d "apply" ~num_regions:1 ~verify:(fun op ->
      let region = Op.region op in
      match region.Op.g_blocks with
      | [ body ] ->
        if Array.length body.Op.b_args <> Op.num_operands op then
          Error "stencil.apply block args must match operands"
        else Ok ()
      | _ -> Error "stencil.apply requires exactly one block");
  Dialect.define_op d "access" ~num_operands:1 ~num_results:1 ~pure:true
    ~verify:(fun op ->
      match Op.attr op "offset" with
      | Some (Attr.Index_a ofs) -> (
        match Op.value_type (Op.operand op) with
        | Types.Stencil_temp (b, _) ->
          if List.length ofs = List.length b then Ok ()
          else Error "stencil.access offset rank mismatch"
        | _ -> Error "stencil.access expects a temp operand")
      | _ -> Error "stencil.access requires an offset attribute");
  Dialect.define_op d "index" ~num_operands:0 ~num_results:1 ~pure:true
    ~verify:(fun op ->
      if Op.has_attr op "dim" then Ok ()
      else Error "stencil.index requires a dim attribute");
  Dialect.define_op d "return" ~num_results:0 ~terminator:true

(* ---- builders ---- *)

let external_load b memref_v ~bounds =
  let elem = Types.element_type (Op.value_type memref_v) in
  Builder.op1 b "stencil.external_load" ~operands:[ memref_v ]
    ~results:[ field_type bounds elem ]

let load b field_v =
  let t = Op.value_type field_v in
  Builder.op1 b "stencil.load" ~operands:[ field_v ]
    ~results:[ temp_type (type_bounds t) (type_elem t) ]

let store b temp_v field_v ~lb ~ub =
  ignore
    (Builder.op b "stencil.store" ~operands:[ temp_v; field_v ]
       ~attrs:[ ("lb", Attr.Index_a lb); ("ub", Attr.Index_a ub) ])

(* Build a stencil.apply over [inputs]; [body] is called with a builder in
   the apply region and the block arguments (one per input, typed as the
   inputs), and must return the values handed to stencil.return. The
   result temps take bounds [out_bounds]. *)
let apply b ~inputs ~out_bounds ~out_elems body =
  let arg_types = List.map Op.value_type inputs in
  let region, blk = Op.region_with_block ~args:arg_types () in
  let inner = Builder.at_end blk in
  let returned = body inner (Op.block_args blk) in
  ignore (Builder.op inner "stencil.return" ~operands:returned);
  let op =
    Builder.op b "stencil.apply" ~operands:inputs
      ~results:(List.map (fun e -> temp_type out_bounds e) out_elems)
      ~regions:[ region ]
  in
  Op.results op

let access b temp_v ~offset =
  Builder.op1 b "stencil.access" ~operands:[ temp_v ]
    ~results:[ type_elem (Op.value_type temp_v) ]
    ~attrs:[ ("offset", Attr.Index_a offset) ]

let index b ~dim =
  Builder.op1 b "stencil.index" ~results:[ Types.Index ]
    ~attrs:[ ("dim", Attr.Int_a dim) ]

(* ---- queries ---- *)

let is_apply op = op.Op.o_name = "stencil.apply"
let is_access op = op.Op.o_name = "stencil.access"
let is_store op = op.Op.o_name = "stencil.store"
let is_load op = op.Op.o_name = "stencil.load"

let access_offset op = Attr.as_index (Op.attr_exn op "offset")

let store_bounds op =
  ( Attr.as_index (Op.attr_exn op "lb"),
    Attr.as_index (Op.attr_exn op "ub") )

let apply_body op =
  match (Op.region op).Op.g_blocks with
  | [ b ] -> b
  | _ -> invalid_arg "Stencil.apply_body"

(* All accesses inside an apply, per input argument index. *)
let apply_accesses op =
  let body = apply_body op in
  let args = Op.block_args body in
  let acc = ref [] in
  Op.walk_inner
    (fun o ->
      if is_access o then begin
        let target = Op.operand o in
        match List.find_index (fun a -> a == target) args with
        | Some i -> acc := (i, access_offset o) :: !acc
        | None -> ()
      end)
    op;
  List.rev !acc

(* ---- shape inference ----

   Given the output bounds demanded by stencil.store ops, propagate
   backwards: each input temp of an apply must cover the output bounds
   expanded by every offset it is accessed at. Updates the types of apply
   results, apply block args, load results and field types. *)
let infer_shapes_in_func func_op =
  let applies = Op.collect_ops is_apply func_op in
  (* Process applies in reverse (consumers first). *)
  List.iter
    (fun apply_op ->
      (* Output bounds: union of store bounds over all result uses, or
         keep existing type bounds if never stored. *)
      let out_bounds = ref None in
      List.iter
        (fun (r : Op.value) ->
          List.iter
            (fun (u : Op.use) ->
              if is_store u.Op.u_op then begin
                let lb, ub = store_bounds u.Op.u_op in
                let b = List.combine lb ub in
                out_bounds :=
                  Some
                    (match !out_bounds with
                    | None -> b
                    | Some b' -> Types.bounds_union b b')
              end)
            r.Op.v_uses)
        (Op.results apply_op);
      match !out_bounds with
      | None -> ()
      | Some ob ->
        List.iter
          (fun (r : Op.value) ->
            r.Op.v_type <- temp_type ob (type_elem r.Op.v_type))
          (Op.results apply_op);
        (* Input bounds: expand output bounds by access offsets. *)
        let body = apply_body apply_op in
        let accesses = apply_accesses apply_op in
        List.iteri
          (fun i (input : Op.value) ->
            let offsets =
              List.filter_map
                (fun (j, o) -> if i = j then Some o else None)
                accesses
            in
            match Op.value_type input with
            | Types.Stencil_temp (_, elem) ->
              let nb = Types.bounds_expand_by_offsets ob offsets in
              input.Op.v_type <- temp_type nb elem;
              body.Op.b_args.(i).Op.v_type <- temp_type nb elem
            | _ ->
              (* scalar input: leave alone, but sync block arg type *)
              body.Op.b_args.(i).Op.v_type <- Op.value_type input)
          (Op.operands apply_op))
    (List.rev applies);
  (* Propagate temp bounds through stencil.load back to fields. *)
  Op.walk
    (fun o ->
      if is_load o then begin
        let temp = Op.result o and field = Op.operand o in
        match (Op.value_type temp, Op.value_type field) with
        | Types.Stencil_temp (tb, elem), Types.Stencil_field (fb, _) ->
          let nb = Types.bounds_union tb fb in
          field.Op.v_type <- field_type nb elem
        | _ -> ()
      end)
    func_op
