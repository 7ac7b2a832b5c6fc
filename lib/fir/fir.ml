(* FIR — the Fortran IR dialect produced by the mini-Flang frontend.

   Modelled on flang's FIR (https://flang.llvm.org/docs/FIRLangRef.html),
   restricted to the operations the paper's discovery pass walks:

   - storage: fir.alloca (stack), fir.allocmem/fir.freemem (heap),
     fir.declare (named variable aliases);
   - access: fir.coordinate_of (per-dimension indices into an array
     reference), fir.load, fir.store;
   - control flow: fir.do_loop / fir.if / fir.result;
   - misc: fir.convert (type conversion), fir.no_reassoc (reassociation
     fence), fir.call, fir.global / fir.address_of.

   The stack/heap representation split the paper calls out is real here:
   stack arrays are accessed straight off the fir.alloca result while heap
   arrays go through a pointer cell (alloca of !fir.heap<...>) that must be
   fir.load'ed before fir.coordinate_of — discovery handles both routes. *)

open Fsc_ir

let d = Dialect.define_dialect "fir"

let () =
  Dialect.define_op d "alloca" ~num_results:1 ~verify:(fun op ->
      match Op.value_type (Op.result op) with
      | Types.Fir_ref _ -> Ok ()
      | _ -> Error "fir.alloca must produce a !fir.ref");
  Dialect.define_op d "allocmem" ~num_results:1 ~verify:(fun op ->
      match Op.value_type (Op.result op) with
      | Types.Fir_heap _ -> Ok ()
      | _ -> Error "fir.allocmem must produce a !fir.heap");
  Dialect.define_op d "freemem" ~num_operands:1 ~num_results:0;
  Dialect.define_op d "declare" ~num_operands:1 ~num_results:1 ~pure:true;
  Dialect.define_op d "load" ~num_operands:1 ~num_results:1;
  Dialect.define_op d "store" ~num_operands:2 ~num_results:0;
  Dialect.define_op d "coordinate_of" ~num_results:1 ~pure:true
    ~verify:(fun op ->
      if Op.num_operands op >= 2 then Ok ()
      else Error "fir.coordinate_of needs a ref and at least one index");
  Dialect.define_op d "convert" ~num_operands:1 ~num_results:1 ~pure:true;
  Dialect.define_op d "no_reassoc" ~num_operands:1 ~num_results:1 ~pure:true;
  Dialect.define_op d "do_loop" ~num_regions:1 ~verify:(fun op ->
      if Op.num_operands op >= 3 then Ok ()
      else Error "fir.do_loop needs lb, ub, step");
  (* while-style loop: region 0 evaluates the condition (fir.result of an
     i1), region 1 is the body *)
  Dialect.define_op d "iterate_while" ~num_operands:0 ~num_results:0
    ~num_regions:2;
  (* Fortran EXIT / CYCLE inside the innermost enclosing loop *)
  Dialect.define_op d "exit" ~num_operands:0 ~num_results:0;
  Dialect.define_op d "cycle" ~num_operands:0 ~num_results:0;
  Dialect.define_op d "if" ~num_operands:1;
  Dialect.define_op d "result" ~num_results:0 ~terminator:true;
  Dialect.define_op d "call" ~verify:(fun op ->
      match Op.attr op "callee" with
      | Some (Attr.Sym_a _) -> Ok ()
      | _ -> Error "fir.call requires a callee symbol");
  Dialect.define_op d "global" ~num_operands:0 ~num_results:0;
  Dialect.define_op d "address_of" ~num_operands:0 ~num_results:1 ~pure:true;
  (* stand-in for the Fortran runtime's list-directed output calls *)
  Dialect.define_op d "print" ~num_results:0

(* ---- builders ---- *)

(* Stack allocation of [in_type]; result is !fir.ref<in_type>. The
   bindc_name attribute carries the Fortran variable name, which discovery
   uses to identify arrays (mirroring Flang). *)
let alloca b ?name in_type =
  let attrs =
    ("in_type", Attr.Type_a in_type)
    ::
    (match name with
    | Some n -> [ ("bindc_name", Attr.Str_a n) ]
    | None -> [])
  in
  Builder.op1 b "fir.alloca" ~results:[ Types.Fir_ref in_type ] ~attrs

let allocmem b ?name in_type =
  let attrs =
    ("in_type", Attr.Type_a in_type)
    ::
    (match name with
    | Some n -> [ ("bindc_name", Attr.Str_a n) ]
    | None -> [])
  in
  Builder.op1 b "fir.allocmem" ~results:[ Types.Fir_heap in_type ] ~attrs

let freemem b v = ignore (Builder.op b "fir.freemem" ~operands:[ v ])

let referenced_type v =
  match Op.value_type v with
  | Types.Fir_ref t | Types.Fir_heap t -> t
  | t ->
    invalid_arg
      ("Fir.referenced_type: not a reference type: " ^ Types.to_string t)

let load b ref_v =
  Builder.op1 b "fir.load" ~operands:[ ref_v ]
    ~results:[ referenced_type ref_v ]

let store b value ref_v =
  ignore (Builder.op b "fir.store" ~operands:[ value; ref_v ])

(* Address of array element: base is !fir.ref/heap<!fir.array<...>>,
   indices are zero-based i64 per-dimension coordinates (leftmost index
   varies fastest, as in Fortran column-major — the frontend emits indices
   in declaration order and the runtime picks the layout). *)
let coordinate_of b base indices =
  let elem =
    match Op.value_type base with
    | Types.Fir_ref (Types.Fir_array (_, t))
    | Types.Fir_heap (Types.Fir_array (_, t)) ->
      t
    | t ->
      invalid_arg
        ("Fir.coordinate_of: not an array reference: " ^ Types.to_string t)
  in
  Builder.op1 b "fir.coordinate_of"
    ~operands:(base :: indices)
    ~results:[ Types.Fir_ref elem ]

let convert b ~to_ v =
  Builder.op1 b "fir.convert" ~operands:[ v ] ~results:[ to_ ]

let no_reassoc b v =
  Builder.op1 b "fir.no_reassoc" ~operands:[ v ]
    ~results:[ Op.value_type v ]

let result_ b values = ignore (Builder.op b "fir.result" ~operands:values)

(* Fortran DO loop: index runs from lb to ub *inclusive* with [step]
   (fir.do_loop semantics). [body] receives the induction variable. *)
let do_loop b ~lb ~ub ~step ?(iter_args = []) body =
  let arg_types = Types.Index :: List.map Op.value_type iter_args in
  let region, blk = Op.region_with_block ~args:arg_types () in
  let inner = Builder.at_end blk in
  let iv, iters =
    match Op.block_args blk with
    | iv :: rest -> (iv, rest)
    | [] -> assert false
  in
  let yielded = body inner iv iters in
  result_ inner yielded;
  let op =
    Builder.op b "fir.do_loop"
      ~operands:(lb :: ub :: step :: iter_args)
      ~results:(List.map Op.value_type iter_args)
      ~regions:[ region ]
  in
  Op.results op

(* while-style loop: [cond] builds the condition region (must end by
   returning an i1 via fir.result), [body] the body region. *)
let iterate_while b ~cond ~body =
  let cond_region, cond_blk = Op.region_with_block () in
  let cb = Builder.at_end cond_blk in
  let cv = cond cb in
  result_ cb [ cv ];
  let body_region, body_blk = Op.region_with_block () in
  let bb = Builder.at_end body_blk in
  body bb;
  result_ bb [];
  Builder.op b "fir.iterate_while" ~regions:[ cond_region; body_region ]

let exit_ b = ignore (Builder.op b "fir.exit")
let cycle b = ignore (Builder.op b "fir.cycle")

let if_ b cond ?else_ then_ =
  let then_region, then_blk = Op.region_with_block () in
  then_ (Builder.at_end then_blk);
  result_ (Builder.at_end then_blk) [];
  let regions =
    match else_ with
    | None -> [ then_region ]
    | Some e ->
      let else_region, else_blk = Op.region_with_block () in
      e (Builder.at_end else_blk);
      result_ (Builder.at_end else_blk) [];
      [ then_region; else_region ]
  in
  Builder.op b "fir.if" ~operands:[ cond ] ~regions

let call b ~callee ~results args =
  Builder.op b "fir.call" ~operands:args ~results
    ~attrs:[ ("callee", Attr.Sym_a callee) ]

(* ---- queries used by the discovery pass ---- *)

let is_store op = op.Op.o_name = "fir.store"
let is_load op = op.Op.o_name = "fir.load"
let is_coordinate_of op = op.Op.o_name = "fir.coordinate_of"

let do_loop_bounds op =
  ( Op.operand ~index:0 op,
    Op.operand ~index:1 op,
    Op.operand ~index:2 op )

let body_block op =
  match (Op.region op).Op.g_blocks with
  | [ b ] -> b
  | _ -> invalid_arg ("Fir.body_block: " ^ op.Op.o_name)

let do_loop_body = body_block

let do_loop_induction_var op = Op.block_arg (body_block op)

(* The declared Fortran variable name of an allocation, when present. *)
let var_name op =
  match Op.attr op "bindc_name" with
  | Some (Attr.Str_a s) -> Some s
  | _ -> None
