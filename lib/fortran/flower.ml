(* Lowering of the Fortran AST to the FIR dialect — the mini-Flang
   "fc1 -emit-mlir" stage of the paper's Figure 1 pipeline.

   Representation choices mirror Flang closely enough for the discovery
   pass to face the same obstacles the paper describes:

   - scalars live in fir.alloca cells, reads are fir.load;
   - explicit-shape arrays are fir.alloca of !fir.array<...> and accessed
     with fir.coordinate_of on the alloca result (the "stack" route);
   - allocatable arrays live behind a pointer cell: fir.alloca of
     !fir.heap<!fir.array<...>>; allocate does fir.allocmem + fir.store,
     every access first fir.load's the cell (the "heap" route);
   - all index expressions are computed in i32 and fir.convert'ed to
     index, with the Fortran lower bound subtracted (zero-basing);
   - DO loop induction variables are bound directly to the fir.do_loop
     block argument (converted to i32);
   - parenthesised subexpressions of real type become fir.no_reassoc.

   Arrays are column-major (first subscript contiguous), matching
   Fortran; the runtime's buffers carry explicit strides. *)

open Fast
open Fsc_ir
module Fir = Fsc_fir.Fir
module Arith = Fsc_dialects.Arith
module Math = Fsc_dialects.Math
module Func = Fsc_dialects.Func

exception Unsupported of string * loc

let unsupported loc fmt =
  Printf.ksprintf (fun msg -> raise (Unsupported (msg, loc))) fmt

(* Thread frontend source locations onto lowered ops: while a location is
   set on the builder, every op it creates carries a loc(line:col)
   attribute (see Builder.set_loc). [no_loc] (line 0) leaves the current
   location in place. *)
let set_builder_loc b (l : loc) =
  if l.line <> 0 then Builder.set_loc b ~line:l.line ~col:l.col

let fir_scalar_type = function
  | T_integer -> Types.I32
  | T_real 4 -> Types.F32
  | T_real _ -> Types.F64
  | T_logical -> Types.I1

(* ------------------------------------------------------------------ *)
(* Lowering environment                                                *)
(* ------------------------------------------------------------------ *)

type array_storage = {
  mutable as_ref : Op.value; (* the alloca cell (or dummy arg ref) *)
  as_heap : bool;            (* cell holds !fir.heap<array> *)
  as_elem : Types.t;
  mutable as_lbs : int list;     (* per-dim lower bounds *)
  mutable as_extents : int list; (* per-dim extents *)
}

type binding =
  | B_scalar of Op.value (* !fir.ref<T> cell *)
  | B_array of array_storage
  | B_param of Fsema.const_value * ftype
  | B_loop_var of Op.value (* i32 SSA value, only while inside the loop *)

type lenv = {
  sema : Fsema.unit_env;
  bindings : (string, binding) Hashtbl.t;
  mutable result_cell : Op.value option; (* function result storage *)
}

let lookup_binding env loc name =
  match Hashtbl.find_opt env.bindings name with
  | Some b -> b
  | None -> unsupported loc "no binding for %s" name

let mangle unit_ =
  match unit_.u_kind with
  | Program -> "_QQmain"
  | Subroutine _ | Function _ -> "_QP" ^ unit_.u_name

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let value_ftype env e = Fsema.type_of_expr env.sema e

(* Convert [v] to FIR scalar type [to_] via fir.convert (identity if the
   types already match), as Flang does for mixed-kind arithmetic. *)
let convert b v to_ =
  if Types.equal (Op.value_type v) to_ then v else Fir.convert b ~to_ v

let rec lower_expr env b (e : expr) : Op.value =
  set_builder_loc b e.e_loc;
  match e.e_kind with
  | Int_lit n -> Arith.constant_int b ~ty:Types.I32 n
  | Real_lit (f, k) ->
    Arith.constant_float b ~ty:(if k = 4 then Types.F32 else Types.F64) f
  | Logical_lit v -> Arith.constant_int b ~ty:Types.I1 (if v then 1 else 0)
  | Var n -> (
    match lookup_binding env e.e_loc n with
    | B_scalar cell -> Fir.load b cell
    | B_param (c, t) -> lower_const b c t
    | B_loop_var v -> v
    | B_array _ -> unsupported e.e_loc "whole-array expression %s" n)
  | Unop (Neg, a) -> (
    let v = lower_expr env b a in
    match Op.value_type v with
    | Types.F32 | Types.F64 -> Arith.negf b v
    | t ->
      let zero = Arith.constant_int b ~ty:t 0 in
      Arith.subi b zero v)
  | Unop (Not, a) ->
    let v = lower_expr env b a in
    let one = Arith.constant_int b ~ty:Types.I1 1 in
    Builder.op1 b "arith.xori" ~operands:[ v; one ] ~results:[ Types.I1 ]
  | Unop (Paren, a) ->
    let v = lower_expr env b a in
    if Types.is_float (Op.value_type v) then Fir.no_reassoc b v else v
  | Binop (op, x, y) -> lower_binop env b e.e_loc op x y
  | Ref_or_call (n, args) ->
    if Fsema.is_array env.sema n then begin
      let addr = lower_array_address env b e.e_loc n args in
      Fir.load b addr
    end
    else if Fsema.is_intrinsic n then lower_intrinsic env b e.e_loc n args
    else lower_function_call env b e.e_loc n args

and lower_const b c t =
  match (c, t) with
  | Fsema.C_int n, T_integer -> Arith.constant_int b ~ty:Types.I32 n
  | Fsema.C_int n, T_real k ->
    Arith.constant_float b
      ~ty:(if k = 4 then Types.F32 else Types.F64)
      (float_of_int n)
  | Fsema.C_real f, T_real k ->
    Arith.constant_float b ~ty:(if k = 4 then Types.F32 else Types.F64) f
  | Fsema.C_real f, T_integer ->
    Arith.constant_int b ~ty:Types.I32 (int_of_float f)
  | Fsema.C_bool v, _ -> Arith.constant_int b ~ty:Types.I1 (if v then 1 else 0)
  | Fsema.C_int n, T_logical ->
    Arith.constant_int b ~ty:Types.I1 (if n <> 0 then 1 else 0)
  | Fsema.C_real _, T_logical -> invalid_arg "lower_const: real as logical"

(* Address (fir.ref<elem>) of array element [n](args). *)
and lower_array_address env b loc n args =
  let storage =
    match lookup_binding env loc n with
    | B_array s -> s
    | _ -> unsupported loc "%s is not an array" n
  in
  let base =
    if storage.as_heap then Fir.load b storage.as_ref else storage.as_ref
  in
  let indices =
    List.map2
      (fun arg lb ->
        let idx = lower_expr env b arg in
        let idx = convert b idx Types.I32 in
        let zero_based =
          if lb = 0 then idx
          else
            let lbv = Arith.constant_int b ~ty:Types.I32 lb in
            Arith.subi b idx lbv
        in
        Fir.convert b ~to_:Types.Index zero_based)
      args storage.as_lbs
  in
  (* index sub-expressions moved the location; the coordinate itself
     should point at the array reference *)
  set_builder_loc b loc;
  Fir.coordinate_of b base indices

and lower_binop env b loc op x y =
  match op with
  | Add | Sub | Mul | Div | Pow ->
    let tx = value_ftype env x and ty_ = value_ftype env y in
    let t = Fsema.type_join tx ty_ in
    let st = fir_scalar_type t in
    let vx = convert b (lower_expr env b x) st in
    let vy = convert b (lower_expr env b y) st in
    let is_f = Types.is_float st in
    (match op with
    | Add -> if is_f then Arith.addf b vx vy else Arith.addi b vx vy
    | Sub -> if is_f then Arith.subf b vx vy else Arith.subi b vx vy
    | Mul -> if is_f then Arith.mulf b vx vy else Arith.muli b vx vy
    | Div -> if is_f then Arith.divf b vx vy else Arith.divsi b vx vy
    | Pow ->
      if is_f then begin
        match y.e_kind with
        | Int_lit _ ->
          let vy_int = convert b (lower_expr env b y) Types.I32 in
          Math.fpowi b vx vy_int
        | _ -> Math.powf b vx vy
      end
      else unsupported loc "integer exponentiation of integers"
    | _ -> assert false)
  | Eq | Ne | Lt | Le | Gt | Ge ->
    let t = Fsema.type_join (value_ftype env x) (value_ftype env y) in
    let st = fir_scalar_type t in
    let vx = convert b (lower_expr env b x) st in
    let vy = convert b (lower_expr env b y) st in
    let pred =
      match op with
      | Eq -> Arith.Eq
      | Ne -> Arith.Ne
      | Lt -> Arith.Slt
      | Le -> Arith.Sle
      | Gt -> Arith.Sgt
      | Ge -> Arith.Sge
      | _ -> assert false
    in
    if Types.is_float st then Arith.cmpf b pred vx vy
    else Arith.cmpi b pred vx vy
  | And | Or ->
    let vx = lower_expr env b x and vy = lower_expr env b y in
    let name = if op = And then "arith.andi" else "arith.ori" in
    Builder.op1 b name ~operands:[ vx; vy ] ~results:[ Types.I1 ]

and lower_intrinsic env b loc n args =
  let arg i = List.nth args i in
  let fl i =
    (* argument as float (f32/f64 preserved, ints promoted to f64) *)
    let v = lower_expr env b (arg i) in
    if Types.is_float (Op.value_type v) then v else convert b v Types.F64
  in
  match (n, args) with
  | "sqrt", [ _ ] -> Math.unary b "sqrt" (fl 0)
  | ("exp" | "sin" | "cos" | "tan" | "log" | "atan"), [ _ ] ->
    Math.unary b n (fl 0)
  | "atan2", [ _; _ ] -> Math.binary b "atan2" (fl 0) (fl 1)
  | "abs", [ a ] ->
    let v = lower_expr env b a in
    if Types.is_float (Op.value_type v) then Math.absf b v
    else begin
      let zero = Arith.constant_int b ~ty:(Op.value_type v) 0 in
      let neg = Arith.subi b zero v in
      let isneg = Arith.cmpi b Arith.Slt v zero in
      Arith.select b isneg neg v
    end
  | ("max" | "min"), (_ :: _ :: _ as xs) ->
    let t =
      List.fold_left
        (fun acc a -> Fsema.type_join acc (value_ftype env a))
        T_integer xs
    in
    let st = fir_scalar_type t in
    let vs = List.map (fun a -> convert b (lower_expr env b a) st) xs in
    let name =
      if Types.is_float st then
        if n = "max" then "arith.maximumf" else "arith.minimumf"
      else if n = "max" then "arith.maxsi"
      else "arith.minsi"
    in
    List.fold_left
      (fun acc v ->
        Builder.op1 b name ~operands:[ acc; v ] ~results:[ st ])
      (List.hd vs) (List.tl vs)
  | "mod", [ x; y ] ->
    let t = Fsema.type_join (value_ftype env x) (value_ftype env y) in
    let st = fir_scalar_type t in
    let vx = convert b (lower_expr env b x) st in
    let vy = convert b (lower_expr env b y) st in
    if Types.is_float st then unsupported loc "real mod"
    else Arith.remsi b vx vy
  | "dble", [ a ] -> convert b (lower_expr env b a) Types.F64
  | "real", [ a ] -> convert b (lower_expr env b a) Types.F32
  | "int", [ a ] -> convert b (lower_expr env b a) Types.I32
  | "floor", [ a ] ->
    let v = Math.unary b "floor" (fl 0) in
    ignore a;
    convert b v Types.I32
  | "nint", [ a ] ->
    ignore a;
    let half = Arith.constant_float b 0.5 in
    let v = fl 0 in
    let v = convert b v Types.F64 in
    let shifted = Arith.addf b v half in
    let fl_ = Math.unary b "floor" shifted in
    convert b fl_ Types.I32
  | ("sum" | "maxval" | "minval"), [ { e_kind = Var name; _ } ] ->
    lower_array_reduction env b loc n name
  | _ -> unsupported loc "intrinsic %s with %d args" n (List.length args)

(* Whole-array reduction: a loop nest over the full extents accumulating
   into a stack cell. Deliberately *not* a stencil shape (the accumulator
   is written inside the nest), so discovery correctly leaves it alone. *)
and lower_array_reduction env b loc n name =
  let storage =
    match lookup_binding env loc name with
    | B_array s -> s
    | _ -> unsupported loc "%s of non-array" n
  in
  let elem = storage.as_elem in
  let is_f = Types.is_float elem in
  let acc = Fir.alloca b elem in
  let init =
    match n with
    | "sum" ->
      if is_f then Arith.constant_float b ~ty:elem 0.0
      else Arith.constant_int b ~ty:elem 0
    | "maxval" ->
      (* largest finite magnitudes keep the textual IR round-trippable *)
      if is_f then Arith.constant_float b ~ty:elem (-.Float.max_float)
      else Arith.constant_int b ~ty:elem min_int
    | _ ->
      if is_f then Arith.constant_float b ~ty:elem Float.max_float
      else Arith.constant_int b ~ty:elem max_int
  in
  Fir.store b init acc;
  let base =
    if storage.as_heap then Fir.load b storage.as_ref else storage.as_ref
  in
  let zero = Arith.constant_index b 0 in
  let one = Arith.constant_index b 1 in
  (* nested inclusive loops over zero-based extents, innermost = dim 0 *)
  let rec nest dims_left idxs bb =
    match dims_left with
    | [] ->
      (* idxs accumulated innermost-last, i.e. already in dim order *)
      let addr = Fir.coordinate_of bb base idxs in
      let v = Fir.load bb addr in
      let cur = Fir.load bb acc in
      let combined =
        match n with
        | "sum" -> if is_f then Arith.addf bb cur v else Arith.addi bb cur v
        | "maxval" ->
          Builder.op1 bb
            (if is_f then "arith.maximumf" else "arith.maxsi")
            ~operands:[ cur; v ] ~results:[ elem ]
        | _ ->
          Builder.op1 bb
            (if is_f then "arith.minimumf" else "arith.minsi")
            ~operands:[ cur; v ] ~results:[ elem ]
      in
      Fir.store bb combined acc
    | extent :: rest ->
      let ub = Arith.constant_index bb (extent - 1) in
      ignore
        (Fir.do_loop bb ~lb:zero ~ub ~step:one (fun inner iv _ ->
             nest rest (iv :: idxs) inner;
             []))
  in
  (* dims outermost-first so dim 0 is the innermost loop *)
  nest (List.rev storage.as_extents) [] b;
  Fir.load b acc

(* Fortran passes by reference: materialise each argument in a cell. *)
and lower_function_call env b loc n args =
  let callee_unit =
    match Hashtbl.find_opt env.sema.Fsema.env_functions n with
    | Some u -> u
    | None -> unsupported loc "unknown function %s" n
  in
  let ret_type =
    match callee_unit.u_kind with
    | Function (_, result) -> (
      match
        List.find_opt (fun d -> d.d_name = result) callee_unit.u_decls
      with
      | Some d -> fir_scalar_type d.d_type
      | None -> Types.F64)
    | _ -> unsupported loc "%s is not a function" n
  in
  let refs = List.map (lower_actual_arg env b loc) args in
  let call = Fir.call b ~callee:("_QP" ^ n) ~results:[ ret_type ] refs in
  Op.result call

and lower_actual_arg env b loc (a : expr) : Op.value =
  match a.e_kind with
  | Var n -> (
    match lookup_binding env loc n with
    | B_scalar cell -> cell
    | B_array s ->
      if s.as_heap then Fir.load b s.as_ref else s.as_ref
    | B_param (c, t) ->
      let v = lower_const b c t in
      let cell = Fir.alloca b (Op.value_type v) in
      Fir.store b v cell;
      cell
    | B_loop_var v ->
      let cell = Fir.alloca b (Op.value_type v) in
      Fir.store b v cell;
      cell)
  | Ref_or_call (n, idx) when Fsema.is_array env.sema n ->
    lower_array_address env b loc n idx
  | _ ->
    let v = lower_expr env b a in
    let cell = Fir.alloca b (Op.value_type v) in
    Fir.store b v cell;
    cell

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt env b (s : stmt) =
  set_builder_loc b s.s_loc;
  match s.s_kind with
  | Assign (lhs, rhs) -> (
    match lhs.e_kind with
    | Var n -> (
      match lookup_binding env s.s_loc n with
      | B_scalar cell ->
        let target_t = Fir.referenced_type cell in
        let v = convert b (lower_expr env b rhs) target_t in
        set_builder_loc b s.s_loc;
        Fir.store b v cell
      | _ -> unsupported s.s_loc "assignment to %s" n)
    | Ref_or_call (n, idx) ->
      let addr = lower_array_address env b s.s_loc n idx in
      let target_t = Fir.referenced_type addr in
      let v = convert b (lower_expr env b rhs) target_t in
      (* the rhs lowering leaves the location at its last sub-expression;
         the store is the statement *)
      set_builder_loc b s.s_loc;
      Fir.store b v addr
    | _ -> unsupported s.s_loc "invalid assignment target")
  | Do (v, lb, ub, step, body) ->
    let lbv = convert b (lower_expr env b lb) Types.I32 in
    let ubv = convert b (lower_expr env b ub) Types.I32 in
    let stepv =
      match step with
      | None -> Arith.constant_int b ~ty:Types.I32 1
      | Some e -> convert b (lower_expr env b e) Types.I32
    in
    let lb_i = Fir.convert b ~to_:Types.Index lbv in
    let ub_i = Fir.convert b ~to_:Types.Index ubv in
    let step_i = Fir.convert b ~to_:Types.Index stepv in
    (* bound expressions moved the location; the loop op itself should
       point at the DO statement *)
    set_builder_loc b s.s_loc;
    let saved = Hashtbl.find_opt env.bindings v in
    ignore
      (Fir.do_loop b ~lb:lb_i ~ub:ub_i ~step:step_i (fun inner iv _ ->
           let iv32 = Fir.convert inner ~to_:Types.I32 iv in
           Hashtbl.replace env.bindings v (B_loop_var iv32);
           List.iter (lower_stmt env inner) body;
           []));
    (match saved with
    | Some old -> Hashtbl.replace env.bindings v old
    | None -> Hashtbl.remove env.bindings v)
  | Do_while (cond, body) ->
    ignore
      (Fir.iterate_while b
         ~cond:(fun cb -> lower_expr env cb cond)
         ~body:(fun bb -> List.iter (lower_stmt env bb) body))
  | If (branches, else_body) -> lower_if env b s.s_loc branches else_body
  | Call_stmt (n, args) ->
    let refs = List.map (lower_actual_arg env b s.s_loc) args in
    ignore (Fir.call b ~callee:("_QP" ^ n) ~results:[] refs)
  | Allocate allocs ->
    List.iter
      (fun (n, dims) ->
        let storage =
          match lookup_binding env s.s_loc n with
          | B_array st -> st
          | _ -> unsupported s.s_loc "allocate of non-array %s" n
        in
        let resolve d =
          let const e =
            match Fsema.eval_const env.sema.Fsema.env_symbols e with
            | Fsema.C_int n -> n
            | _ -> unsupported s.s_loc "allocate bound must be integer"
          in
          match (d.ds_lower, d.ds_upper) with
          | None, Some u -> (1, const u)
          | Some l, Some u -> (const l, const u)
          | _ -> unsupported s.s_loc "allocate bounds must be explicit"
        in
        let bounds = List.map resolve dims in
        storage.as_lbs <- List.map fst bounds;
        storage.as_extents <- List.map (fun (l, h) -> h - l + 1) bounds;
        let arr_t =
          Types.Fir_array
            ( List.map (fun e -> Types.Static e) storage.as_extents,
              storage.as_elem )
        in
        let mem = Fir.allocmem b ~name:n arr_t in
        (* the cell was typed with the deferred shape; re-type it now *)
        let cell_t = Types.Fir_ref (Types.Fir_heap arr_t) in
        (match Op.defining_op storage.as_ref with
        | Some cell_op ->
          (Op.result cell_op).Op.v_type <- cell_t;
          Op.set_attr cell_op "in_type" (Attr.Type_a (Types.Fir_heap arr_t))
        | None -> ());
        Fir.store b mem storage.as_ref)
      allocs
  | Deallocate names ->
    List.iter
      (fun n ->
        match lookup_binding env s.s_loc n with
        | B_array st when st.as_heap ->
          let mem = Fir.load b st.as_ref in
          Fir.freemem b mem
        | _ -> unsupported s.s_loc "deallocate of %s" n)
      names
  | Print args ->
    let operands, fmts =
      List.fold_left
        (fun (ops, fmts) (a : expr) ->
          match a.e_kind with
          | Var n when String.length n > 0 && n.[0] = '"' ->
            (ops, fmts @ [ Attr.Str_a (String.sub n 1 (String.length n - 2)) ])
          | _ -> (ops @ [ lower_expr env b a ], fmts @ [ Attr.Unit_a ]))
        ([], []) args
    in
    ignore
      (Builder.op b "fir.print" ~operands
         ~attrs:[ ("format", Attr.Arr_a fmts) ])
  | Return -> () (* structured return handled at unit end *)
  | Exit_stmt -> Fir.exit_ b
  | Cycle_stmt -> Fir.cycle b

and lower_if env b _loc branches else_body =
  match branches with
  | [] -> Option.iter (List.iter (lower_stmt env b)) else_body
  | (cond, body) :: rest ->
    let cv = lower_expr env b cond in
    let else_fn =
      if rest = [] && else_body = None then None
      else
        Some
          (fun inner ->
            lower_if env inner _loc rest else_body)
    in
    ignore
      (Fir.if_ b cv ?else_:else_fn (fun inner ->
           List.iter (lower_stmt env inner) body))

(* ------------------------------------------------------------------ *)
(* Unit lowering                                                       *)
(* ------------------------------------------------------------------ *)

let decl_array_types env (d : decl) =
  let elem = fir_scalar_type d.d_type in
  let info =
    match Hashtbl.find_opt env.Fsema.env_symbols d.d_name with
    | Some (Fsema.S_array i) | Some (Fsema.S_dummy_array (i, _)) -> Some i
    | _ -> None
  in
  match info with
  | Some { Fsema.a_bounds = Some bounds; _ } ->
    let lbs = List.map fst bounds in
    let extents = List.map (fun (l, h) -> h - l + 1) bounds in
    (elem, lbs, extents,
     Types.Fir_array (List.map (fun e -> Types.Static e) extents, elem))
  | Some { Fsema.a_rank = r; _ } ->
    ( elem,
      List.init r (fun _ -> 1),
      List.init r (fun _ -> 0),
      Types.Fir_array (List.init r (fun _ -> Types.Dynamic), elem) )
  | None -> invalid_arg "decl_array_types: not an array"

let lower_unit (sema_env : Fsema.unit_env) : Op.op =
  let u = sema_env.Fsema.env_unit in
  let env =
    { sema = sema_env; bindings = Hashtbl.create 32; result_cell = None }
  in
  let dummy_args =
    match u.u_kind with
    | Program -> []
    | Subroutine args -> args
    | Function (args, _) -> args
  in
  (* Dummy argument FIR types: scalars and arrays are both by-reference. *)
  let arg_types =
    List.map
      (fun a ->
        match Hashtbl.find_opt sema_env.Fsema.env_symbols a with
        | Some (Fsema.S_dummy_scalar (t, _) | Fsema.S_scalar t) ->
          Types.Fir_ref (fir_scalar_type t)
        | Some (Fsema.S_dummy_array (i, _) | Fsema.S_array i) ->
          let elem = fir_scalar_type i.Fsema.a_type in
          let dims =
            match i.Fsema.a_bounds with
            | Some bs ->
              List.map (fun (l, h) -> Types.Static (h - l + 1)) bs
            | None -> List.init i.Fsema.a_rank (fun _ -> Types.Dynamic)
          in
          Types.Fir_ref (Types.Fir_array (dims, elem))
        | _ -> Types.Fir_ref Types.F64)
      dummy_args
  in
  let result_types =
    match u.u_kind with
    | Function (_, result) -> (
      match List.find_opt (fun d -> d.d_name = result) u.u_decls with
      | Some d -> [ fir_scalar_type d.d_type ]
      | None -> [ Types.F64 ])
    | _ -> []
  in
  let fname = mangle u in
  Func.func ~name:fname ~args:arg_types ~results:result_types
    ~attrs:
      (match u.u_kind with
      | Program -> [ ("fortran.program", Attr.Unit_a) ]
      | _ -> [])
    (fun b args ->
      (* Bind dummy arguments. *)
      List.iteri
        (fun i a ->
          let v = List.nth args i in
          match Hashtbl.find_opt sema_env.Fsema.env_symbols a with
          | Some (Fsema.S_dummy_array (info, _) | Fsema.S_array info) ->
            let bounds =
              match info.Fsema.a_bounds with
              | Some bs -> bs
              | None -> List.init info.Fsema.a_rank (fun _ -> (1, 0))
            in
            Hashtbl.replace env.bindings a
              (B_array
                 { as_ref = v; as_heap = false;
                   as_elem = fir_scalar_type info.Fsema.a_type;
                   as_lbs = List.map fst bounds;
                   as_extents =
                     List.map (fun (l, h) -> h - l + 1) bounds })
          | _ -> Hashtbl.replace env.bindings a (B_scalar v))
        dummy_args;
      (* Local declarations. *)
      let result_var =
        match u.u_kind with Function (_, r) -> Some r | _ -> None
      in
      List.iter
        (fun (d : decl) ->
          if List.mem d.d_name dummy_args then ()
          else
            match Hashtbl.find_opt sema_env.Fsema.env_symbols d.d_name with
            | Some (Fsema.S_param (t, c)) ->
              Hashtbl.replace env.bindings d.d_name (B_param (c, t))
            | Some (Fsema.S_scalar t) ->
              let cell = Fir.alloca b ~name:d.d_name (fir_scalar_type t) in
              Hashtbl.replace env.bindings d.d_name (B_scalar cell);
              if result_var = Some d.d_name then
                env.result_cell <- Some cell
            | Some (Fsema.S_array info) ->
              let elem, lbs, extents, arr_t = decl_array_types sema_env d in
              if info.Fsema.a_allocatable then begin
                let cell =
                  Fir.alloca b ~name:d.d_name (Types.Fir_heap arr_t)
                in
                Hashtbl.replace env.bindings d.d_name
                  (B_array
                     { as_ref = cell; as_heap = true; as_elem = elem;
                       as_lbs = lbs; as_extents = extents })
              end
              else begin
                let cell = Fir.alloca b ~name:d.d_name arr_t in
                Hashtbl.replace env.bindings d.d_name
                  (B_array
                     { as_ref = cell; as_heap = false; as_elem = elem;
                       as_lbs = lbs; as_extents = extents })
              end
            | _ -> ())
        u.u_decls;
      (* Function result cell when the result variable is undeclared. *)
      (match (u.u_kind, env.result_cell) with
      | Function (_, r), None
        when not (Hashtbl.mem env.bindings r) ->
        let cell = Fir.alloca b ~name:r Types.F64 in
        Hashtbl.replace env.bindings r (B_scalar cell);
        env.result_cell <- Some cell
      | Function (_, r), None -> (
        match Hashtbl.find_opt env.bindings r with
        | Some (B_scalar cell) -> env.result_cell <- Some cell
        | _ -> ())
      | _ -> ());
      (* Body. *)
      List.iter (lower_stmt env b) u.u_body;
      (* Return. *)
      match u.u_kind with
      | Function _ -> (
        match env.result_cell with
        | Some cell -> Func.return_ b [ Fir.load b cell ]
        | None -> unsupported u.u_loc "function without result storage")
      | _ -> Func.return_ b [])

(* Lower a full compilation unit to a FIR module. *)
let lower_compilation_unit (envs : Fsema.unit_env list) : Op.op =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  List.iter (fun env -> Op.append_to blk (lower_unit env)) envs;
  m

(* One-stop front door: Fortran source text -> FIR module. *)
let compile_source src =
  let units = Fparser.parse_source src in
  let envs = Fsema.analyze units in
  lower_compilation_unit envs
