(* Stencil discovery: the paper's central transformation (Listing 3).

   Operating on the FIR produced by the frontend, it finds fir.store ops
   whose address is indexed by enclosing DO loops, analyses the right-hand
   side to find the neighbouring-cell reads, and replaces the loop nest
   with stencil dialect operations inserted directly before the outermost
   applicable loop:

     stencil.external_load  (one per accessed array)
     stencil.load           (field -> temp, for read arrays)
     stencil.apply          (the computation, translated to arith/math)
     stencil.store          (result temp -> output field)

   Loops whose bodies become empty are removed. Adjacent stencils with
   identical bounds are merged by the separate [Merge] pass.

   A store is rejected (left untouched) when any of these fail:
   - the address is not a fir.coordinate_of with per-dimension indices of
     the form loop-induction-variable + constant;
   - the loop nest bounds and step are not compile-time constants (step 1);
   - a right-hand-side array read uses a different induction variable for
     some dimension than the store does (non-stencil access);
   - the expression tree contains an operation with no standard-dialect
     equivalent, or reads a scalar that is written inside the nest. *)

open Fsc_ir
module Stencil = Fsc_stencil.Stencil
module Index_expr = Fsc_analysis.Index_expr
module Dependence = Fsc_analysis.Dependence
module Diag = Fsc_analysis.Diag

let log_src = Logs.Src.create "fsc.discovery" ~doc:"stencil discovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Reject of string

(* Like [Reject], but carrying a fully-formed diagnostic (race rejections
   come with the conflicting-access location as a note). *)
exception Reject_diag of string * Diag.t

type array_read = {
  ar_root : Index_expr.array_root;
  ar_offsets : int list; (* relative to the output cell *)
  ar_load_op : Op.op;
}

type scalar_input = {
  si_load_op : Op.op; (* the fir.load of a loop-invariant scalar cell *)
}

type candidate = {
  c_store : Op.op;
  c_out_root : Index_expr.array_root;
  c_ivs : Op.value list;        (* per array dim, induction variable *)
  c_store_offsets : int list;   (* per dim, offset of write vs loop iv *)
  c_loops : Op.op list;         (* applicable loops, outermost first *)
  c_lb : int list;              (* output region bounds, zero-based *)
  c_ub : int list;
  c_reads : array_read list;
  c_scalars : scalar_input list;
}

(* ------------------------------------------------------------------ *)
(* Gathering information                                               *)
(* ------------------------------------------------------------------ *)

let enclosing_loops op =
  let rec go acc o =
    match Op.parent_op o with
    | Some p when p.Op.o_name = "fir.do_loop" -> go (p :: acc) p
    | Some p -> go acc p
    | None -> acc
  in
  go [] op

let loop_of_iv (iv : Op.value) =
  match iv.Op.v_def with
  | Op.Block_arg (b, 0) -> (
    match b.Op.b_parent with
    | Some r -> r.Op.g_parent
    | None -> None)
  | _ -> None

let loop_bounds_const loop =
  let lb, ub, step = Fsc_fir.Fir.do_loop_bounds loop in
  match
    ( Index_expr.eval_const lb,
      Index_expr.eval_const ub,
      Index_expr.eval_const step )
  with
  | Some l, Some u, Some 1 -> (l, u)
  | Some _, Some _, Some s ->
    raise (Reject (Printf.sprintf "loop step %d is not 1" s))
  | _ -> raise (Reject "loop bounds are not compile-time constants")

(* Analyse the address of a memory access: returns the array root plus
   per-dimension affine forms. *)
let analyze_address addr =
  match Op.defining_op addr with
  | Some coord when Fsc_fir.Fir.is_coordinate_of coord -> (
    let base = Op.operand ~index:0 coord in
    let indices = List.tl (Op.operands coord) in
    match Index_expr.resolve_root base with
    | Some root when Index_expr.root_is_static root ->
      Some (root, List.map Index_expr.analyze indices)
    | Some _ -> raise (Reject "array extents are not static")
    | None -> None)
  | _ -> None

(* Is [v] the load of a scalar cell that is never stored to inside
   [scope]? Such loads can be hoisted before the stencil region. The
   dependence analysis distinguishes the fates of a written scalar:
   privatisable temporaries and genuine loop-carried reductions are both
   rejected (privatisation is not implemented), but with different
   diagnostics. *)
let invariant_scalar_load ~scope op =
  if not (Fsc_fir.Fir.is_load op) then None
  else
    let addr = Op.operand op in
    match Op.value_type addr with
    | Types.Fir_ref t when Types.is_scalar t -> (
      let name =
        match Op.defining_op addr with
        | Some d -> (
          match Fsc_fir.Fir.var_name d with Some n -> n | None -> "scalar")
        | None -> "scalar"
      in
      match Dependence.scalar_fate ~scope ~cell:addr with
      | Dependence.Scalar_invariant -> Some { si_load_op = op }
      | Dependence.Scalar_private ->
        raise
          (Reject
             (Printf.sprintf
                "scalar '%s' is written inside nest (privatisable \
                 temporary, not supported)"
                name))
      | Dependence.Scalar_carried (st, ld) ->
        let msg =
          Printf.sprintf
            "loop-carried dependence on scalar '%s': it is written inside \
             nest and a read can observe a previous iteration's value \
             (reduction pattern)"
            name
        in
        let diag =
          Diag.warning
            ?loc:(Diag.loc_of_op st)
            ~notes:
              [ ( Diag.loc_of_op ld,
                  Printf.sprintf "the read of '%s' that carries the \
                                  dependence is here" name ) ]
            ~code:"race" msg
        in
        raise (Reject_diag (msg, diag)))
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Candidate construction (Listing 3 lines 4-17)                       *)
(* ------------------------------------------------------------------ *)

(* Walk the stored value's expression tree, collecting array reads,
   scalar inputs, and checking translatability. *)
let rec walk_rhs ~cand_ivs ~store_offsets ~scope acc (v : Op.value) =
  match Op.defining_op v with
  | None ->
    (* block argument: allowed only if it is one of the loop ivs *)
    if List.exists (fun iv -> iv == v) cand_ivs then acc
    else raise (Reject "free block argument in stencil expression")
  | Some op -> (
    let reads, scalars = acc in
    match op.Op.o_name with
    | "fir.load" -> (
      match analyze_address (Op.operand op) with
      | Some (root, forms) ->
        let offsets =
          List.mapi
            (fun dim form ->
              match form with
              | Index_expr.Affine (iv, off) ->
                let expected_iv = List.nth cand_ivs dim in
                if not (iv == expected_iv) then
                  raise
                    (Reject
                       "array read indexed by a different loop variable");
                off - List.nth store_offsets dim
              | Index_expr.Const _ ->
                raise (Reject "constant subscript in array read")
              | Index_expr.Unknown ->
                raise (Reject "non-affine subscript in array read"))
            forms
        in
        if List.length offsets <> List.length cand_ivs then
          raise (Reject "array read rank differs from store rank");
        ({ ar_root = root; ar_offsets = offsets; ar_load_op = op } :: reads,
         scalars)
      | None -> (
        match invariant_scalar_load ~scope op with
        | Some si -> (reads, si :: scalars)
        | None -> raise (Reject "unanalysable fir.load")))
    | "arith.constant" -> acc
    | "fir.no_reassoc" | "fir.convert" ->
      walk_rhs ~cand_ivs ~store_offsets ~scope acc (Op.operand op)
    | name
      when Dialect.dialect_of_op_name name = "arith"
           || Dialect.dialect_of_op_name name = "math" ->
      Array.fold_left
        (fun acc operand ->
          walk_rhs ~cand_ivs ~store_offsets ~scope acc operand)
        acc op.Op.o_operands
    | name -> raise (Reject ("op " ^ name ^ " has no stencil translation")))

(* The legality oracle: consult the dependence analysis before accepting
   a candidate. Rejects (with a located race diagnostic) when

   - an enclosing loop inside the nest does not index the store, so its
     iterations rewrite the same elements (imperfect nest / carried
     output dependence);
   - any access in the nest's scope conflicts with the candidate's store
     across iterations (carried flow/anti/output dependence, e.g. an
     in-place Gauss-Seidel sweep);
   - any other write in scope conflicts with the candidate's own reads
     (cross-statement races such as [b(i) = a(i); c(i) = b(i-1)]);
   - a conflict cannot be ruled out (may-dependence). *)
let dependence_gate cand =
  match Dependence.nest_of_store cand.c_store with
  | None -> ()
  | Some nest -> (
    (match nest.Dependence.n_inner_seq with
    | loop :: _ ->
      let msg =
        Printf.sprintf
          "loop-carried output dependence on '%s': an enclosing loop does \
           not index the store, so each of its iterations rewrites the \
           same elements"
          cand.c_out_root.Index_expr.root_name
      in
      let diag =
        Diag.warning
          ?loc:(Diag.loc_of_op cand.c_store)
          ~notes:
            [ (Diag.loc_of_op loop, "the repeating loop starts here") ]
          ~code:"race" msg
      in
      raise (Reject_diag (msg, diag))
    | [] -> ());
    let reads = List.map (fun r -> r.ar_load_op) cand.c_reads in
    match Dependence.candidate_hazards nest ~reads with
    | [] -> ()
    | dep :: _ ->
      let msg = Dependence.describe dep in
      let what =
        if dep.Dependence.dep_dst.Dependence.acc_is_write then "write"
        else "read"
      in
      let diag =
        Diag.warning
          ?loc:(Diag.loc_of_op dep.Dependence.dep_src.Dependence.acc_op)
          ~notes:
            [ ( Diag.loc_of_op dep.Dependence.dep_dst.Dependence.acc_op,
                Printf.sprintf "conflicting %s is here" what ) ]
          ~code:"race" msg
      in
      raise (Reject_diag (msg, diag)))

let build_candidate store_op =
  match analyze_address (Op.operand ~index:1 store_op) with
  | None -> (
    match Op.value_type (Op.operand ~index:1 store_op) with
    | Types.Fir_ref t when Types.is_scalar t ->
      raise (Reject "scalar assignment (not a stencil candidate)")
    | _ -> raise (Reject "store address is not a static array element"))
  | Some (out_root, forms) ->
    let loops_around = enclosing_loops store_op in
    if loops_around = [] then raise (Reject "store is not inside a loop");
    (* is_indexed_by_loops: every dimension must be iv + const with all
       ivs distinct and belonging to enclosing loops. *)
    let ivs, store_offsets =
      List.split
        (List.map
           (function
             | Index_expr.Affine (iv, off) -> (iv, off)
             | Index_expr.Const _ ->
               raise (Reject "constant subscript in store")
             | Index_expr.Unknown ->
               raise (Reject "non-affine subscript in store"))
           forms)
    in
    let distinct =
      List.for_all
        (fun iv ->
          List.length (List.filter (fun iv' -> iv' == iv) ivs) = 1)
        ivs
    in
    if not distinct then
      raise (Reject "the same loop variable indexes two dimensions");
    let applicable_loops =
      List.filter
        (fun l ->
          let arg = Fsc_fir.Fir.do_loop_induction_var l in
          List.exists (fun iv -> iv == arg) ivs)
        loops_around
    in
    if List.length applicable_loops <> List.length ivs then
      raise (Reject "store subscripts use non-enclosing loop variables");
    (* Loops inside the applicable nest that are not themselves applicable
       (imperfect nests) are caught by the dependence gate below. *)
    let top = List.hd applicable_loops in
    let scope = top in
    (* bounds per array dimension: loop range shifted by write offset *)
    let bounds =
      List.map2
        (fun iv off ->
          match loop_of_iv iv with
          | Some l ->
            let lo, hi = loop_bounds_const l in
            (lo + off, hi + off)
          | None -> raise (Reject "induction variable without a loop"))
        ivs store_offsets
    in
    let reads, scalars =
      walk_rhs ~cand_ivs:ivs ~store_offsets ~scope ([], [])
        (Op.operand ~index:0 store_op)
    in
    let cand =
      { c_store = store_op; c_out_root = out_root; c_ivs = ivs;
        c_store_offsets = store_offsets; c_loops = applicable_loops;
        c_lb = List.map fst bounds; c_ub = List.map snd bounds;
        c_reads = List.rev reads; c_scalars = List.rev scalars }
    in
    dependence_gate cand;
    cand

(* ------------------------------------------------------------------ *)
(* Stencil generation                                                  *)
(* ------------------------------------------------------------------ *)

(* Full-array bounds: zero-based [0, extent-1] per dimension. *)
let root_bounds (r : Index_expr.array_root) =
  List.map (fun e -> (0, e - 1)) r.Index_expr.root_extents

(* Translate the RHS expression tree into the apply region. [lookup_read]
   maps a fir.load op to its stencil.access replacement builder;
   [lookup_scalar] maps hoisted scalar loads to block arguments. *)
let translate_body cand b ~temp_args ~scalar_args =
  let memo : (int, Op.value) Hashtbl.t = Hashtbl.create 32 in
  let read_for op =
    List.find_opt (fun r -> r.ar_load_op == op) cand.c_reads
  in
  let scalar_for op =
    let rec idx i = function
      | [] -> None
      | s :: rest ->
        if s.si_load_op == op then Some i else idx (i + 1) rest
    in
    idx 0 cand.c_scalars
  in
  let temp_index_for_root root =
    (* temps are ordered by unique roots in read order *)
    let rec go i seen = function
      | [] -> invalid_arg "temp_index_for_root"
      | r :: rest ->
        if r.ar_root.Index_expr.root_value == root then i
        else if
          List.exists
            (fun v -> v == r.ar_root.Index_expr.root_value)
            seen
        then go i seen rest
        else go (i + 1) (r.ar_root.Index_expr.root_value :: seen) rest
    in
    go 0 [] cand.c_reads
  in
  let dim_of_iv iv =
    let rec go d = function
      | [] -> invalid_arg "dim_of_iv"
      | v :: rest -> if v == iv then d else go (d + 1) rest
    in
    go 0 cand.c_ivs
  in
  let rec tr (v : Op.value) : Op.value =
    match Hashtbl.find_opt memo v.Op.v_id with
    | Some v' -> v'
    | None ->
      let v' = tr_uncached v in
      Hashtbl.replace memo v.Op.v_id v';
      v'
  and tr_uncached v =
    (* loop induction variable used as a value: current cell index *)
    if List.exists (fun iv -> iv == v) cand.c_ivs then begin
      let d = dim_of_iv v in
      let idx = Stencil.index b ~dim:d in
      let c = List.nth cand.c_store_offsets d in
      if c = 0 then idx
      else begin
        let cst =
          Builder.op1 b "arith.constant" ~results:[ Types.Index ]
            ~attrs:[ ("value", Attr.Int_a (-c)) ]
        in
        Builder.op1 b "arith.addi" ~operands:[ idx; cst ]
          ~results:[ Types.Index ]
      end
    end
    else
      match Op.defining_op v with
      | None -> invalid_arg "translate_body: free value"
      | Some op -> (
        match op.Op.o_name with
        | "fir.load" -> (
          match read_for op with
          | Some r ->
            let ti = temp_index_for_root r.ar_root.Index_expr.root_value in
            Stencil.access b (List.nth temp_args ti)
              ~offset:r.ar_offsets
          | None -> (
            match scalar_for op with
            | Some i -> List.nth scalar_args i
            | None -> invalid_arg "translate_body: unexpected fir.load"))
        | "arith.constant" ->
          (* drop source locations: the apply body is synthesised code *)
          Builder.op1 b "arith.constant"
            ~results:[ Op.value_type (Op.result op) ]
            ~attrs:(List.remove_assoc "loc" op.Op.o_attrs)
        | "fir.no_reassoc" -> tr (Op.operand op)
        | "fir.convert" ->
          let x = tr (Op.operand op) in
          Fir_to_std.std_convert b x (Op.value_type (Op.result op))
        | name ->
          (* arith/math op: clone with translated operands *)
          let operands = List.map tr (Op.operands op) in
          Builder.op1 b name ~operands
            ~results:[ Op.value_type (Op.result op) ]
            ~attrs:(List.remove_assoc "loc" op.Op.o_attrs))
  in
  tr

(* Unique read roots in first-occurrence order. *)
let unique_read_roots cand =
  List.fold_left
    (fun acc r ->
      if
        List.exists
          (fun (root : Index_expr.array_root) ->
            root.Index_expr.root_value == r.ar_root.Index_expr.root_value)
          acc
      then acc
      else acc @ [ r.ar_root ])
    [] cand.c_reads

(* Generate the stencil ops for one candidate, inserted before its
   outermost applicable loop. *)
let generate cand =
  let top = List.hd cand.c_loops in
  let b = Builder.before top in
  (* scalar inputs first: they are host-side FIR loads and must dominate
     the trampoline call the extraction pass will insert at the start of
     the stencil section *)
  let scalar_vals =
    List.map
      (fun si ->
        let cell = Op.operand si.si_load_op in
        Builder.op1 b "fir.load" ~operands:[ cell ]
          ~results:[ Op.value_type (Op.result si.si_load_op) ])
      cand.c_scalars
  in
  let roots = unique_read_roots cand in
  (* field + temp per unique read array *)
  let temps =
    List.map
      (fun (root : Index_expr.array_root) ->
        let bounds = root_bounds root in
        let field =
          Builder.op1 b "stencil.external_load"
            ~operands:[ root.Index_expr.root_value ]
            ~results:[ Stencil.field_type bounds root.Index_expr.root_elem ]
        in
        Stencil.load b field)
      roots
  in
  (* output field *)
  let out_bounds_full = root_bounds cand.c_out_root in
  let out_field =
    Builder.op1 b "stencil.external_load"
      ~operands:[ cand.c_out_root.Index_expr.root_value ]
      ~results:
        [ Stencil.field_type out_bounds_full
            cand.c_out_root.Index_expr.root_elem ]
  in
  let inputs = temps @ scalar_vals in
  let out_elem = cand.c_out_root.Index_expr.root_elem in
  let out_bounds = List.combine cand.c_lb cand.c_ub in
  let results =
    Stencil.apply b ~inputs ~out_bounds ~out_elems:[ out_elem ]
      (fun inner args ->
        let n_temps = List.length temps in
        let temp_args = List.filteri (fun i _ -> i < n_temps) args in
        let scalar_args = List.filteri (fun i _ -> i >= n_temps) args in
        let tr = translate_body cand inner ~temp_args ~scalar_args in
        [ tr (Op.operand ~index:0 cand.c_store) ])
  in
  (match results with
  | [ temp ] -> Stencil.store b temp out_field ~lb:cand.c_lb ~ub:cand.c_ub
  | _ -> assert false);
  (* remove the original store *)
  Op.erase cand.c_store

(* ------------------------------------------------------------------ *)
(* Cleanup: dead ops and empty loops (Listing 3 lines 25-27)           *)
(* ------------------------------------------------------------------ *)

(* One backward pass: a value is used only later in its block or inside
   the regions of later ops, so visiting the block last to first (each
   op's regions before the op) settles every user before its
   definition, and erases every transitively dead op in a single pass
   instead of one pass per link of the dead chain. *)
let rec erase_dead_ops_in block =
  let rec go = function
    | None -> ()
    | Some op ->
      let prev = op.Op.o_prev in
      Array.iter
        (fun r -> List.iter erase_dead_ops_in r.Op.g_blocks)
        op.Op.o_regions;
      let dead =
        Op.num_results op > 0
        && (not (Array.exists Op.has_uses op.Op.o_results))
        && (Dialect.op_is_pure op
           || List.mem op.Op.o_name
                [ "fir.load"; "arith.constant"; "fir.convert";
                  "fir.no_reassoc" ])
      in
      if dead then Op.erase op;
      go prev
  in
  go (Op.last_op block)

let remove_empty_loops func =
  let rec sweep () =
    let removed = ref false in
    let loops =
      Op.collect_ops (fun o -> o.Op.o_name = "fir.do_loop") func
    in
    List.iter
      (fun loop ->
        if Op.parent_block loop <> None && Op.num_results loop = 0 then begin
          let body = Fsc_fir.Fir.do_loop_body loop in
          erase_dead_ops_in body;
          match Op.block_ops body with
          | [ term ] when term.Op.o_name = "fir.result" ->
            Op.erase term;
            Op.erase loop;
            removed := true
          | _ -> ()
        end)
      (* innermost first *)
      (List.rev loops);
    if !removed then sweep ()
  in
  sweep ();
  (* finally clear now-dead index computations at function level *)
  List.iter erase_dead_ops_in
    (match (Op.region func).Op.g_blocks with bs -> bs)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type reject = {
  rej_store : string; (* debug description of the store op *)
  rej_reason : string;
  rej_diag : Diag.t; (* structured diagnostic, with source location *)
}

type stats = {
  mutable found : int;
  mutable rejected : reject list;
}

(* Run discovery over every function in [m]. Returns statistics. *)
let run ?(log_rejects = true) m =
  let stats = { found = 0; rejected = [] } in
  let record store reason diag =
    if log_rejects then
      Log.debug (fun f -> f "store #%d rejected: %s" store.Op.o_id reason);
    stats.rejected <-
      { rej_store = Op.to_debug_string store; rej_reason = reason;
        rej_diag = diag }
      :: stats.rejected
  in
  let funcs = Op.collect_ops (fun o -> o.Op.o_name = "func.func") m in
  List.iter
    (fun func ->
      let stores =
        Op.collect_ops (fun o -> o.Op.o_name = "fir.store") func
      in
      let candidates =
        List.filter_map
          (fun store ->
            match build_candidate store with
            | c -> Some c
            | exception Reject reason ->
              record store reason
                (Diag.note
                   ?loc:(Diag.loc_of_op store)
                   ~code:"stencil-reject" reason);
              None
            | exception Reject_diag (reason, diag) ->
              record store reason diag;
              None)
          stores
      in
      List.iter
        (fun c ->
          generate c;
          stats.found <- stats.found + 1)
        candidates;
      if candidates <> [] then remove_empty_loops func;
      Stencil.infer_shapes_in_func func)
    funcs;
  stats

let pass =
  Pass.create "discover-stencils" (fun m -> ignore (run m))
