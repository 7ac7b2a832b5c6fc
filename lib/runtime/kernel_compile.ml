(* Closure-compiling "JIT" for lowered stencil kernels.

   The interpreter executes any IR but pays tree-walking overhead per
   operation; this module compiles the restricted shape produced by the
   stencil lowering — perfect scf loop nests over memref loads at
   constant offsets, pure float arithmetic, and memref stores — into
   nested OCaml closures operating directly on the Bigarray data with
   precomputed flat-offset deltas. This is the real, measured performance
   gap behind the paper's "Stencil vs Flang only" series: the domain
   restriction (everything is a stencil) is what makes the specialised
   compilation possible.

   A kernel function may contain several sequential loop nests (e.g. the
   Gauss-Seidel sweep followed by its copy-back when both live in one
   extracted section); each nest compiles independently and they run in
   order. Kernels outside the supported shape report an error and run on
   the interpreter instead. *)

open Fsc_ir

type index_form =
  | Iv of int * int (* loop level, constant offset *)
  | Cst of int

type fexpr =
  | F_load of int * index_form list (* buffer arg index, per-dim index *)
  | F_scalar of int                 (* scalar arg index *)
  | F_const of float
  | F_ivf of int * int              (* float of (loop iv + offset) *)
  | F_unary of string * fexpr
  | F_binary of string * fexpr * fexpr

type store_stmt = {
  st_buf : int;
  st_index : index_form list;
  st_expr : fexpr;
}

type loop_spec = {
  l_level : int;  (* 0 = outermost within its nest *)
  l_dim : int;    (* which buffer dimension this level walks *)
  l_lb : int;
  l_ub : int;     (* exclusive *)
  l_parallel : bool;
}

type nest = {
  n_loops : loop_spec list; (* outermost first *)
  n_stores : store_stmt list;
  n_uses_iv : bool;         (* body reads induction values (F_ivf) *)
  n_flops_per_cell : int;
  n_loads_per_cell : int;
}

type spec = {
  k_nests : nest list;
  k_num_bufs : int;
  k_num_scalars : int;
}

exception Fallback of string

exception Found_body of Op.block

let fallback fmt = Printf.ksprintf (fun m -> raise (Fallback m)) fmt

(* ------------------------------------------------------------------ *)
(* Analysis: IR -> spec                                                *)
(* ------------------------------------------------------------------ *)

let const_of (v : Op.value) =
  match Op.defining_op v with
  | Some op when op.Op.o_name = "arith.constant" -> (
    match Op.attr op "value" with
    | Some (Attr.Int_a n) -> Some n
    | _ -> None)
  | _ -> None

let const_exn v =
  match const_of v with
  | Some n -> n
  | None -> fallback "loop bound is not a constant"

type arg_class =
  | A_buffer of int
  | A_scalar of int

let classify_args entry =
  let buf_count = ref 0 and scalar_count = ref 0 in
  let arg_class : (int, arg_class) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Op.value) ->
      match Op.value_type a with
      | Types.Llvm_ptr | Types.Llvm_typed_ptr _ | Types.Memref _
      | Types.Fir_llvm_ptr _ ->
        Hashtbl.replace arg_class a.Op.v_id (A_buffer !buf_count);
        incr buf_count
      | t when Types.is_scalar t ->
        Hashtbl.replace arg_class a.Op.v_id (A_scalar !scalar_count);
        incr scalar_count
      | t -> fallback "unsupported argument type %s" (Types.to_string t))
    (Op.block_args entry);
  (arg_class, !buf_count, !scalar_count)

let analyze_nest ~arg_class top_op =
  let loops = ref [] in
  let iv_level : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let add_parallel_levels op =
    let lbs, ubs, _ = Fsc_dialects.Scf.parallel_bounds op in
    let body = Fsc_dialects.Scf.body_block op in
    List.iteri
      (fun i lb ->
        let level = List.length !loops in
        (* prepended (reversed) to stay linear; re-ordered once below *)
        loops :=
          (level, const_exn lb, const_exn (List.nth ubs i), true) :: !loops;
        Hashtbl.replace iv_level (Op.block_arg ~index:i body).Op.v_id level)
      lbs;
    body
  in
  let rec descend op =
    match op.Op.o_name with
    | "omp.parallel" ->
      descend_block (List.hd (Op.region op).Op.g_blocks)
    | "scf.parallel" | "omp.wsloop" ->
      descend_block (add_parallel_levels op)
    | "scf.for" ->
      let lb = const_exn (Op.operand ~index:0 op) in
      let ub = const_exn (Op.operand ~index:1 op) in
      let step = const_exn (Op.operand ~index:2 op) in
      if step <> 1 then fallback "non-unit loop step";
      let body = Fsc_dialects.Scf.body_block op in
      let level = List.length !loops in
      loops := (level, lb, ub, false) :: !loops;
      Hashtbl.replace iv_level (Op.block_arg ~index:0 body).Op.v_id level;
      descend_block body
    | name -> fallback "unexpected op %s in loop nest" name
  and descend_block block =
    let interesting =
      List.filter
        (fun op ->
          not
            (List.mem op.Op.o_name
               [ "arith.constant"; "scf.yield"; "omp.yield";
                 "omp.terminator" ]))
        (Op.block_ops block)
    in
    match interesting with
    | [ op ]
      when List.mem op.Op.o_name
             [ "omp.parallel"; "scf.parallel"; "omp.wsloop"; "scf.for" ] ->
      descend op
    | _ -> raise (Found_body block)
  in
  let body_block =
    match descend top_op with
    | () -> fallback "no loop body found"
    | exception Found_body blk -> blk
  in
  if !loops = [] then fallback "no loops";
  (* index analysis over scf induction variables *)
  let rec index_form (v : Op.value) : index_form =
    match Hashtbl.find_opt iv_level v.Op.v_id with
    | Some l -> Iv (l, 0)
    | None -> (
      match Op.defining_op v with
      | Some op when op.Op.o_name = "arith.constant" -> Cst (const_exn v)
      | Some op when op.Op.o_name = "arith.index_cast" ->
        index_form (Op.operand op)
      | Some op when op.Op.o_name = "arith.addi" -> (
        match
          (index_form (Op.operand ~index:0 op),
           index_form (Op.operand ~index:1 op))
        with
        | Iv (l, c), Cst k | Cst k, Iv (l, c) -> Iv (l, c + k)
        | Cst a, Cst b -> Cst (a + b)
        | _ -> fallback "non-affine index")
      | Some op when op.Op.o_name = "arith.subi" -> (
        match
          (index_form (Op.operand ~index:0 op),
           index_form (Op.operand ~index:1 op))
        with
        | Iv (l, c), Cst k -> Iv (l, c - k)
        | Cst a, Cst b -> Cst (a - b)
        | _ -> fallback "non-affine index")
      | _ -> fallback "unsupported index expression")
  in
  let buffer_of (v : Op.value) =
    let rec go (v : Op.value) =
      match Hashtbl.find_opt arg_class v.Op.v_id with
      | Some (A_buffer i) -> Some i
      | Some (A_scalar _) -> None
      | None -> (
        match Op.defining_op v with
        | Some op
          when List.mem op.Op.o_name
                 [ "builtin.unrealized_conversion_cast"; "memref.cast";
                   "stencil.external_load"; "stencil.load" ] ->
          go (Op.operand op)
        | _ -> None)
    in
    go v
  in
  let scalar_of (v : Op.value) =
    match Hashtbl.find_opt arg_class v.Op.v_id with
    | Some (A_scalar i) -> Some i
    | _ -> None
  in
  let flops = ref 0 and loads = ref 0 and uses_iv = ref false in
  let rec expr_of (v : Op.value) : fexpr =
    match scalar_of v with
    | Some i -> F_scalar i
    | None -> (
      match Op.defining_op v with
      | None -> fallback "free value in expression"
      | Some op -> (
        match op.Op.o_name with
        | "arith.constant" -> (
          match Op.attr_exn op "value" with
          | Attr.Float_a f -> F_const f
          | Attr.Int_a n -> F_const (float_of_int n)
          | _ -> fallback "constant kind")
        | "memref.load" -> (
          match buffer_of (Op.operand ~index:0 op) with
          | Some bi ->
            incr loads;
            let idxs = List.map index_form (List.tl (Op.operands op)) in
            F_load (bi, idxs)
          | None -> fallback "load from non-argument buffer")
        | "arith.sitofp" -> (
          (* float of an induction-variable expression (stencil.index) *)
          match index_form (Op.operand op) with
          | Iv (l, c) ->
            uses_iv := true;
            F_ivf (l, c)
          | Cst c -> F_const (float_of_int c))
        | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
        | "arith.maximumf" | "arith.minimumf" ->
          incr flops;
          F_binary
            (op.Op.o_name,
             expr_of (Op.operand ~index:0 op),
             expr_of (Op.operand ~index:1 op))
        | "arith.negf" ->
          incr flops;
          F_unary ("arith.negf", expr_of (Op.operand op))
        | "arith.extf" | "arith.truncf" -> expr_of (Op.operand op)
        | name when Dialect.in_dialect name "math" -> (
          incr flops;
          match Op.num_operands op with
          | 1 -> F_unary (name, expr_of (Op.operand op))
          | 2 ->
            F_binary
              (name,
               expr_of (Op.operand ~index:0 op),
               expr_of (Op.operand ~index:1 op))
          | _ -> fallback "math arity")
        | name -> fallback "unsupported op %s in expression" name))
  in
  let stores = ref [] in
  List.iter
    (fun op ->
      match op.Op.o_name with
      | "memref.store" -> (
        match buffer_of (Op.operand ~index:1 op) with
        | Some bi ->
          let idxs =
            List.map index_form
              (List.filteri (fun i _ -> i >= 2) (Op.operands op))
          in
          (* prepended (reversed): appending with [@] per statement is
             quadratic in the statement count; re-ordered once below *)
          stores :=
            { st_buf = bi; st_index = idxs;
              st_expr = expr_of (Op.operand ~index:0 op) }
            :: !stores
        | None -> fallback "store to non-argument buffer")
      | "memref.load" | "arith.constant" | "scf.yield" -> ()
      | name
        when Dialect.in_dialect name "arith"
             || Dialect.in_dialect name "math" ->
        ()
      | name -> fallback "unsupported op %s in body" name)
    (Op.block_ops body_block);
  let stores = List.rev !stores in
  if stores = [] then fallback "nest has no stores";
  let depth = List.length !loops in
  let level_dim = Array.make depth (-1) in
  List.iter
    (fun st ->
      List.iteri
        (fun d idx ->
          match idx with
          | Iv (l, _) ->
            if level_dim.(l) >= 0 && level_dim.(l) <> d then
              fallback "inconsistent loop-dimension mapping";
            level_dim.(l) <- d
          | Cst _ -> fallback "constant store index")
        st.st_index)
    stores;
  Array.iteri
    (fun l d -> if d < 0 then fallback "loop level %d unused in stores" l)
    level_dim;
  let loop_specs =
    List.rev_map
      (fun (level, lb, ub, par) ->
        { l_level = level; l_dim = level_dim.(level); l_lb = lb; l_ub = ub;
          l_parallel = par })
      !loops
  in
  { n_loops = loop_specs; n_stores = stores; n_uses_iv = !uses_iv;
    n_flops_per_cell = !flops; n_loads_per_cell = !loads }

let analyze func =
  let entry = Fsc_dialects.Func.entry_block func in
  let arg_class, nbufs, nscalars = classify_args entry in
  let nests =
    List.filter_map
      (fun op ->
        match op.Op.o_name with
        | "scf.parallel" | "scf.for" | "omp.parallel" | "omp.wsloop" ->
          Some (analyze_nest ~arg_class op)
        | "builtin.unrealized_conversion_cast" | "memref.cast"
        | "arith.constant" | "func.return" ->
          None
        | name -> fallback "unexpected top-level op %s" name)
      (Op.block_ops entry)
  in
  if nests = [] then fallback "kernel has no loop nests";
  { k_nests = nests; k_num_bufs = nbufs; k_num_scalars = nscalars }

(* ------------------------------------------------------------------ *)
(* Execution: spec -> closures over Bigarray data                      *)
(* ------------------------------------------------------------------ *)

module A1 = Bigarray.Array1

let check_buffers (bufs : Memref_rt.t array) =
  if Array.length bufs = 0 then fallback "no buffers";
  let dims = bufs.(0).Memref_rt.dims in
  Array.iter
    (fun (b : Memref_rt.t) ->
      if b.Memref_rt.dims <> dims then
        fallback "buffers with differing extents")
    bufs;
  bufs.(0).Memref_rt.strides

let rec delta_from strides d acc = function
  | [] -> acc
  | (Iv (_, c) | Cst c) :: rest ->
    delta_from strides (d + 1) (acc + (c * strides.(d))) rest

let delta_of strides idxs = delta_from strides 0 0 idxs

(* Whole-space flat-offset bounds proof, shared by the engines whose
   access paths skip Bigarray's checks. Every engine addresses a cell
   at [base + delta_of strides idx], the base summing [iv * stride]
   over the nest's loops; strides are positive, so the extreme offsets
   of an access sit at the loop-bound corners [lo] and [hi]. Written as
   top-level recursions over the spec so that a successful check
   allocates nothing (every engine runs it on every call). *)
exception Out_of_bounds of string

let rec corner strides ~upper acc = function
  | [] -> acc
  | l :: rest ->
    let iv = if upper then l.l_ub - 1 else l.l_lb in
    corner strides ~upper (acc + (iv * strides.(l.l_dim))) rest

let check_access ~strides ~(bufs : Memref_rt.t array) ~lo ~hi bi idxs =
  if bi >= Array.length bufs then
    raise
      (Out_of_bounds (Printf.sprintf "buffer %d not passed at the call" bi));
  let delta = delta_of strides idxs in
  let n = A1.dim bufs.(bi).Memref_rt.data in
  if lo + delta < 0 || hi + delta >= n then
    raise
      (Out_of_bounds
         (Printf.sprintf "access to buffer %d spans [%d, %d] outside [0, %d)"
            bi (lo + delta) (hi + delta) n))

let rec check_loads ~strides ~bufs ~lo ~hi = function
  | F_load (bi, idxs) -> check_access ~strides ~bufs ~lo ~hi bi idxs
  | F_unary (_, a) -> check_loads ~strides ~bufs ~lo ~hi a
  | F_binary (_, a, b) ->
    check_loads ~strides ~bufs ~lo ~hi a;
    check_loads ~strides ~bufs ~lo ~hi b
  | F_const _ | F_scalar _ | F_ivf _ -> ()

let rec check_stores ~strides ~bufs ~lo ~hi = function
  | [] -> ()
  | st :: rest ->
    check_access ~strides ~bufs ~lo ~hi st.st_buf st.st_index;
    check_loads ~strides ~bufs ~lo ~hi st.st_expr;
    check_stores ~strides ~bufs ~lo ~hi rest

let check_nest_bounds ~strides ~bufs nest =
  if not (List.exists (fun l -> l.l_ub <= l.l_lb) nest.n_loops) then
    check_stores ~strides ~bufs
      ~lo:(corner strides ~upper:false 0 nest.n_loops)
      ~hi:(corner strides ~upper:true 0 nest.n_loops)
      nest.n_stores

(* [unchecked] accesses use Bigarray's unsafe (bounds-check-free) path;
   [run_nest] enables it only once [check_nest_bounds] has proven the
   nest's whole iteration space in range *)
let rec compile_expr ~unchecked bufs scalars strides ivs (e : fexpr) :
    int -> float =
  match e with
  | F_const c -> fun _ -> c
  | F_scalar i ->
    let v = scalars.(i) in
    fun _ -> v
  | F_ivf (l, c) ->
    fun _ -> float_of_int (Array.unsafe_get ivs l + c)
  | F_load (bi, idxs) ->
    let data = bufs.(bi).Memref_rt.data in
    let delta = delta_of strides idxs in
    if unchecked then fun base -> A1.unsafe_get data (base + delta)
    else fun base -> A1.get data (base + delta)
  | F_unary (name, a) -> (
    let fa = compile_expr ~unchecked bufs scalars strides ivs a in
    match name with
    | "arith.negf" -> fun b -> -.fa b
    | "math.sqrt" -> fun b -> Float.sqrt (fa b)
    | "math.absf" -> fun b -> Float.abs (fa b)
    | "math.exp" -> fun b -> Float.exp (fa b)
    | "math.sin" -> fun b -> Float.sin (fa b)
    | "math.cos" -> fun b -> Float.cos (fa b)
    | "math.log" -> fun b -> Float.log (fa b)
    | "math.floor" -> fun b -> Float.floor (fa b)
    | _ ->
      let g = Fsc_dialects.Math.eval_unary name in
      fun b -> g (fa b))
  | F_binary (name, a, c) -> (
    let fa = compile_expr ~unchecked bufs scalars strides ivs a in
    let fc = compile_expr ~unchecked bufs scalars strides ivs c in
    match name with
    | "arith.addf" -> fun b -> fa b +. fc b
    | "arith.subf" -> fun b -> fa b -. fc b
    | "arith.mulf" -> fun b -> fa b *. fc b
    | "arith.divf" -> fun b -> fa b /. fc b
    | "arith.maximumf" -> fun b -> Float.max (fa b) (fc b)
    | "arith.minimumf" -> fun b -> Float.min (fa b) (fc b)
    | "math.powf" -> fun b -> Float.pow (fa b) (fc b)
    | "math.atan2" -> fun b -> Float.atan2 (fa b) (fc b)
    | name -> fallback "binary op %s" name)

let compile_body ~unchecked nest bufs scalars strides ivs : int -> unit =
  let stmts =
    List.map
      (fun st ->
        let data = bufs.(st.st_buf).Memref_rt.data in
        let odelta = delta_of strides st.st_index in
        let f =
          compile_expr ~unchecked bufs scalars strides ivs st.st_expr
        in
        if unchecked then
          fun base -> A1.unsafe_set data (base + odelta) (f base)
        else fun base -> A1.set data (base + odelta) (f base))
      nest.n_stores
  in
  match stmts with
  | [ one ] -> one
  | [ a; b ] ->
    fun base ->
      a base;
      b base
  | [ a; b; c ] ->
    fun base ->
      a base;
      b base;
      c base
  | stmts -> fun base -> List.iter (fun s -> s base) stmts

(* A nest the bounds proof rejects still runs, on Bigarray's checked
   accesses: the first access outside its buffer raises
   [Invalid_argument], as the interpreter does. Stride-1 rows that do
   not read induction values run 4-wide unrolled. *)
let run_nest nest ?pool ~bufs ~scalars () =
  let strides = check_buffers bufs in
  let unchecked =
    match check_nest_bounds ~strides ~bufs nest with
    | () -> true
    | exception Out_of_bounds _ -> false
  in
  let ivs = Array.make (List.length nest.n_loops) 0 in
  let track = nest.n_uses_iv in
  let body = compile_body ~unchecked nest bufs scalars strides ivs in
  let rec go loops base =
    match loops with
    | [] -> body base
    | [ l ] when strides.(l.l_dim) = 1 && not track ->
      let lb = l.l_lb and ub = l.l_ub in
      let b = ref (base + lb) in
      let main_end = lb + ((ub - lb) / 4 * 4) in
      let i = ref lb in
      while !i < main_end do
        body !b;
        body (!b + 1);
        body (!b + 2);
        body (!b + 3);
        b := !b + 4;
        i := !i + 4
      done;
      while !i < ub do
        body !b;
        incr b;
        incr i
      done
    | l :: rest ->
      let stride = strides.(l.l_dim) in
      for i = l.l_lb to l.l_ub - 1 do
        if track then Array.unsafe_set ivs l.l_level i;
        go rest (base + (i * stride))
      done
  in
  match nest.n_loops with
  | outer :: rest when outer.l_parallel && not track ->
    let stride = strides.(outer.l_dim) in
    let do_range lo hi =
      for i = lo to hi - 1 do
        go rest (i * stride)
      done
    in
    (match pool with
    | Some pool ->
      Domain_pool.parallel_for pool ~lo:outer.l_lb ~hi:outer.l_ub
        (fun lo hi -> do_range lo hi)
    | None -> do_range outer.l_lb outer.l_ub)
  | loops -> go loops 0

let run spec ?pool ~bufs ~scalars () =
  List.iter (fun nest -> run_nest nest ?pool ~bufs ~scalars ()) spec.k_nests

let flops spec =
  List.fold_left
    (fun acc nest ->
      acc
      + (nest.n_flops_per_cell
        * List.fold_left (fun a l -> a * (l.l_ub - l.l_lb)) 1 nest.n_loops))
    0 spec.k_nests

let loads spec =
  List.fold_left
    (fun acc nest ->
      acc
      + ((nest.n_loads_per_cell + List.length nest.n_stores)
        * List.fold_left (fun a l -> a * (l.l_ub - l.l_lb)) 1 nest.n_loops))
    0 spec.k_nests

let try_analyze func =
  match analyze func with
  | spec -> Ok spec
  | exception Fallback reason -> Error reason
