(* Row-at-a-time vectorised execution engine for compiled stencil
   kernels — the default CPU tier, with Kernel_compile's closure JIT as
   its per-nest fallback.

   The closure JIT pays one OCaml closure call per expression node per
   grid cell. This engine compiles each nest's statements once and
   executes a whole innermost row per step. Each statement's loop is
   chosen once, at compile time. When the innermost loop walks
   dimension 0 (unit stride), two shapes run as fused single loops:
   plain copies, and left-leaning sums of exactly 4 or 6 added loads
   with an optional whole-sum scale [(x1 + ... + x6) / c] — the Laplace
   and Gauss-Seidel sweeps. Every other statement, and every statement
   of a nest whose innermost loop walks another dimension, is a
   three-address row program: each instruction [dst := a op b] is one
   tight [for] loop over the row, and each operand is a row register, a
   buffer row read in place inside the op's own loop (a buffer and a
   precomputed flat-offset delta), or an invariant slot. Subtrees that
   read no buffer and no innermost induction value (constants, scalar
   arguments, outer-loop ivs and arithmetic over them) are evaluated
   once per row into slots; subtrees over the innermost iv alone are
   the same in every row and are evaluated once per run into fixed
   rows. At unit stride the root op writes the destination row
   directly; at any other stride loads are gathered into scratch rows
   and the result is scattered. A statement whose whole value is
   invariant is a row fill.

   Correctness contract: results are bitwise identical to the closure
   engine (and hence the interpreter). That is achieved by (a) never
   reassociating float arithmetic — a fused sum adds its loads in the
   order the tree does, a row program evaluates the tree itself, and
   hoisted subtrees run the same operations in the same order (division
   stays division); (b) vectorising a nest only when no statement reads
   a buffer the nest writes at another cell (a written buffer may be
   read and stored only at the cell being computed, offset 0 in every
   dimension), so batching statements row-wise — and reading loads in
   place — cannot change any read-after-write interleaving the per-cell
   engine would honour; (c) falling back per
   nest to the closure engine (compile time: unsupported shape; run
   time: the bounds proof fails, or a fused row is bound at a stride
   other than 1) rather than approximating.

   On top of the row engine sits parallelism: the leading parallel loop
   levels are flattened into one index space and distributed over the
   Domain_pool, and each parallel index sweeps its sequential rows in
   order. Memory safety without per-access bounds checks comes from
   Kernel_compile.check_nest_bounds, which proves every access of the
   whole iteration space in range before the row loops run on
   unchecked accesses. *)

module Kc = Kernel_compile
module Obs = Fsc_obs.Obs
module A1 = Bigarray.Array1

let c_rows = Obs.counter "rt.vector.rows"
let c_fallbacks = Obs.counter "rt.vector.fallbacks"

(* ------------------------------------------------------------------ *)
(* Statement programs                                                  *)
(* ------------------------------------------------------------------ *)

type scale =
  | Sc_none
  | Sc_mul_const of float
  | Sc_div_const of float
  | Sc_mul_scalar of int
  | Sc_div_scalar of int

(* An operand of a row instruction. *)
type operand =
  | O_reg of int                       (* row register *)
  | O_load of int * Kc.index_form list (* buffer row, read in the op *)
  | O_fixed of int                     (* row over the innermost iv only *)
  | O_slot of int                      (* row-invariant value *)

type instr =
  | I_unary of int * string * operand            (* dst reg, op, a *)
  | I_binary of int * string * operand * operand (* dst reg, op, a, b *)

type copy_stmt = {
  c_dst : int;
  c_dst_idx : Kc.index_form list;
  c_src : int;
  c_src_idx : Kc.index_form list;
}

type wsum_stmt = {
  w_dst : int;
  w_dst_idx : Kc.index_form list;
  w_loads : (int * Kc.index_form list) array; (* 4 or 6, added in order *)
  w_scale : scale;
}

type expr_stmt = {
  e_dst : int;
  e_dst_idx : Kc.index_form list;
  e_slots : Kc.fexpr array; (* invariant subtrees, one value per row *)
  e_fixed : Kc.fexpr array; (* innermost-iv subtrees, one row per run *)
  e_code : instr array;
  e_nregs : int;
  e_out : operand; (* the root: the last instruction's register when
                      [e_code] is non-empty *)
}

type vstmt =
  | V_copy of copy_stmt
  | V_wsum of wsum_stmt
  | V_expr of expr_stmt

type vnest = {
  v_nest : Kc.nest;
  v_stmts : vstmt array;
}

type compiled_nest =
  | Vec of vnest
  | Scalar of Kc.nest * string (* closure-engine fallback, with reason *)

type plan = { p_nests : compiled_nest list }

type stmt_shape = {
  s_kind : string;
  s_row_ops : int;
  s_invariants : int;
}

type nest_compile =
  | N_vector of stmt_shape list
  | N_scalar of string

(* ------------------------------------------------------------------ *)
(* Compilation: Kc.nest -> vnest                                       *)
(* ------------------------------------------------------------------ *)

exception Unvectorisable of string

let unvec fmt = Printf.ksprintf (fun m -> raise (Unvectorisable m)) fmt

let max_regs = 64

let supported_unary = function
  | "arith.negf" | "math.sqrt" | "math.absf" | "math.exp" | "math.sin"
  | "math.cos" | "math.log" | "math.floor" ->
    true
  | name -> (
    (* anything Math.eval_unary knows; probe once at compile time *)
    match Fsc_dialects.Math.eval_unary name 1.0 with
    | (_ : float) -> true
    | exception Invalid_argument _ -> false)

let supported_binary = function
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.maximumf" | "arith.minimumf" | "math.powf" | "math.atan2" ->
    true
  | _ -> false

(* Sum recognition: a left-leaning chain of added loads, in the order
   the closure engine evaluates them, so no float reassociation
   happens. *)
let rec added_loads acc = function
  | Kc.F_binary ("arith.addf", l, Kc.F_load (b, idx)) ->
    added_loads ((b, idx) :: acc) l
  | Kc.F_load (b, idx) -> Some ((b, idx) :: acc)
  | _ -> None

(* Peel a whole-expression scale: [(e) * c], [c * (e)], [(e) / c] (and
   the scalar-argument variants). Multiplication commutes bitwise for
   the non-NaN coefficients these programs produce; division is only
   peeled with the divisor on the right, exactly as written. *)
let peel_scale = function
  | Kc.F_binary ("arith.divf", e, Kc.F_const c) -> (e, Sc_div_const c)
  | Kc.F_binary ("arith.divf", e, Kc.F_scalar s) -> (e, Sc_div_scalar s)
  | Kc.F_binary ("arith.mulf", e, Kc.F_const c)
  | Kc.F_binary ("arith.mulf", Kc.F_const c, e) ->
    (e, Sc_mul_const c)
  | Kc.F_binary ("arith.mulf", e, Kc.F_scalar s)
  | Kc.F_binary ("arith.mulf", Kc.F_scalar s, e) ->
    (e, Sc_mul_scalar s)
  | e -> (e, Sc_none)

let rec check_ops = function
  | Kc.F_unary (name, a) ->
    if not (supported_unary name) then unvec "unary op %s" name;
    check_ops a
  | Kc.F_binary (name, a, b) ->
    if not (supported_binary name) then unvec "binary op %s" name;
    check_ops a;
    check_ops b
  | Kc.F_load _ | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> ()

(* What a subtree reads besides constants and scalar arguments. *)
let rec reads_load = function
  | Kc.F_load _ -> true
  | Kc.F_unary (_, a) -> reads_load a
  | Kc.F_binary (_, a, b) -> reads_load a || reads_load b
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> false

let rec reads_iv p = function
  | Kc.F_ivf (l, _) -> p l
  | Kc.F_unary (_, a) -> reads_iv p a
  | Kc.F_binary (_, a, b) -> reads_iv p a || reads_iv p b
  | Kc.F_load _ | Kc.F_const _ | Kc.F_scalar _ -> false

(* Three-address row program: post-order over the tree with stack
   register allocation. Loads stay operands, and every maximal subtree
   without loads is hoisted: into a slot when it does not read the
   innermost iv [inner], into a fixed row when that is the only iv it
   reads. A binary op's result takes the lowest of its operands'
   registers (operands are freed before the result is allocated; the
   op is elementwise, so writing in place is safe), so the register
   count is the number of row results live at once. *)
let compile_expr_code ~inner e =
  check_ops e;
  let code = ref [] in
  let next = ref 0 in
  let high = ref 0 in
  let slots = ref [] and fixed = ref [] in
  let emit i = code := i :: !code in
  let push tbl e =
    tbl := e :: !tbl;
    List.length !tbl - 1
  in
  let alloc () =
    let r = !next in
    incr next;
    if !next > !high then high := !next;
    if !high > max_regs then
      unvec "expression needs more than %d row registers" max_regs;
    r
  in
  let result operands =
    List.iter (function O_reg _ -> decr next | _ -> ()) operands;
    alloc ()
  in
  let rec go e =
    if not (reads_load e) then
      if reads_iv (fun l -> l = inner) e then
        if reads_iv (fun l -> l <> inner) e then row e
        else O_fixed (push fixed e)
      else O_slot (push slots e)
    else row e
  and row e =
    match e with
    | Kc.F_load (b, idx) -> O_load (b, idx)
    | Kc.F_unary (name, a) ->
      let oa = go a in
      let r = result [ oa ] in
      emit (I_unary (r, name, oa));
      O_reg r
    | Kc.F_binary (name, a, b) ->
      let oa = go a in
      let ob = go b in
      let r = result [ oa; ob ] in
      emit (I_binary (r, name, oa, ob));
      O_reg r
    | Kc.F_ivf (_, _) | Kc.F_const _ | Kc.F_scalar _ ->
      (* leaves without loads are hoisted by [go]; an iv leaf reaching
         here reads the innermost iv mixed with an outer one, which
         only a binary node can do *)
      assert false
  in
  let out = go e in
  ( Array.of_list (List.rev !code), !high, out,
    Array.of_list (List.rev !slots), Array.of_list (List.rev !fixed) )

let rec load_indices acc = function
  | Kc.F_load (b, idx) -> (b, idx) :: acc
  | Kc.F_unary (_, a) -> load_indices acc a
  | Kc.F_binary (_, a, b) -> load_indices (load_indices acc a) b
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> acc

(* [unit]: the innermost loop walks dimension 0, the unit-stride one.
   Only there do copies and 4-/6-point sums run as fused loops; every
   other statement is a row program. *)
let compile_stmt ~inner ~unit (st : Kc.store_stmt) =
  let expr e =
    let code, nregs, out, slots, fixed = compile_expr_code ~inner e in
    V_expr
      { e_dst = st.Kc.st_buf; e_dst_idx = st.Kc.st_index; e_slots = slots;
        e_fixed = fixed; e_code = code; e_nregs = nregs; e_out = out }
  in
  match st.Kc.st_expr with
  | e when not unit -> expr e
  | Kc.F_load (b, idx) ->
    V_copy
      { c_dst = st.Kc.st_buf; c_dst_idx = st.Kc.st_index; c_src = b;
        c_src_idx = idx }
  | e -> (
    let body, scale = peel_scale e in
    match added_loads [] body with
    | Some loads when List.length loads = 4 || List.length loads = 6 ->
      V_wsum
        { w_dst = st.Kc.st_buf; w_dst_idx = st.Kc.st_index;
          w_loads = Array.of_list loads; w_scale = scale }
    | _ -> expr e)

let compile_nest (nest : Kc.nest) : (vnest, string) result =
  try
    let loops = Array.of_list nest.Kc.n_loops in
    if Array.length loops = 0 then unvec "no loops";
    (* every load's induction uses must walk the same buffer dimension
       as the loop level does in the stores; a transposed access would
       make the shared row-base decomposition wrong *)
    List.iter
      (fun (st : Kc.store_stmt) ->
        List.iter
          (fun (_, idx) ->
            List.iteri
              (fun d i ->
                match i with
                | Kc.Iv (l, _) ->
                  if
                    l < 0 || l >= Array.length loops
                    || loops.(l).Kc.l_dim <> d
                  then unvec "load index not aligned with loop dimensions"
                | Kc.Cst _ -> ())
              idx)
          (load_indices [] st.Kc.st_expr))
      nest.Kc.n_stores;
    (* batching statements row-wise is only order-preserving when no
       statement reads a buffer the nest writes at another cell: every
       load of a written buffer, and every store to it, must use the
       identity index (offset 0 along the loop walking each dimension),
       so each cell depends only on itself *)
    let identity idx =
      List.for_all Fun.id
        (List.mapi
           (fun d -> function
             | Kc.Iv (l, 0) ->
               l >= 0 && l < Array.length loops && loops.(l).Kc.l_dim = d
             | Kc.Iv _ | Kc.Cst _ -> false)
           idx)
    in
    let loads =
      List.concat_map
        (fun (st : Kc.store_stmt) -> load_indices [] st.Kc.st_expr)
        nest.Kc.n_stores
    in
    List.iter
      (fun (st : Kc.store_stmt) ->
        let b = st.Kc.st_buf in
        let reads = List.filter (fun (b', _) -> b' = b) loads in
        if
          reads <> []
          && not
               (identity st.Kc.st_index
               && List.for_all (fun (_, idx) -> identity idx) reads)
        then unvec "nest reads buffer %d that it also writes" b)
      nest.Kc.n_stores;
    let inner = loops.(Array.length loops - 1) in
    let compile =
      compile_stmt ~inner:inner.Kc.l_level ~unit:(inner.Kc.l_dim = 0)
    in
    Ok
      { v_nest = nest;
        v_stmts = Array.of_list (List.map compile nest.Kc.n_stores) }
  with Unvectorisable reason -> Error reason

let compile_spec (spec : Kc.spec) : plan =
  let nests =
    List.map
      (fun nest ->
        match compile_nest nest with
        | Ok v -> Vec v
        | Error reason ->
          Obs.incr c_fallbacks;
          Scalar (nest, reason))
      spec.Kc.k_nests
  in
  { p_nests = nests }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* Row passes per execution: copies and sums are one fused loop; a row
   program is one pass per instruction, plus one store pass when its
   root is not an instruction (a fill or a fixed-row copy). *)
let shape_of = function
  | V_copy _ -> { s_kind = "copy"; s_row_ops = 1; s_invariants = 0 }
  | V_wsum _ -> { s_kind = "wsum"; s_row_ops = 1; s_invariants = 0 }
  | V_expr ex ->
    let n = Array.length ex.e_code in
    { s_kind = "expr";
      s_row_ops = (match ex.e_out with O_reg _ -> n | _ -> n + 1);
      s_invariants = Array.length ex.e_slots + Array.length ex.e_fixed }

let summary plan =
  List.map
    (function
      | Vec v -> N_vector (Array.to_list (Array.map shape_of v.v_stmts))
      | Scalar (_, reason) -> N_scalar reason)
    plan.p_nests

let nest_count plan = List.length plan.p_nests

let vectorised_nests plan =
  List.fold_left
    (fun acc -> function Vec _ -> acc + 1 | Scalar _ -> acc)
    0 plan.p_nests

let fallbacks plan =
  List.mapi
    (fun i n ->
      match n with Scalar (_, r) -> Some (i, r) | Vec _ -> None)
    plan.p_nests
  |> List.filter_map Fun.id

let describe plan =
  let plural n word =
    Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")
  in
  let nest_text = function
    | N_scalar _ -> "closure"
    | N_vector shapes ->
      let kinds = String.concat "+" (List.map (fun s -> s.s_kind) shapes) in
      let exprs = List.filter (fun s -> s.s_kind = "expr") shapes in
      if exprs = [] then kinds
      else
        let sum f = List.fold_left (fun a s -> a + f s) 0 exprs in
        Printf.sprintf "%s %s, %s" kinds
          (plural (sum (fun s -> s.s_row_ops)) "row op")
          (plural (sum (fun s -> s.s_invariants)) "invariant")
  in
  let base =
    Printf.sprintf "vectorised (%d/%d nests: %s)" (vectorised_nests plan)
      (nest_count plan)
      (String.concat "; " (List.map nest_text (summary plan)))
  in
  match fallbacks plan with
  | [] -> base
  | fbs ->
    base ^ "; "
    ^ String.concat "; "
        (List.map
           (fun (i, reason) ->
             Printf.sprintf "nest %d -> closure: %s" (i + 1) reason)
           fbs)

(* ------------------------------------------------------------------ *)
(* Binding and execution                                               *)
(* ------------------------------------------------------------------ *)

exception Bind_fallback of string

let bind_fail fmt = Printf.ksprintf (fun m -> raise (Bind_fallback m)) fmt

(* One statement over one row, given the row's base offset; built per
   executor from the executor's induction-value array. *)
type row_fn = int -> unit

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let unary_fn name =
  match name with
  | "arith.negf" -> fun x -> -.x
  | "math.sqrt" -> Float.sqrt
  | "math.absf" -> Float.abs
  | "math.exp" -> Float.exp
  | "math.sin" -> Float.sin
  | "math.cos" -> Float.cos
  | "math.log" -> Float.log
  | "math.floor" -> Float.floor
  | name -> Fsc_dialects.Math.eval_unary name

let binary_fn name =
  match name with
  | "arith.addf" -> ( +. )
  | "arith.subf" -> ( -. )
  | "arith.mulf" -> ( *. )
  | "arith.divf" -> ( /. )
  | "arith.maximumf" -> Float.max
  | "arith.minimumf" -> Float.min
  | "math.powf" -> Float.pow
  | "math.atan2" -> Float.atan2
  | name -> bind_fail "binary op %s" name

(* -------- copy rows -------- *)

(* Copies and sums are compiled only for rows that walk dimension 0,
   which every buffer lays out at stride 1; any other layout runs on
   the closure engine rather than misreading memory. *)
let require_unit_stride si =
  if si <> 1 then bind_fail "fused row at stride %d" si

let bind_copy ~bufs ~strides ~w ~si c : int array -> row_fn =
  require_unit_stride si;
  let dd = bufs.(c.c_dst).Memref_rt.data in
  let sd = bufs.(c.c_src).Memref_rt.data in
  let od = Kc.delta_of strides c.c_dst_idx in
  let sod = Kc.delta_of strides c.c_src_idx in
  let fn : row_fn =
   fun base ->
    let ob = base + od and ib = base + sod in
    let i = ref 0 in
    while !i + 3 < w do
      let k = !i in
      A1.unsafe_set dd (ob + k) (A1.unsafe_get sd (ib + k));
      A1.unsafe_set dd (ob + k + 1) (A1.unsafe_get sd (ib + k + 1));
      A1.unsafe_set dd (ob + k + 2) (A1.unsafe_get sd (ib + k + 2));
      A1.unsafe_set dd (ob + k + 3) (A1.unsafe_get sd (ib + k + 3));
      i := k + 4
    done;
    for k = !i to w - 1 do
      A1.unsafe_set dd (ob + k) (A1.unsafe_get sd (ib + k))
    done
  in
  fun _ -> fn

(* -------- 4- and 6-point sum rows -------- *)

(* Store a step's sums with the peeled scale: [div] divides by [sv],
   otherwise they are multiplied by it (by 1.0 when the sum is
   unscaled, which is exact). Closed, so ocamlopt inlines them and the
   sums stay unboxed. The scale is tested once per step: a test per
   element ran Laplace 512² about 1.14x slower, while computing both
   sums of a step before either store ran it faster than one loop per
   scale kind did. *)
let[@inline] store2 (dd : buf) o div sv s0 s1 =
  if div then begin
    A1.unsafe_set dd o (s0 /. sv);
    A1.unsafe_set dd (o + 1) (s1 /. sv)
  end
  else begin
    A1.unsafe_set dd o (s0 *. sv);
    A1.unsafe_set dd (o + 1) (s1 *. sv)
  end

let[@inline] store1 (dd : buf) o div sv s =
  A1.unsafe_set dd o (if div then s /. sv else s *. sv)

(* The 2-D Laplace 4-point sum and the 3-D Gauss-Seidel 6-point
   average, two elements per step *)
let sum4 ~w ~(dd : buf) ~od (d : buf array) e div sv : row_fn =
  let d0 = d.(0) and d1 = d.(1) and d2 = d.(2) and d3 = d.(3) in
  let e0 = e.(0) and e1 = e.(1) and e2 = e.(2) and e3 = e.(3) in
  fun base ->
    let ob = base + od in
    let i = ref 0 in
    while !i + 1 < w do
      let c = base + !i in
      store2 dd (ob + !i) div sv
        (A1.unsafe_get d0 (c + e0)
         +. A1.unsafe_get d1 (c + e1)
         +. A1.unsafe_get d2 (c + e2)
         +. A1.unsafe_get d3 (c + e3))
        (A1.unsafe_get d0 (c + 1 + e0)
         +. A1.unsafe_get d1 (c + 1 + e1)
         +. A1.unsafe_get d2 (c + 1 + e2)
         +. A1.unsafe_get d3 (c + 1 + e3));
      i := !i + 2
    done;
    if !i < w then begin
      let c = base + !i in
      store1 dd (ob + !i) div sv
        (A1.unsafe_get d0 (c + e0)
         +. A1.unsafe_get d1 (c + e1)
         +. A1.unsafe_get d2 (c + e2)
         +. A1.unsafe_get d3 (c + e3))
    end

let sum6 ~w ~(dd : buf) ~od (d : buf array) e div sv : row_fn =
  let d0 = d.(0) and d1 = d.(1) and d2 = d.(2) in
  let d3 = d.(3) and d4 = d.(4) and d5 = d.(5) in
  let e0 = e.(0) and e1 = e.(1) and e2 = e.(2) in
  let e3 = e.(3) and e4 = e.(4) and e5 = e.(5) in
  fun base ->
    let ob = base + od in
    let i = ref 0 in
    while !i + 1 < w do
      let c = base + !i in
      store2 dd (ob + !i) div sv
        (A1.unsafe_get d0 (c + e0)
         +. A1.unsafe_get d1 (c + e1)
         +. A1.unsafe_get d2 (c + e2)
         +. A1.unsafe_get d3 (c + e3)
         +. A1.unsafe_get d4 (c + e4)
         +. A1.unsafe_get d5 (c + e5))
        (A1.unsafe_get d0 (c + 1 + e0)
         +. A1.unsafe_get d1 (c + 1 + e1)
         +. A1.unsafe_get d2 (c + 1 + e2)
         +. A1.unsafe_get d3 (c + 1 + e3)
         +. A1.unsafe_get d4 (c + 1 + e4)
         +. A1.unsafe_get d5 (c + 1 + e5));
      i := !i + 2
    done;
    if !i < w then begin
      let c = base + !i in
      store1 dd (ob + !i) div sv
        (A1.unsafe_get d0 (c + e0)
         +. A1.unsafe_get d1 (c + e1)
         +. A1.unsafe_get d2 (c + e2)
         +. A1.unsafe_get d3 (c + e3)
         +. A1.unsafe_get d4 (c + e4)
         +. A1.unsafe_get d5 (c + e5))
    end

let bind_wsum ~bufs ~scalars ~strides ~w ~si ws : int array -> row_fn =
  require_unit_stride si;
  let dd = bufs.(ws.w_dst).Memref_rt.data in
  let od = Kc.delta_of strides ws.w_dst_idx in
  let datas = Array.map (fun (b, _) -> bufs.(b).Memref_rt.data) ws.w_loads in
  let deltas = Array.map (fun (_, idx) -> Kc.delta_of strides idx) ws.w_loads in
  let div, sv =
    match ws.w_scale with
    | Sc_none -> (false, 1.0)
    | Sc_mul_const c -> (false, c)
    | Sc_mul_scalar s -> (false, scalars.(s))
    | Sc_div_const c -> (true, c)
    | Sc_div_scalar s -> (true, scalars.(s))
  in
  let sum = if Array.length datas = 4 then sum4 else sum6 in
  let fn = sum ~w ~dd ~od datas deltas div sv in
  fun _ -> fn

(* -------- three-address row programs -------- *)

(* A bound row operand: [data] read from [delta], plus the row base
   when [moves] (a buffer row) or not (a register or fixed row). *)
type row = { data : buf; delta : int; moves : bool }

type src =
  | Row of row
  | Slot of int

let start r base = if r.moves then base + r.delta else r.delta

(* dst := a op b over two rows. The four arithmetic ops are written
   out, four elements per step: ocamlopt (without flambda) neither
   inlines a float operator passed as an argument (it would box every
   element) nor unrolls loops. Every element reads its operands before
   its store, so a destination register that is also an operand is
   safe. *)
let bin_rr ~w name a b d : row_fn =
  let ad = a.data and bd = b.data and dd = d.data in
  match name with
  | "arith.addf" ->
    fun base ->
      let ao = start a base and bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) +. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1)
          (A1.unsafe_get ad (ao + k + 1) +. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2)
          (A1.unsafe_get ad (ao + k + 2) +. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3)
          (A1.unsafe_get ad (ao + k + 3) +. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) +. A1.unsafe_get bd (bo + k))
      done
  | "arith.subf" ->
    fun base ->
      let ao = start a base and bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) -. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1)
          (A1.unsafe_get ad (ao + k + 1) -. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2)
          (A1.unsafe_get ad (ao + k + 2) -. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3)
          (A1.unsafe_get ad (ao + k + 3) -. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) -. A1.unsafe_get bd (bo + k))
      done
  | "arith.mulf" ->
    fun base ->
      let ao = start a base and bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) *. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1)
          (A1.unsafe_get ad (ao + k + 1) *. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2)
          (A1.unsafe_get ad (ao + k + 2) *. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3)
          (A1.unsafe_get ad (ao + k + 3) *. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) *. A1.unsafe_get bd (bo + k))
      done
  | "arith.divf" ->
    fun base ->
      let ao = start a base and bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) /. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1)
          (A1.unsafe_get ad (ao + k + 1) /. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2)
          (A1.unsafe_get ad (ao + k + 2) /. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3)
          (A1.unsafe_get ad (ao + k + 3) /. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k)
          (A1.unsafe_get ad (ao + k) /. A1.unsafe_get bd (bo + k))
      done
  | name ->
    let f = binary_fn name in
    fun base ->
      let ao = start a base and bo = start b base and o = start d base in
      for i = 0 to w - 1 do
        A1.unsafe_set dd (o + i)
          (f (A1.unsafe_get ad (ao + i)) (A1.unsafe_get bd (bo + i)))
      done

(* dst := a op slot *)
let bin_rs ~w ~slots name a s d : row_fn =
  let ad = a.data and dd = d.data in
  match name with
  | "arith.addf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let ao = start a base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) +. v);
        A1.unsafe_set dd (o + k + 1) (A1.unsafe_get ad (ao + k + 1) +. v);
        A1.unsafe_set dd (o + k + 2) (A1.unsafe_get ad (ao + k + 2) +. v);
        A1.unsafe_set dd (o + k + 3) (A1.unsafe_get ad (ao + k + 3) +. v);
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) +. v)
      done
  | "arith.subf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let ao = start a base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) -. v);
        A1.unsafe_set dd (o + k + 1) (A1.unsafe_get ad (ao + k + 1) -. v);
        A1.unsafe_set dd (o + k + 2) (A1.unsafe_get ad (ao + k + 2) -. v);
        A1.unsafe_set dd (o + k + 3) (A1.unsafe_get ad (ao + k + 3) -. v);
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) -. v)
      done
  | "arith.mulf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let ao = start a base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) *. v);
        A1.unsafe_set dd (o + k + 1) (A1.unsafe_get ad (ao + k + 1) *. v);
        A1.unsafe_set dd (o + k + 2) (A1.unsafe_get ad (ao + k + 2) *. v);
        A1.unsafe_set dd (o + k + 3) (A1.unsafe_get ad (ao + k + 3) *. v);
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) *. v)
      done
  | "arith.divf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let ao = start a base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) /. v);
        A1.unsafe_set dd (o + k + 1) (A1.unsafe_get ad (ao + k + 1) /. v);
        A1.unsafe_set dd (o + k + 2) (A1.unsafe_get ad (ao + k + 2) /. v);
        A1.unsafe_set dd (o + k + 3) (A1.unsafe_get ad (ao + k + 3) /. v);
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (A1.unsafe_get ad (ao + k) /. v)
      done
  | name ->
    let f = binary_fn name in
    fun base ->
      let v = Array.unsafe_get slots s in
      let ao = start a base and o = start d base in
      for i = 0 to w - 1 do
        A1.unsafe_set dd (o + i) (f (A1.unsafe_get ad (ao + i)) v)
      done

(* dst := slot op b *)
let bin_sr ~w ~slots name s b d : row_fn =
  let bd = b.data and dd = d.data in
  match name with
  | "arith.addf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (v +. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1) (v +. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2) (v +. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3) (v +. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (v +. A1.unsafe_get bd (bo + k))
      done
  | "arith.subf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (v -. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1) (v -. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2) (v -. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3) (v -. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (v -. A1.unsafe_get bd (bo + k))
      done
  | "arith.mulf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (v *. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1) (v *. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2) (v *. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3) (v *. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (v *. A1.unsafe_get bd (bo + k))
      done
  | "arith.divf" ->
    fun base ->
      let v = Array.unsafe_get slots s in
      let bo = start b base and o = start d base in
      let i = ref 0 in
      while !i + 3 < w do
        let k = !i in
        A1.unsafe_set dd (o + k) (v /. A1.unsafe_get bd (bo + k));
        A1.unsafe_set dd (o + k + 1) (v /. A1.unsafe_get bd (bo + k + 1));
        A1.unsafe_set dd (o + k + 2) (v /. A1.unsafe_get bd (bo + k + 2));
        A1.unsafe_set dd (o + k + 3) (v /. A1.unsafe_get bd (bo + k + 3));
        i := k + 4
      done;
      for k = !i to w - 1 do
        A1.unsafe_set dd (o + k) (v /. A1.unsafe_get bd (bo + k))
      done
  | name ->
    let f = binary_fn name in
    fun base ->
      let v = Array.unsafe_get slots s in
      let bo = start b base and o = start d base in
      for i = 0 to w - 1 do
        A1.unsafe_set dd (o + i) (f v (A1.unsafe_get bd (bo + i)))
      done

let un_r ~w name a d : row_fn =
  let f = unary_fn name in
  let ad = a.data and dd = d.data in
  fun base ->
    let ao = start a base and o = start d base in
    for i = 0 to w - 1 do
      A1.unsafe_set dd (o + i) (f (A1.unsafe_get ad (ao + i)))
    done

(* Hoisted subtrees are evaluated by the closure engine's own
   expression compiler, so they run exactly its operations, in its
   order. *)
let bind_expr ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb ex :
    int array -> row_fn =
  let dd = bufs.(ex.e_dst).Memref_rt.data in
  let od = Kc.delta_of strides ex.e_dst_idx in
  let hoisted ivs e =
    Kc.compile_expr ~unchecked:true bufs scalars strides ivs e
  in
  let scratch () = A1.create Bigarray.float64 Bigarray.c_layout (max w 1) in
  let per_row =
    List.filter
      (fun s -> reads_iv (fun _ -> true) ex.e_slots.(s))
      (List.init (Array.length ex.e_slots) Fun.id)
    |> Array.of_list
  in
  (* fixed rows are filled once per run and only read afterwards, so
     every executor shares them *)
  let fixed =
    Array.map
      (fun e ->
        let ivs = Array.make (inner_level + 1) 0 in
        let f = hoisted ivs e in
        let r = scratch () in
        for i = 0 to w - 1 do
          ivs.(inner_level) <- inner_lb + i;
          A1.unsafe_set r i (f 0)
        done;
        r)
      ex.e_fixed
  in
  let ncode = Array.length ex.e_code in
  (* registers, slots and gather rows are per executor (one executor
     per pool chunk), so concurrent chunks never share them *)
  fun ivs ->
    let regs = Array.init ex.e_nregs (fun _ -> scratch ()) in
    let slot_fns = Array.map (hoisted ivs) ex.e_slots in
    let slots = Array.map (fun f -> f 0) slot_fns in
    (* strided buffer rows are gathered into unit-stride scratch rows
       before the row's ops, so the op loops stay unit-stride *)
    let gathers = ref [] in
    let fixed_row data = { data; delta = 0; moves = false } in
    let src = function
      | O_reg r -> Row (fixed_row regs.(r))
      | O_fixed k -> Row (fixed_row fixed.(k))
      | O_slot s -> Slot s
      | O_load (b, idx) ->
        let data = bufs.(b).Memref_rt.data in
        let delta = Kc.delta_of strides idx in
        if si = 1 then Row { data; delta; moves = true }
        else begin
          let g = scratch () in
          gathers :=
            (fun base ->
              let ib = base + delta in
              for i = 0 to w - 1 do
                A1.unsafe_set g i (A1.unsafe_get data (ib + (i * si)))
              done)
            :: !gathers;
          Row (fixed_row g)
        end
    in
    (* at unit stride the root op writes the destination row itself *)
    let direct = si = 1 && ncode > 0 in
    let dst j r =
      if direct && j = ncode - 1 then { data = dd; delta = od; moves = true }
      else fixed_row regs.(r)
    in
    let op j = function
      | I_unary (r, name, a) -> (
        match src a with
        | Row a -> un_r ~w name a (dst j r)
        | Slot _ -> invalid_arg "Kernel_bytecode: unary op over a slot")
      | I_binary (r, name, a, b) -> (
        match (src a, src b) with
        | Row a, Row b -> bin_rr ~w name a b (dst j r)
        | Row a, Slot s -> bin_rs ~w ~slots name a s (dst j r)
        | Slot s, Row b -> bin_sr ~w ~slots name s b (dst j r)
        | Slot _, Slot _ -> invalid_arg "Kernel_bytecode: op over two slots")
    in
    let ops = Array.mapi op ex.e_code in
    let store : row_fn list =
      if direct then []
      else
        match src ex.e_out with
        | Slot s ->
          [ (fun base ->
              let v = Array.unsafe_get slots s and ob = base + od in
              for i = 0 to w - 1 do
                A1.unsafe_set dd (ob + (i * si)) v
              done) ]
        | Row a ->
          let ad = a.data in
          [ (fun base ->
              let ao = start a base and ob = base + od in
              for i = 0 to w - 1 do
                A1.unsafe_set dd (ob + (i * si)) (A1.unsafe_get ad (ao + i))
              done) ]
    in
    let gathers = Array.of_list (List.rev !gathers) in
    let steps = Array.concat [ gathers; ops; Array.of_list store ] in
    let nsteps = Array.length steps in
    let nper = Array.length per_row in
    fun base ->
      for k = 0 to nper - 1 do
        let s = Array.unsafe_get per_row k in
        Array.unsafe_set slots s ((Array.unsafe_get slot_fns s) base)
      done;
      for j = 0 to nsteps - 1 do
        (Array.unsafe_get steps j) base
      done

let bind_stmt ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb =
  function
  | V_copy c -> bind_copy ~bufs ~strides ~w ~si c
  | V_wsum ws -> bind_wsum ~bufs ~scalars ~strides ~w ~si ws
  | V_expr ex ->
    bind_expr ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb ex

(* -------- nest driver: parallel prefix, sequential rows -------- *)

(* A nest bound to one call's buffers and scalars: the parallel extent,
   and [sweep], which builds one executor (registers, slots, row
   closures) and returns its loop over a range of parallel indices.
   [None] when some loop is empty. *)
type vbound = {
  vb_npar : int;
  vb_npar_levels : int;
  vb_sweep : unit -> int -> int -> unit;
}

let bind_vnest vn ~(bufs : Memref_rt.t array) ~scalars =
  let nest = vn.v_nest in
  let strides = Kc.check_buffers bufs in
  let loops = Array.of_list nest.Kc.n_loops in
  let depth = Array.length loops in
  let extent (l : Kc.loop_spec) = l.Kc.l_ub - l.Kc.l_lb in
  if Array.exists (fun l -> extent l <= 0) loops then None
  else begin
    Kc.check_nest_bounds ~strides ~bufs nest;
    let inner = loops.(depth - 1) in
    let w = extent inner in
    let si = strides.(inner.Kc.l_dim) in
    let outers = Array.sub loops 0 (depth - 1) in
    let npar_levels =
      let n = ref 0 in
      (try
         Array.iter
           (fun (l : Kc.loop_spec) ->
             if l.Kc.l_parallel then incr n else raise Exit)
           outers
       with Exit -> ());
      !n
    in
    let par = Array.sub outers 0 npar_levels in
    let seq = Array.sub outers npar_levels (Array.length outers - npar_levels)
    in
    let npar = Array.fold_left (fun a l -> a * extent l) 1 par in
    let nseq = Array.fold_left (fun a l -> a * extent l) 1 seq in
    let makes =
      Array.map
        (bind_stmt ~bufs ~scalars ~strides ~w ~si
           ~inner_level:inner.Kc.l_level ~inner_lb:inner.Kc.l_lb)
        vn.v_stmts
    in
    (* decode a flat lexicographic index over [lvls] into absolute ivs
       (written into [ivs]) and the summed base offset contribution *)
    let decode lvls flat (ivs : int array) =
      let base = ref 0 and rem = ref flat in
      for i = Array.length lvls - 1 downto 0 do
        let l : Kc.loop_spec = Array.unsafe_get lvls i in
        let r = extent l in
        let iv = l.Kc.l_lb + (!rem mod r) in
        rem := !rem / r;
        Array.unsafe_set ivs l.Kc.l_level iv;
        base := !base + (iv * strides.(l.Kc.l_dim))
      done;
      !base
    in
    let inner_base = inner.Kc.l_lb * si in
    (* each parallel index sweeps every sequential row, in order *)
    let sweep () =
      let ivs = Array.make depth 0 in
      ivs.(depth - 1) <- inner.Kc.l_lb;
      let fns = Array.map (fun m -> m ivs) makes in
      let nf = Array.length fns in
      fun plo phi ->
        for p = plo to phi - 1 do
          let pbase = decode par p ivs in
          for s = 0 to nseq - 1 do
            let base = pbase + decode seq s ivs + inner_base in
            for j = 0 to nf - 1 do
              (Array.unsafe_get fns j) base
            done
          done
        done;
        Obs.add c_rows (nseq * (phi - plo))
    in
    Some { vb_npar = npar; vb_npar_levels = npar_levels; vb_sweep = sweep }
  end

(* One nest bound to one call's buffers and scalars, for repeated calls.
   Binding reads shapes, storage and scalar values, never buffer
   contents (slots and fixed rows hold no loads), so a bound nest
   computes what a fresh binding would. The executor built here runs a
   serial nest and surfaces bind-time fallbacks before a row runs; a
   parallel nest under [pool] hands each concurrent chunk an executor
   of its own. Rejected nests run on the checked closure engine. *)
let bind_compiled ?pool ~bufs ~scalars cn : unit -> unit =
  let checked nest () = Kc.run_nest nest ?pool ~bufs ~scalars () in
  match cn with
  | Scalar (nest, _) -> checked nest
  | Vec vn -> (
    match
      Option.map (fun vb -> (vb, vb.vb_sweep ())) (bind_vnest vn ~bufs ~scalars)
    with
    | None -> ignore
    | Some (vb, go) -> (
      match pool with
      | Some pool when vb.vb_npar_levels > 0 && vb.vb_npar > 1 ->
        fun () ->
          Domain_pool.parallel_for pool ~lo:0 ~hi:vb.vb_npar (fun plo phi ->
              vb.vb_sweep () plo phi)
      | _ -> fun () -> go 0 vb.vb_npar)
    | exception (Bind_fallback _ | Kc.Out_of_bounds _) ->
      fun () ->
        Obs.incr c_fallbacks;
        checked vn.v_nest ())

(* Binding reads a buffer's storage, extents and strides and nothing
   else, so a new record over the same storage (a re-run whose grids
   the arena handed back) keeps the binding. *)
let same_buf (a : Memref_rt.t) (b : Memref_rt.t) =
  a == b
  || (a.Memref_rt.data == b.Memref_rt.data
     && a.Memref_rt.dims = b.Memref_rt.dims
     && a.Memref_rt.strides = b.Memref_rt.strides)

let same_bufs (a : Memref_rt.t array) b =
  Array.length a = Array.length b && Array.for_all2 same_buf a b

(* bitwise, so that a change between 0.0 and -0.0 (or between NaN
   payloads) rebinds; a loop, as a closure over float array elements
   would box them *)
let same_scalars (a : float array) (b : float array) =
  Array.length a = Array.length b
  && begin
    let same = ref true in
    for i = 0 to Array.length a - 1 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Array.unsafe_get a i))
             (Int64.bits_of_float (Array.unsafe_get b i)))
      then same := false
    done;
    !same
  end

type bound = {
  b_bufs : Memref_rt.t array;
  b_scalars : float array;
  b_nests : (unit -> unit) array;
}

let runner ?pool plan =
  let bound = ref None in
  fun ~bufs ~scalars ->
    let b =
      match !bound with
      | Some b when same_bufs b.b_bufs bufs && same_scalars b.b_scalars scalars
        ->
        b
      | _ ->
        let b =
          { b_bufs = Array.copy bufs; b_scalars = Array.copy scalars;
            b_nests =
              Array.of_list
                (List.map (bind_compiled ?pool ~bufs ~scalars) plan.p_nests) }
        in
        bound := Some b;
        b
    in
    Array.iter (fun f -> f ()) b.b_nests

let nest_plan plan index = { p_nests = [ List.nth plan.p_nests index ] }
