(* Row-at-a-time vectorised execution engine for compiled stencil
   kernels — the tier above Kernel_compile's closure JIT.

   The closure engine pays one OCaml closure call per expression node
   per grid cell. This engine compiles each nest's statements once into
   a small register bytecode and executes a whole innermost row per
   step: every instruction is a tight [for] loop over the row (loads
   with precomputed flat-offset deltas into reusable scratch registers,
   arithmetic register-to-register), and the two dominant statement
   shapes bypass the bytecode entirely with fused single loops —
   weighted sums [a*x[d1] + b*x[d2] + ... (/ c)] and plain copies.

   Correctness contract: results are bitwise identical to the closure
   engine (and hence the interpreter). That is achieved by (a) never
   reassociating float arithmetic — only syntactically left-leaning
   add/sub chains are flattened, and terms accumulate in the original
   evaluation order; (b) vectorising a nest only when no statement
   reads a buffer the nest writes, so batching statements row-wise
   cannot change any read-after-write interleaving the per-cell engine
   would honour; (c) falling back per nest to the closure engine
   (compile-time: unsupported shape; bind-time: an access provably
   outside the buffer) rather than approximating.

   On top of the row engine sit cache blocking and parallelism: the
   sequential outer dimensions are processed in tiles of consecutive
   rows (sized by the ["cpu_tile"] annotation from
   Loop_tiling.annotate_cpu, or a built-in L2 heuristic), iterating the
   parallel dimensions innermost within a tile so planes stay hot in
   cache; the leading parallel loop levels are flattened into one index
   space and distributed over the Domain_pool. Memory safety without
   per-access bounds checks comes from the loop bounds being
   compile-time constants: the whole iteration space's minimum and
   maximum flat offsets are validated per access at bind time, then the
   row loops use unchecked accesses. *)

module Kc = Kernel_compile
module Obs = Fsc_obs.Obs
module A1 = Bigarray.Array1

let c_rows = Obs.counter "rt.vector.rows"
let c_tiles = Obs.counter "rt.vector.tiles"
let c_fallbacks = Obs.counter "rt.vector.fallbacks"

(* ------------------------------------------------------------------ *)
(* Statement bytecode                                                  *)
(* ------------------------------------------------------------------ *)

type term =
  | T_load of int * Kc.index_form list          (* x[d] *)
  | T_cload of float * int * Kc.index_form list (* c * x[d] *)
  | T_sload of int * int * Kc.index_form list   (* scalar * x[d] *)
  | T_const of float
  | T_scalar of int

type scale =
  | Sc_none
  | Sc_mul_const of float
  | Sc_div_const of float
  | Sc_mul_scalar of int
  | Sc_div_scalar of int

type instr =
  | I_load of int * int * Kc.index_form list (* dst reg, buf, index *)
  | I_const of int * float
  | I_scalar of int * int
  | I_iv of int * int * int                  (* dst reg, level, offset *)
  | I_unary of int * string * int
  | I_binary of int * string * int * int

type copy_stmt = {
  c_dst : int;
  c_dst_idx : Kc.index_form list;
  c_src : int;
  c_src_idx : Kc.index_form list;
}

type wsum_stmt = {
  w_dst : int;
  w_dst_idx : Kc.index_form list;
  w_terms : (bool * term) array; (* true = add, false = subtract *)
  w_scale : scale;
}

type expr_stmt = {
  e_dst : int;
  e_dst_idx : Kc.index_form list;
  e_code : instr array;
  e_nregs : int;
  e_out : int;
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

type plan = {
  p_spec : Kc.spec;
  p_nests : compiled_nest list;
}

type nest_compile =
  | N_vector of string list
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

(* Weighted-sum recognition. Only syntactically left-leaning add/sub
   chains are flattened — terms execute in the exact order the closure
   engine would evaluate them, so no float reassociation happens. *)
let term_of = function
  | Kc.F_load (b, idx) -> Some (T_load (b, idx))
  | Kc.F_const c -> Some (T_const c)
  | Kc.F_scalar s -> Some (T_scalar s)
  | Kc.F_binary ("arith.mulf", Kc.F_const c, Kc.F_load (b, idx))
  | Kc.F_binary ("arith.mulf", Kc.F_load (b, idx), Kc.F_const c) ->
    Some (T_cload (c, b, idx))
  | Kc.F_binary ("arith.mulf", Kc.F_scalar s, Kc.F_load (b, idx))
  | Kc.F_binary ("arith.mulf", Kc.F_load (b, idx), Kc.F_scalar s) ->
    Some (T_sload (s, b, idx))
  | _ -> None

let rec flatten_sum acc e =
  match e with
  | Kc.F_binary ("arith.addf", l, r) -> (
    match term_of r with
    | Some t -> flatten_sum ((true, t) :: acc) l
    | None -> None)
  | Kc.F_binary ("arith.subf", l, r) -> (
    match term_of r with
    | Some t -> flatten_sum ((false, t) :: acc) l
    | None -> None)
  | e -> (
    match term_of e with
    | Some t -> Some ((true, t) :: acc)
    | None -> None)

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

(* Generic register program: post-order over the tree with stack
   register allocation (a register is freed as soon as its consumer
   executes), so the register count equals the tree's evaluation
   depth. *)
let compile_expr_code e =
  let code = ref [] in
  let next = ref 0 in
  let high = ref 0 in
  let emit i = code := i :: !code in
  let alloc () =
    let r = !next in
    incr next;
    if !next > !high then high := !next;
    if !high > max_regs then
      unvec "expression needs more than %d row registers" max_regs;
    r
  in
  let rec go e =
    match e with
    | Kc.F_const c ->
      let r = alloc () in
      emit (I_const (r, c));
      r
    | Kc.F_scalar s ->
      let r = alloc () in
      emit (I_scalar (r, s));
      r
    | Kc.F_ivf (l, c) ->
      let r = alloc () in
      emit (I_iv (r, l, c));
      r
    | Kc.F_load (b, idx) ->
      let r = alloc () in
      emit (I_load (r, b, idx));
      r
    | Kc.F_unary (name, a) ->
      if not (supported_unary name) then unvec "unary op %s" name;
      let ra = go a in
      emit (I_unary (ra, name, ra));
      ra
    | Kc.F_binary (name, a, b) ->
      if not (supported_binary name) then unvec "binary op %s" name;
      let ra = go a in
      let rb = go b in
      emit (I_binary (ra, name, ra, rb));
      next := rb; (* stack discipline: rb was the top allocation *)
      ra
  in
  let out = go e in
  (Array.of_list (List.rev !code), !high, out)

let rec loaded_buffers acc = function
  | Kc.F_load (b, _) -> b :: acc
  | Kc.F_unary (_, a) -> loaded_buffers acc a
  | Kc.F_binary (_, a, b) -> loaded_buffers (loaded_buffers acc a) b
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> acc

let rec load_indices acc = function
  | Kc.F_load (b, idx) -> (b, idx) :: acc
  | Kc.F_unary (_, a) -> load_indices acc a
  | Kc.F_binary (_, a, b) -> load_indices (load_indices acc a) b
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> acc

let compile_stmt (st : Kc.store_stmt) =
  match st.Kc.st_expr with
  | Kc.F_load (b, idx) ->
    V_copy
      { c_dst = st.Kc.st_buf; c_dst_idx = st.Kc.st_index; c_src = b;
        c_src_idx = idx }
  | e -> (
    let body, scale = peel_scale e in
    match flatten_sum [] body with
    | Some terms when List.length terms >= 2 || scale <> Sc_none ->
      V_wsum
        { w_dst = st.Kc.st_buf; w_dst_idx = st.Kc.st_index;
          w_terms = Array.of_list terms; w_scale = scale }
    | _ ->
      let code, nregs, out = compile_expr_code e in
      V_expr
        { e_dst = st.Kc.st_buf; e_dst_idx = st.Kc.st_index; e_code = code;
          e_nregs = nregs; e_out = out })

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
       statement reads a buffer the nest writes *)
    let stored =
      List.fold_left
        (fun acc (st : Kc.store_stmt) -> st.Kc.st_buf :: acc)
        [] nest.Kc.n_stores
    in
    List.iter
      (fun (st : Kc.store_stmt) ->
        List.iter
          (fun b ->
            if List.mem b stored then
              unvec "nest reads buffer %d that it also writes" b)
          (loaded_buffers [] st.Kc.st_expr))
      nest.Kc.n_stores;
    Ok
      { v_nest = nest;
        v_stmts = Array.of_list (List.map compile_stmt nest.Kc.n_stores) }
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
  { p_spec = spec; p_nests = nests }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stmt_kind = function
  | V_copy _ -> "copy"
  | V_wsum _ -> "wsum"
  | V_expr _ -> "expr"

let summary plan =
  List.map
    (function
      | Vec v -> N_vector (Array.to_list (Array.map stmt_kind v.v_stmts))
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

(* ------------------------------------------------------------------ *)
(* Binding and execution                                               *)
(* ------------------------------------------------------------------ *)

exception Bind_fallback of string

let bind_fail fmt = Printf.ksprintf (fun m -> raise (Bind_fallback m)) fmt

(* Fallback default for untiled nests: half of a typical per-core L2,
   divided across the distinct arrays a row touches. The lowering
   normally supplies the real figure via the cpu_tile annotation. *)
let default_l2_bytes = 512 * 1024

let default_tile_rows ~row_bytes ~arrays =
  max 1 (default_l2_bytes / 2 / max 1 (row_bytes * max 1 arrays))

type row_fn = int array -> int -> unit

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

let bind_copy ~bufs ~strides ~w ~si c : unit -> row_fn =
  let dd = bufs.(c.c_dst).Memref_rt.data in
  let sd = bufs.(c.c_src).Memref_rt.data in
  let od = Kc.delta_of strides c.c_dst_idx in
  let sod = Kc.delta_of strides c.c_src_idx in
  let fn : row_fn =
    if si = 1 then (fun _ base ->
      let ob = base + od and ib = base + sod in
      for i = 0 to w - 1 do
        A1.unsafe_set dd (ob + i) (A1.unsafe_get sd (ib + i))
      done)
    else fun _ base ->
      let ob = base + od and ib = base + sod in
      for i = 0 to w - 1 do
        let o = i * si in
        A1.unsafe_set dd (ob + o) (A1.unsafe_get sd (ib + o))
      done
  in
  fun () -> fn

(* -------- weighted-sum rows -------- *)

(* term kinds after binding: 0 = plain load, 1 = coefficient * load,
   2 = constant (coefficient only) *)
let bind_wsum ~bufs ~scalars ~strides ~w ~si ws : unit -> row_fn =
  let dd = bufs.(ws.w_dst).Memref_rt.data in
  let od = Kc.delta_of strides ws.w_dst_idx in
  let k = Array.length ws.w_terms in
  let adds = Array.map fst ws.w_terms in
  let kinds = Array.make k 0 in
  let coefs = Array.make k 0.0 in
  let datas = Array.make k dd in
  let deltas = Array.make k 0 in
  Array.iteri
    (fun t (_, term) ->
      match term with
      | T_load (b, idx) ->
        kinds.(t) <- 0;
        datas.(t) <- bufs.(b).Memref_rt.data;
        deltas.(t) <- Kc.delta_of strides idx
      | T_cload (c, b, idx) ->
        kinds.(t) <- 1;
        coefs.(t) <- c;
        datas.(t) <- bufs.(b).Memref_rt.data;
        deltas.(t) <- Kc.delta_of strides idx
      | T_sload (s, b, idx) ->
        kinds.(t) <- 1;
        coefs.(t) <- scalars.(s);
        datas.(t) <- bufs.(b).Memref_rt.data;
        deltas.(t) <- Kc.delta_of strides idx
      | T_const c ->
        kinds.(t) <- 2;
        coefs.(t) <- c
      | T_scalar s ->
        kinds.(t) <- 2;
        coefs.(t) <- scalars.(s))
    ws.w_terms;
  let sk, sv =
    match ws.w_scale with
    | Sc_none -> (0, 0.0)
    | Sc_mul_const c -> (1, c)
    | Sc_mul_scalar s -> (1, scalars.(s))
    | Sc_div_const c -> (2, c)
    | Sc_div_scalar s -> (2, scalars.(s))
  in
  let all_plain_add =
    Array.for_all Fun.id adds && Array.for_all (fun x -> x = 0) kinds
  in
  let fn : row_fn =
    match k with
    | 4 when all_plain_add ->
      (* e.g. the 2-D Laplace 4-point sum *)
      let d0 = datas.(0) and d1 = datas.(1) in
      let d2 = datas.(2) and d3 = datas.(3) in
      let e0 = deltas.(0) and e1 = deltas.(1) in
      let e2 = deltas.(2) and e3 = deltas.(3) in
      fun _ base ->
        let ob = base + od in
        for i = 0 to w - 1 do
          let c = base + (i * si) in
          let s =
            A1.unsafe_get d0 (c + e0)
            +. A1.unsafe_get d1 (c + e1)
            +. A1.unsafe_get d2 (c + e2)
            +. A1.unsafe_get d3 (c + e3)
          in
          let s = if sk = 0 then s else if sk = 1 then s *. sv else s /. sv in
          A1.unsafe_set dd (ob + (i * si)) s
        done
    | 6 when all_plain_add ->
      (* e.g. the 3-D Gauss-Seidel 6-point average *)
      let d0 = datas.(0) and d1 = datas.(1) and d2 = datas.(2) in
      let d3 = datas.(3) and d4 = datas.(4) and d5 = datas.(5) in
      let e0 = deltas.(0) and e1 = deltas.(1) and e2 = deltas.(2) in
      let e3 = deltas.(3) and e4 = deltas.(4) and e5 = deltas.(5) in
      fun _ base ->
        let ob = base + od in
        for i = 0 to w - 1 do
          let c = base + (i * si) in
          let s =
            A1.unsafe_get d0 (c + e0)
            +. A1.unsafe_get d1 (c + e1)
            +. A1.unsafe_get d2 (c + e2)
            +. A1.unsafe_get d3 (c + e3)
            +. A1.unsafe_get d4 (c + e4)
            +. A1.unsafe_get d5 (c + e5)
          in
          let s = if sk = 0 then s else if sk = 1 then s *. sv else s /. sv in
          A1.unsafe_set dd (ob + (i * si)) s
        done
    | _ ->
      fun _ base ->
        let ob = base + od in
        for i = 0 to w - 1 do
          let c = base + (i * si) in
          let acc =
            ref
              (match Array.unsafe_get kinds 0 with
              | 0 -> A1.unsafe_get (Array.unsafe_get datas 0)
                       (c + Array.unsafe_get deltas 0)
              | 1 ->
                Array.unsafe_get coefs 0
                *. A1.unsafe_get (Array.unsafe_get datas 0)
                     (c + Array.unsafe_get deltas 0)
              | _ -> Array.unsafe_get coefs 0)
          in
          for t = 1 to k - 1 do
            let v =
              match Array.unsafe_get kinds t with
              | 0 ->
                A1.unsafe_get (Array.unsafe_get datas t)
                  (c + Array.unsafe_get deltas t)
              | 1 ->
                Array.unsafe_get coefs t
                *. A1.unsafe_get (Array.unsafe_get datas t)
                     (c + Array.unsafe_get deltas t)
              | _ -> Array.unsafe_get coefs t
            in
            acc := (if Array.unsafe_get adds t then !acc +. v else !acc -. v)
          done;
          let s = !acc in
          let s = if sk = 0 then s else if sk = 1 then s *. sv else s /. sv in
          A1.unsafe_set dd (ob + (i * si)) s
        done
  in
  fun () -> fn

(* -------- generic register programs -------- *)

let bind_expr ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb ex :
    unit -> row_fn =
  let dd = bufs.(ex.e_dst).Memref_rt.data in
  let od = Kc.delta_of strides ex.e_dst_idx in
  (* scratch registers are per-row-executor (one executor per pool
     chunk), so concurrent chunks never share them *)
  fun () ->
    let regs = Array.init ex.e_nregs (fun _ -> Array.make (max w 1) 0.0) in
    let bind_instr = function
      | I_load (dst, b, idx) ->
        let data = bufs.(b).Memref_rt.data in
        let delta = Kc.delta_of strides idx in
        let r = regs.(dst) in
        if si = 1 then (fun (_ : int array) base ->
          let ib = base + delta in
          for i = 0 to w - 1 do
            Array.unsafe_set r i (A1.unsafe_get data (ib + i))
          done)
        else fun _ base ->
          let ib = base + delta in
          for i = 0 to w - 1 do
            Array.unsafe_set r i (A1.unsafe_get data (ib + (i * si)))
          done
      | I_const (dst, c) ->
        let r = regs.(dst) in
        fun _ _ -> Array.fill r 0 w c
      | I_scalar (dst, s) ->
        let r = regs.(dst) in
        let v = scalars.(s) in
        fun _ _ -> Array.fill r 0 w v
      | I_iv (dst, l, c) ->
        let r = regs.(dst) in
        if l = inner_level then (fun _ _ ->
          for i = 0 to w - 1 do
            Array.unsafe_set r i (float_of_int (inner_lb + i + c))
          done)
        else fun ivs _ ->
          Array.fill r 0 w (float_of_int (Array.unsafe_get ivs l + c))
      | I_unary (dst, name, a) ->
        let f = unary_fn name in
        let rd = regs.(dst) and ra = regs.(a) in
        fun _ _ ->
          for i = 0 to w - 1 do
            Array.unsafe_set rd i (f (Array.unsafe_get ra i))
          done
      | I_binary (dst, name, a, b) ->
        let rd = regs.(dst) and ra = regs.(a) and rb = regs.(b) in
        (match name with
        | "arith.addf" ->
          fun _ _ ->
            for i = 0 to w - 1 do
              Array.unsafe_set rd i
                (Array.unsafe_get ra i +. Array.unsafe_get rb i)
            done
        | "arith.subf" ->
          fun _ _ ->
            for i = 0 to w - 1 do
              Array.unsafe_set rd i
                (Array.unsafe_get ra i -. Array.unsafe_get rb i)
            done
        | "arith.mulf" ->
          fun _ _ ->
            for i = 0 to w - 1 do
              Array.unsafe_set rd i
                (Array.unsafe_get ra i *. Array.unsafe_get rb i)
            done
        | "arith.divf" ->
          fun _ _ ->
            for i = 0 to w - 1 do
              Array.unsafe_set rd i
                (Array.unsafe_get ra i /. Array.unsafe_get rb i)
            done
        | name ->
          let f = binary_fn name in
          fun _ _ ->
            for i = 0 to w - 1 do
              Array.unsafe_set rd i
                (f (Array.unsafe_get ra i) (Array.unsafe_get rb i))
            done)
    in
    let fns = Array.map bind_instr ex.e_code in
    let nf = Array.length fns in
    let out = regs.(ex.e_out) in
    fun ivs base ->
      for j = 0 to nf - 1 do
        (Array.unsafe_get fns j) ivs base
      done;
      let ob = base + od in
      if si = 1 then
        for i = 0 to w - 1 do
          A1.unsafe_set dd (ob + i) (Array.unsafe_get out i)
        done
      else
        for i = 0 to w - 1 do
          A1.unsafe_set dd (ob + (i * si)) (Array.unsafe_get out i)
        done

let bind_stmt ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb =
  function
  | V_copy c -> bind_copy ~bufs ~strides ~w ~si c
  | V_wsum ws -> bind_wsum ~bufs ~scalars ~strides ~w ~si ws
  | V_expr ex ->
    bind_expr ~bufs ~scalars ~strides ~w ~si ~inner_level ~inner_lb ex

(* -------- nest driver: tiles over rows, parallel prefix -------- *)

let run_vnest vn ?pool ~(bufs : Memref_rt.t array) ~scalars () =
  let nest = vn.v_nest in
  let strides = Kc.check_buffers bufs in
  let loops = Array.of_list nest.Kc.n_loops in
  let depth = Array.length loops in
  let extent (l : Kc.loop_spec) = l.Kc.l_ub - l.Kc.l_lb in
  if Array.exists (fun l -> extent l <= 0) loops then ()
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
    let tile =
      match nest.Kc.n_tile with
      | t :: _ when t > 0 -> t
      | _ ->
        default_tile_rows ~row_bytes:(8 * w) ~arrays:(Array.length bufs)
    in
    let tile = max 1 (min tile nseq) in
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
    let ntiles = (nseq + tile - 1) / tile in
    (* Tile loop outermost, parallel index innermost within a tile: the
       rows of a tile are revisited across adjacent parallel indices
       while still hot. Reordering across parallel indices is always
       legal; the sequential row order within each parallel index is
       preserved (tiles ascend, rows ascend within a tile). *)
    let do_range plo phi =
      let fns = Array.map (fun m -> m ()) makes in
      let nf = Array.length fns in
      let ivs = Array.make depth 0 in
      ivs.(depth - 1) <- inner.Kc.l_lb;
      for t = 0 to ntiles - 1 do
        Obs.incr c_tiles;
        let slo = t * tile and shi = min nseq ((t + 1) * tile) in
        for p = plo to phi - 1 do
          let pbase = decode par p ivs in
          for s = slo to shi - 1 do
            let base = pbase + decode seq s ivs + inner_base in
            for j = 0 to nf - 1 do
              (Array.unsafe_get fns j) ivs base
            done
          done
        done;
        Obs.add c_rows ((shi - slo) * (phi - plo))
      done
    in
    match pool with
    | Some pool when npar_levels > 0 && npar > 1 ->
      Domain_pool.parallel_for pool ~lo:0 ~hi:npar do_range
    | _ -> do_range 0 npar
  end

let run_compiled ?pool ~bufs ~scalars cn =
  match cn with
  | Vec vn -> (
    try run_vnest vn ?pool ~bufs ~scalars () with
    | Bind_fallback _ | Kc.Out_of_bounds _ ->
      Obs.incr c_fallbacks;
      Kc.run_nest vn.v_nest ?pool ~bufs ~scalars ())
  | Scalar (nest, _) -> Kc.run_nest nest ?pool ~bufs ~scalars ()

let run plan ?pool ~bufs ~scalars () =
  List.iter (run_compiled ?pool ~bufs ~scalars) plan.p_nests

(* Single-nest entry point for engines that interleave their own nests
   with vector-executed ones (the native JIT's per-nest fallback). *)
let run_nest plan index ?pool ~bufs ~scalars () =
  run_compiled ?pool ~bufs ~scalars (List.nth plan.p_nests index)

let spec plan = plan.p_spec
