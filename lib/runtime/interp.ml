(* Tree-walking IR interpreter.

   This is the execution substrate for the "Flang only" path (direct FIR
   execution, deliberately naive — Flang without the stencil optimisation)
   and the functional reference for every lowered form (scf, omp, gpu).
   The fast paths live in [Kernel_compile]; benchmark speedups between
   tiers are real measured differences between this interpreter and the
   compiled kernels.

   Cross-module linking: modules are registered into a context by symbol;
   fir.call from the host module resolves into the stencil module's
   functions even though the pointer types differ nominally
   (!fir.llvm_ptr vs !llvm.ptr) — exactly the link-time reconciliation
   the paper relies on. *)

open Fsc_ir
module Math = Fsc_dialects.Math
module Obs = Fsc_obs.Obs

(* total interpreted ops; per-op-name counts live under "interp.op.<name>"
   and are only accumulated while tracing is enabled *)
let c_interp_ops = Obs.counter "interp.ops"
let c_kernel_launches = Obs.counter "interp.gpu_launches"
let c_grids_unzeroed = Obs.counter "rt.grids_unzeroed"

exception Interp_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Interp_error m)) fmt

type rvalue =
  | R_unit
  | R_int of int
  | R_float of float
  | R_buf of Memref_rt.t
  | R_cell of cell
  | R_elem of Memref_rt.t * int (* buffer, flat offset *)

and cell = { mutable contents : rvalue }

let as_int = function
  | R_int n -> n
  | R_float f -> int_of_float f
  | _ -> err "expected integer value"

let as_float = function
  | R_float f -> f
  | R_int n -> float_of_int n
  | _ -> err "expected float value"

let as_buf = function
  | R_buf b -> b
  | R_cell { contents = R_buf b } -> b
  | _ -> err "expected buffer value"

type context = {
  funcs : (string, Op.op) Hashtbl.t;
  gpu_funcs : (string, Op.op) Hashtbl.t; (* "module::name" *)
  externals : (string, context -> rvalue list -> rvalue list) Hashtbl.t;
  mutable pool : Domain_pool.t option;
  mutable gpu : Gpu_sim.t option;
  mutable gpu_strategy : Gpu_sim.data_strategy;
  mutable gpu_coords : int array; (* bid x,y,z, tid x,y,z *)
  mutable output : Buffer.t option; (* capture fir.print *)
  mutable op_count : int; (* interpreted ops, for tests/inspection *)
  (* every named array allocation, so drivers/tests can inspect grids *)
  mutable named_buffers : (string * Memref_rt.t) list;
  (* result value ids of the array fir.allocas whose first use
     overwrites every cell: allocated without the zero-fill *)
  unzeroed : (int, unit) Hashtbl.t;
}

let create_context () =
  { funcs = Hashtbl.create 16; gpu_funcs = Hashtbl.create 16;
    externals = Hashtbl.create 16; pool = None; gpu = None;
    gpu_strategy = Gpu_sim.Strategy_host_register;
    gpu_coords = Array.make 6 0; output = None; op_count = 0;
    named_buffers = []; unzeroed = Hashtbl.create 4 }

(* Register every function of [m] (plus gpu.module kernels). *)
let add_module ctx m =
  Op.walk
    (fun op ->
      if op.Op.o_name = "func.func" then
        Hashtbl.replace ctx.funcs (Op.string_attr op "sym_name") op
      else if op.Op.o_name = "gpu.module" then begin
        let mod_name = Op.string_attr op "sym_name" in
        Op.walk_inner
          (fun k ->
            if k.Op.o_name = "gpu.func" then
              Hashtbl.replace ctx.gpu_funcs
                (mod_name ^ "::" ^ Op.string_attr k "sym_name")
                k)
          op
      end)
    m

let register_external ctx name f = Hashtbl.replace ctx.externals name f

let print_to ctx s =
  match ctx.output with
  | Some b -> Buffer.add_string b s
  | None -> print_string s

(* environment: SSA value id -> runtime value *)
type env = (int, rvalue) Hashtbl.t

let lookup (env : env) (v : Op.value) =
  match Hashtbl.find_opt env v.Op.v_id with
  | Some rv -> rv
  | None -> err "use of unbound SSA value (%%#%d)" v.Op.v_id

let bind (env : env) (v : Op.value) rv = Hashtbl.replace env v.Op.v_id rv

(* what a structured block evaluation produced *)
type block_result =
  | Fell_through
  | Yielded of rvalue list
  | Returned of rvalue list

let default_for_type = function
  | t when Types.is_float t -> R_float 0.0
  | t when Types.is_integer t -> R_int 0
  | _ -> R_unit

let scalar_of_type ty rv =
  (* coerce a value to the representation its type implies *)
  match ty with
  | t when Types.is_float t -> R_float (as_float rv)
  | t when Types.is_integer t -> R_int (as_int rv)
  | _ -> rv

let buffer_dims_of_type = function
  | Types.Fir_array (dims, _) | Types.Memref (dims, _) ->
    List.map
      (function
        | Types.Static n -> n
        | Types.Dynamic -> err "cannot allocate dynamic extent statically")
      dims
  | t -> err "not an array type: %s" (Types.to_string t)

let alloca_dims op =
  match (op.Op.o_name, Op.attr op "in_type") with
  | "fir.alloca", Some (Attr.Type_a (Types.Fir_array _ as t)) -> (
    try Some (buffer_dims_of_type t) with Interp_error _ -> None)
  | _ -> None

exception Early_return of block_result

(* Fortran EXIT / CYCLE unwinding to the innermost enclosing loop *)
exception Loop_exit
exception Loop_cycle

let rec exec_block ctx env block : block_result =
  let rec go = function
    | [] -> Fell_through
    | op :: rest -> (
      ctx.op_count <- ctx.op_count + 1;
      Obs.incr c_interp_ops;
      if Obs.enabled () then
        Obs.incr (Obs.counter ("interp.op." ^ op.Op.o_name));
      match op.Op.o_name with
      | "func.return" -> Returned (List.map (lookup env) (Op.operands op))
      | "fir.result" | "scf.yield" | "omp.yield" | "omp.terminator"
      | "gpu.terminator" | "gpu.return" ->
        Yielded (List.map (lookup env) (Op.operands op))
      | _ ->
        (match exec_op ctx env op with
        | Some (Returned _ as r) -> raise (Early_return r)
        | _ -> ());
        go rest)
  in
  try go (Op.block_ops block) with Early_return r -> r

and exec_op ctx env op : block_result option =
  let operand i = lookup env (Op.operand ~index:i op) in
  let bind_result rv = bind env (Op.result op) rv in
  let int_binop f =
    bind_result (R_int (f (as_int (operand 0)) (as_int (operand 1))));
    None
  in
  let float_binop f =
    bind_result (R_float (f (as_float (operand 0)) (as_float (operand 1))));
    None
  in
  let register_buffer buf =
    match Op.attr op "bindc_name" with
    | Some (Attr.Str_a n) ->
      (* replace, never accumulate: a context is re-run many times on
         the same program, and keeping every historical allocation
         reachable pins its off-heap storage for the process lifetime *)
      ctx.named_buffers <- (n, buf) :: List.remove_assoc n ctx.named_buffers
    | _ -> ()
  in
  match op.Op.o_name with
  (* ---- arith ---- *)
  | "arith.constant" ->
    (match Op.attr_exn op "value" with
    | Attr.Int_a n -> bind_result (R_int n)
    | Attr.Float_a f -> bind_result (R_float f)
    | a -> err "arith.constant with value %s" (Attr.to_string a));
    None
  | "arith.addi" -> int_binop ( + )
  | "arith.subi" -> int_binop ( - )
  | "arith.muli" -> int_binop ( * )
  | "arith.divsi" -> int_binop (fun a b ->
      if b = 0 then err "integer division by zero" else a / b)
  | "arith.remsi" -> int_binop (fun a b ->
      if b = 0 then err "integer modulo by zero" else a mod b)
  | "arith.andi" -> int_binop ( land )
  | "arith.ori" -> int_binop ( lor )
  | "arith.xori" -> int_binop ( lxor )
  | "arith.shli" -> int_binop ( lsl )
  | "arith.shrsi" -> int_binop ( asr )
  | "arith.maxsi" -> int_binop max
  | "arith.minsi" -> int_binop min
  | "arith.addf" -> float_binop ( +. )
  | "arith.subf" -> float_binop ( -. )
  | "arith.mulf" -> float_binop ( *. )
  | "arith.divf" -> float_binop ( /. )
  | "arith.maximumf" -> float_binop Float.max
  | "arith.minimumf" -> float_binop Float.min
  | "arith.negf" ->
    bind_result (R_float (-.as_float (operand 0)));
    None
  | "arith.cmpi" ->
    let a = as_int (operand 0) and b = as_int (operand 1) in
    let r =
      match Op.int_attr op "predicate" with
      | 0 -> a = b
      | 1 -> a <> b
      | 2 -> a < b
      | 3 -> a <= b
      | 4 -> a > b
      | 5 -> a >= b
      | p -> err "cmpi predicate %d" p
    in
    bind_result (R_int (if r then 1 else 0));
    None
  | "arith.cmpf" ->
    let a = as_float (operand 0) and b = as_float (operand 1) in
    let r =
      match Op.int_attr op "predicate" with
      | 0 -> a = b
      | 1 -> a <> b
      | 2 -> a < b
      | 3 -> a <= b
      | 4 -> a > b
      | 5 -> a >= b
      | p -> err "cmpf predicate %d" p
    in
    bind_result (R_int (if r then 1 else 0));
    None
  | "arith.select" ->
    bind_result (if as_int (operand 0) <> 0 then operand 1 else operand 2);
    None
  | "arith.index_cast" ->
    bind_result (R_int (as_int (operand 0)));
    None
  | "arith.sitofp" ->
    bind_result (R_float (float_of_int (as_int (operand 0))));
    None
  | "arith.fptosi" ->
    bind_result (R_int (int_of_float (as_float (operand 0))));
    None
  | "arith.extf" | "arith.truncf" ->
    bind_result (R_float (as_float (operand 0)));
    None
  (* ---- math ---- *)
  | name when Dialect.in_dialect name "math" ->
    (match Op.num_operands op with
    | 1 -> bind_result (R_float (Math.eval_unary name (as_float (operand 0))))
    | 2 ->
      if name = "math.fpowi" then
        bind_result
          (R_float
             (Float.pow (as_float (operand 0))
                (float_of_int (as_int (operand 1)))))
      else
        bind_result
          (R_float
             (Math.eval_binary name (as_float (operand 0))
                (as_float (operand 1))))
    | 3 ->
      (* fma *)
      bind_result
        (R_float
           (Float.fma (as_float (operand 0)) (as_float (operand 1))
              (as_float (operand 2))))
    | n -> err "math op with %d operands" n);
    None
  (* ---- fir ---- *)
  | "fir.alloca" -> (
    match Op.attr_exn op "in_type" with
    | Attr.Type_a (Types.Fir_array _ as t) ->
      let dims = buffer_dims_of_type t in
      let buf =
        if Hashtbl.mem ctx.unzeroed (Op.result op).Op.v_id then begin
          Obs.incr c_grids_unzeroed;
          Memref_rt.create_uninit dims
        end
        else Memref_rt.create dims
      in
      register_buffer buf;
      bind_result (R_buf buf);
      None
    | Attr.Type_a (Types.Fir_heap _) | Attr.Type_a (Types.Fir_llvm_ptr _) ->
      bind_result (R_cell { contents = R_unit });
      None
    | Attr.Type_a t ->
      bind_result (R_cell { contents = default_for_type t });
      None
    | _ -> err "fir.alloca without in_type")
  | "fir.allocmem" -> (
    match Op.attr_exn op "in_type" with
    | Attr.Type_a (Types.Fir_array _ as t) ->
      let buf = Memref_rt.create (buffer_dims_of_type t) in
      register_buffer buf;
      bind_result (R_buf buf);
      None
    | _ -> err "fir.allocmem of non-array")
  | "fir.freemem" -> None
  | "fir.declare" ->
    bind_result (operand 0);
    None
  | "fir.load" -> (
    match operand 0 with
    | R_cell c ->
      bind_result c.contents;
      None
    | R_elem (buf, off) ->
      let f = Memref_rt.get_flat buf off in
      bind_result
        (scalar_of_type (Op.value_type (Op.result op)) (R_float f));
      None
    | R_buf _ as b ->
      bind_result b;
      None
    | _ -> err "fir.load of non-reference")
  | "fir.store" -> (
    let v = operand 0 in
    (match operand 1 with
    | R_cell c -> c.contents <- v
    | R_elem (buf, off) -> Memref_rt.set_flat buf off (as_float v)
    | _ -> err "fir.store to non-reference");
    None)
  | "fir.coordinate_of" ->
    let buf = as_buf (operand 0) in
    let idxs =
      Array.init
        (Op.num_operands op - 1)
        (fun i -> as_int (operand (i + 1)))
    in
    bind_result (R_elem (buf, Memref_rt.offset buf idxs));
    None
  | "fir.convert" ->
    let v = operand 0 in
    let to_ = Op.value_type (Op.result op) in
    (match (v, to_) with
    | (R_buf _ | R_cell _ | R_elem _), _ -> bind_result v
    | _, t when Types.is_float t -> bind_result (R_float (as_float v))
    | _, t when Types.is_integer t -> bind_result (R_int (as_int v))
    | _ -> bind_result v);
    None
  | "fir.no_reassoc" ->
    bind_result (operand 0);
    None
  | "fir.do_loop" -> exec_do_loop ctx env op ~inclusive:true
  | "scf.for" -> exec_do_loop ctx env op ~inclusive:false
  | "fir.exit" -> raise Loop_exit
  | "fir.cycle" -> raise Loop_cycle
  | "fir.iterate_while" ->
    let cond_region = Op.region ~index:0 op in
    let body_region = Op.region ~index:1 op in
    let rec loop () =
      let continue_ =
        match exec_region ctx env cond_region with
        | Yielded [ v ] -> as_int v <> 0
        | _ -> err "fir.iterate_while condition must yield one value"
      in
      if continue_ then begin
        (match exec_region ctx env body_region with
        | Returned _ as r -> raise (Early_return r)
        | exception Loop_cycle -> ()
        | _ -> ());
        loop ()
      end
    in
    (try loop () with Loop_exit -> ());
    None
  | "fir.if" | "scf.if" ->
    let cond = as_int (operand 0) <> 0 in
    let nregions = Array.length op.Op.o_regions in
    let result =
      if cond then exec_region ctx env (Op.region ~index:0 op)
      else if nregions > 1 then exec_region ctx env (Op.region ~index:1 op)
      else Yielded []
    in
    (match result with
    | Yielded values ->
      List.iteri (fun i v -> bind env (Op.result ~index:i op) v)
        (List.filteri (fun i _ -> i < Op.num_results op) values);
      None
    | Returned _ as r -> Some r
    | Fell_through -> None)
  | "scf.parallel" -> exec_scf_parallel ctx env op
  | "fir.call" | "func.call" | "llvm.call" ->
    let callee = Op.string_attr op "callee" in
    let args = List.map (lookup env) (Op.operands op) in
    let results = call ctx callee args in
    List.iteri (fun i v -> bind env (Op.result ~index:i op) v) results;
    None
  | "fir.print" ->
    let fmts =
      match Op.attr_exn op "format" with
      | Attr.Arr_a xs -> xs
      | _ -> []
    in
    let operands = ref (List.map (lookup env) (Op.operands op)) in
    let parts =
      List.map
        (fun fmt ->
          match fmt with
          | Attr.Str_a s -> s
          | _ -> (
            match !operands with
            | v :: rest ->
              operands := rest;
              (match v with
              | R_int n -> string_of_int n
              | R_float f -> Printf.sprintf "%.8g" f
              | _ -> "?")
            | [] -> "?"))
        fmts
    in
    print_to ctx (String.concat " " parts ^ "\n");
    None
  (* ---- memref ---- *)
  | "memref.alloc" | "memref.alloca" ->
    let buf =
      Memref_rt.create (buffer_dims_of_type (Op.value_type (Op.result op)))
    in
    register_buffer buf;
    bind_result (R_buf buf);
    None
  | "memref.dealloc" -> None
  | "memref.load" ->
    let buf = as_buf (operand 0) in
    let idxs =
      Array.init (Op.num_operands op - 1) (fun i -> as_int (operand (i + 1)))
    in
    bind_result
      (scalar_of_type
         (Op.value_type (Op.result op))
         (R_float (Memref_rt.get buf idxs)));
    None
  | "memref.store" ->
    let v = as_float (operand 0) in
    let buf = as_buf (operand 1) in
    let idxs =
      Array.init (Op.num_operands op - 2) (fun i -> as_int (operand (i + 2)))
    in
    Memref_rt.set buf idxs v;
    None
  | "memref.cast" | "builtin.unrealized_conversion_cast" | "llvm.bitcast" ->
    bind_result (operand 0);
    None
  | "memref.copy" ->
    Memref_rt.copy_into ~src:(as_buf (operand 0)) ~dst:(as_buf (operand 1));
    None
  | "memref.dim" ->
    let buf = as_buf (operand 0) in
    bind_result (R_int buf.Memref_rt.dims.(as_int (operand 1)));
    None
  (* ---- omp ---- *)
  | "omp.parallel" -> (
    (* the parallelism materialises at the wsloop inside *)
    match exec_region ctx env (Op.region op) with
    | Returned _ as r -> Some r
    | _ -> None)
  | "omp.wsloop" -> exec_wsloop ctx env op
  | "omp.barrier" -> None
  (* ---- gpu ---- *)
  | "gpu.host_register" ->
    (match ctx.gpu with
    | Some g -> Gpu_sim.host_register g (as_buf (operand 0))
    | None -> ());
    None
  | "gpu.alloc" ->
    (* device twin of a host buffer is created lazily; represent the
       device buffer by the host buffer identity *)
    let buf =
      Memref_rt.create
        (buffer_dims_of_type (Op.value_type (Op.result op)))
    in
    (match ctx.gpu with Some g -> Gpu_sim.alloc g buf | None -> ());
    bind_result (R_buf buf);
    None
  | "gpu.dealloc" ->
    (match ctx.gpu with
    | Some g -> Gpu_sim.dealloc g (as_buf (operand 0))
    | None -> ());
    None
  | "gpu.memcpy" ->
    (* dst, src; simulate as host copy plus device traffic accounting *)
    let dst = as_buf (operand 0) and src = as_buf (operand 1) in
    Memref_rt.copy_into ~src ~dst;
    (match ctx.gpu with
    | Some g -> Gpu_sim.charge g (Gpu_sim.copy_time g (Memref_rt.bytes src))
    | None -> ());
    None
  | "gpu.thread_id" | "gpu.block_id" | "gpu.block_dim" | "gpu.grid_dim" ->
    let d =
      match Op.string_attr op "dimension" with
      | "x" -> 0
      | "y" -> 1
      | "z" -> 2
      | s -> err "gpu dimension %s" s
    in
    let base =
      match op.Op.o_name with
      | "gpu.block_id" -> 0
      | "gpu.thread_id" -> 3
      | _ -> err "%s not available inside interpreted kernels" op.Op.o_name
    in
    bind_result (R_int ctx.gpu_coords.(base + d));
    None
  | "gpu.launch_func" -> exec_launch_func ctx env op
  | "gpu.wait" -> None
  (* ---- stencil (direct interpretation, for reference semantics) ---- *)
  | "stencil.external_load" | "stencil.load" | "stencil.cast" ->
    bind_result (operand 0);
    None
  | name -> err "interpreter: unhandled operation %s" name

and exec_region ctx env region =
  match region.Op.g_blocks with
  | [ b ] -> exec_block ctx env b
  | _ -> err "multi-block regions are not interpretable (structured IR only)"

(* fir.do_loop (inclusive ub) and scf.for (exclusive ub), with iter args *)
and exec_do_loop ctx env op ~inclusive =
  let lb = as_int (lookup env (Op.operand ~index:0 op)) in
  let ub = as_int (lookup env (Op.operand ~index:1 op)) in
  let step = as_int (lookup env (Op.operand ~index:2 op)) in
  if step <= 0 then err "loop step must be positive";
  let n_iter_args = Op.num_operands op - 3 in
  let body =
    match (Op.region op).Op.g_blocks with
    | [ b ] -> b
    | _ -> err "loop body must be a single block"
  in
  let iters =
    ref
      (List.init n_iter_args (fun i -> lookup env (Op.operand ~index:(3 + i) op)))
  in
  let limit = if inclusive then ub else ub - 1 in
  let i = ref lb in
  let early = ref None in
  let stop = ref false in
  while (not !stop) && !early = None && !i <= limit do
    bind env (Op.block_arg ~index:0 body) (R_int !i);
    List.iteri
      (fun k v -> bind env (Op.block_arg ~index:(k + 1) body) v)
      !iters;
    (match exec_block ctx env body with
    | Yielded vs -> iters := vs
    | Fell_through -> ()
    | Returned _ as r -> early := Some r
    | exception Loop_cycle -> ()
    | exception Loop_exit -> stop := true);
    i := !i + step
  done;
  match !early with
  | Some r -> Some r
  | None ->
    List.iteri (fun k v -> bind env (Op.result ~index:k op) v) !iters;
    None

(* reference (serial) execution of scf.parallel *)
and exec_scf_parallel ctx env op =
  let lbs, ubs, steps = Fsc_dialects.Scf.parallel_bounds op in
  let lbs = List.map (fun v -> as_int (lookup env v)) lbs in
  let ubs = List.map (fun v -> as_int (lookup env v)) ubs in
  let steps = List.map (fun v -> as_int (lookup env v)) steps in
  let body =
    match (Op.region op).Op.g_blocks with
    | [ b ] -> b
    | _ -> err "parallel body must be a single block"
  in
  let rec loop dims idxs =
    match dims with
    | [] ->
      List.iteri
        (fun k v -> bind env (Op.block_arg ~index:k body) (R_int v))
        (List.rev idxs);
      (match exec_block ctx env body with
      | Returned _ -> err "return from inside scf.parallel"
      | _ -> ())
    | (lb, ub, step) :: rest ->
      let i = ref lb in
      while !i < ub do
        loop rest (!i :: idxs);
        i := !i + step
      done
  in
  loop (List.combine lbs (List.combine ubs steps)
        |> List.map (fun (a, (b, c)) -> (a, b, c)))
    [];
  None

(* omp.wsloop: work-share the outermost dimension over the pool *)
and exec_wsloop ctx env op =
  let lbs, ubs, steps = Fsc_dialects.Openmp.wsloop_bounds op in
  let lbs = List.map (fun v -> as_int (lookup env v)) lbs in
  let ubs = List.map (fun v -> as_int (lookup env v)) ubs in
  let steps = List.map (fun v -> as_int (lookup env v)) steps in
  let body =
    match (Op.region op).Op.g_blocks with
    | [ b ] -> b
    | _ -> err "wsloop body must be a single block"
  in
  let run_range env0 lo hi =
    (* serial over [lo,hi) of dim 0, full inner dims *)
    let rec loop d idxs =
      if d = List.length lbs then begin
        List.iteri
          (fun k v -> bind env0 (Op.block_arg ~index:k body) (R_int v))
          (List.rev idxs);
        match exec_block ctx env0 body with
        | Returned _ -> err "return from inside omp.wsloop"
        | _ -> ()
      end
      else begin
        let lb = if d = 0 then lo else List.nth lbs d in
        let ub = if d = 0 then hi else List.nth ubs d in
        let step = List.nth steps d in
        let i = ref lb in
        while !i < ub do
          loop (d + 1) (!i :: idxs);
          i := !i + step
        done
      end
    in
    loop 0 []
  in
  (match ctx.pool with
  | Some pool ->
    Domain_pool.parallel_for pool ~lo:(List.hd lbs) ~hi:(List.hd ubs)
      (fun lo hi ->
        let env' = Hashtbl.copy env in
        run_range env' lo hi)
  | None -> run_range env (List.hd lbs) (List.hd ubs));
  None

(* Execute a gpu.launch_func by interpreting the kernel body once per
   thread, charging the simulator. *)
and exec_launch_func ctx env op =
  let kernel_sym = Op.string_attr op "kernel" in
  let kernel =
    match Hashtbl.find_opt ctx.gpu_funcs kernel_sym with
    | Some k -> k
    | None -> err "unknown GPU kernel %s" kernel_sym
  in
  let dim i = as_int (lookup env (Op.operand ~index:i op)) in
  let grid = (dim 0, dim 1, dim 2) and block = (dim 3, dim 4, dim 5) in
  let gx, gy, gz = grid and bx, by, bz = block in
  let args =
    List.filteri (fun i _ -> i >= 6) (Op.operands op)
    |> List.map (lookup env)
  in
  (* device views: kernels operate on device twins of host buffers *)
  let host_buffers =
    List.filter_map (function R_buf b -> Some b | _ -> None) args
  in
  let args =
    match ctx.gpu with
    | Some g ->
      List.map
        (function R_buf b -> R_buf (Gpu_sim.kernel_view g b) | v -> v)
        args
    | None -> args
  in
  let body =
    match (Op.region kernel).Op.g_blocks with
    | [ b ] -> b
    | _ -> err "gpu.func body must be a single block"
  in
  let execute () =
    let saved = ctx.gpu_coords in
    for bz_i = 0 to gz - 1 do
      for by_i = 0 to gy - 1 do
        for bx_i = 0 to gx - 1 do
          for tz = 0 to bz - 1 do
            for ty = 0 to by - 1 do
              for tx = 0 to bx - 1 do
                ctx.gpu_coords <- [| bx_i; by_i; bz_i; tx; ty; tz |];
                let kenv : env = Hashtbl.create 64 in
                List.iteri
                  (fun i v -> bind kenv (Op.block_arg ~index:i body) v)
                  args;
                ignore (exec_block ctx kenv body)
              done
            done
          done
        done
      done
    done;
    ctx.gpu_coords <- saved
  in
  Obs.incr c_kernel_launches;
  Obs.with_span ~cat:"kernel"
    ~args:
      [ ("blocks", Obs.A_int (gx * gy * gz));
        ("threads_per_block", Obs.A_int (bx * by * bz)) ]
    ("gpu.launch " ^ kernel_sym)
    (fun () ->
      match ctx.gpu with
      | Some g ->
        let cells = float_of_int (gx * gy * gz * bx * by * bz) in
        Gpu_sim.launch g ~strategy:ctx.gpu_strategy
          ~block_threads:(bx * by * bz) ~flops:(cells *. 10.)
          ~bytes_accessed:(cells *. 16.) ~body:execute host_buffers
      | None -> execute ());
  None

and call ctx callee args =
  (* externals first: the driver registers compiled kernels under the
     same symbols as the (slower) interpretable definitions *)
  match Hashtbl.find_opt ctx.externals callee with
  | Some f -> f ctx args
  | None -> (
    match Hashtbl.find_opt ctx.funcs callee with
    | Some f -> call_func ctx f args
    | None -> err "call to unknown symbol %s" callee)

and call_func ctx f args =
  let entry = Fsc_dialects.Func.entry_block f in
  let env : env = Hashtbl.create 256 in
  List.iteri (fun i v -> bind env (Op.block_arg ~index:i entry) v) args;
  match exec_block ctx env entry with
  | Returned vs -> vs
  | Yielded vs -> vs
  | Fell_through -> []

(* Run the Fortran main program of a registered module. *)
let run_main ctx =
  let main = ref None in
  Hashtbl.iter
    (fun name f -> if name = "_QQmain" then main := Some f)
    ctx.funcs;
  match !main with
  | Some f ->
    Obs.with_span ~cat:"interp" "interp.run_main" (fun () ->
        ignore (call_func ctx f []))
  | None -> err "no main program (_QQmain) registered"
