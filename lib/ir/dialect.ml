(* Dialect registry.

   Real MLIR tools only accept operations whose dialect is registered with
   the tool: the paper's whole module-splitting dance (Section 3) exists
   because Flang does not register builtin/scf/memref, and mlir-opt does not
   register FIR. We reproduce that constraint: a [registry] is the set of
   dialects a "tool" (a driver context) knows about, and the verifier
   rejects modules containing operations from unregistered dialects.

   Each dialect may register per-op verifiers, traits and a canonical list
   of operation names (used for stricter checking in tests). *)

type op_verifier = Op.op -> (unit, string) result

type op_info = {
  oi_name : string;
  (* Structural expectations; -1 means variadic/unchecked. *)
  oi_num_operands : int;
  oi_num_results : int;
  oi_num_regions : int;
  oi_verify : op_verifier option;
  (* Pure ops can be CSE'd/DCE'd freely. *)
  oi_pure : bool;
  (* Terminators must be the last op of their block. *)
  oi_terminator : bool;
}

type dialect = {
  d_name : string;
  mutable d_ops : (string, op_info) Hashtbl.t;
}

(* Global table of all dialects ever defined (definition is separate from
   registration-with-a-context). *)
let all_dialects : (string, dialect) Hashtbl.t = Hashtbl.create 16

let define_dialect name =
  match Hashtbl.find_opt all_dialects name with
  | Some d -> d
  | None ->
    let d = { d_name = name; d_ops = Hashtbl.create 32 } in
    Hashtbl.replace all_dialects name d;
    d

(* Every defined op by full name, so [lookup_op] — run on every op by
   the verifier and by every dead-code sweep — needs no substring of
   the name to find its dialect first. No dialect name contains a
   '.', so the full name determines the dialect. *)
let all_ops : (string, op_info) Hashtbl.t = Hashtbl.create 256

let define_op ?(num_operands = -1) ?(num_results = -1) ?(num_regions = 0)
    ?verify ?(pure = false) ?(terminator = false) dialect name =
  let full = dialect.d_name ^ "." ^ name in
  let info =
    { oi_name = full; oi_num_operands = num_operands;
      oi_num_results = num_results; oi_num_regions = num_regions;
      oi_verify = verify; oi_pure = pure; oi_terminator = terminator }
  in
  Hashtbl.replace dialect.d_ops full info;
  Hashtbl.replace all_ops full info

let dialect_of_op_name name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let lookup_op name = Hashtbl.find_opt all_ops name

let op_is_pure op =
  match lookup_op op.Op.o_name with Some i -> i.oi_pure | None -> false

(* A context = the set of dialects one "tool" registers. *)
type context = { ctx_name : string; mutable ctx_dialects : string list }

let create_context ~name dialects =
  { ctx_name = name; ctx_dialects = dialects }

let dialect_registered ctx name = List.mem name ctx.ctx_dialects

let op_registered ctx op =
  dialect_registered ctx (dialect_of_op_name op.Op.o_name)

(* The two tool contexts of the paper's pipeline. Flang registers FIR plus
   the arith/math/func/cf/openmp/llvm dialects it uses, but crucially not
   builtin's unrealized_conversion_cast, scf, memref, gpu or stencil.
   mlir-opt registers everything standard but not FIR. xDSL registers
   everything including the experimental dialects. *)
let flang_context () =
  create_context ~name:"flang"
    [ "fir"; "arith"; "math"; "func"; "cf"; "omp"; "llvm" ]

let mlir_opt_context () =
  create_context ~name:"mlir-opt"
    [ "builtin"; "arith"; "math"; "func"; "cf"; "scf"; "memref"; "omp";
      "gpu"; "llvm"; "vector" ]

(* builtin.module is accepted by every tool; model that with a pseudo
   dialect name checked specially. *)
let op_accepted ctx op =
  Op.is_module op || op_registered ctx op
