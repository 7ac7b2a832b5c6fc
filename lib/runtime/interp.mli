(** Tree-walking IR interpreter.

    The execution substrate for the "Flang only" path (direct FIR
    execution, deliberately naive) and the functional reference for every
    lowered form (scf, omp, gpu). Cross-module linking resolves fir.call
    from the host module into the stencil module's functions even though
    the pointer types differ nominally ([!fir.llvm_ptr] vs [!llvm.ptr]) —
    the paper's link-time reconciliation. *)

open Fsc_ir

exception Interp_error of string

(** Runtime values. *)
type rvalue =
  | R_unit
  | R_int of int  (** all integer/index/i1 values *)
  | R_float of float
  | R_buf of Memref_rt.t  (** array object / memref / data pointer *)
  | R_cell of cell  (** mutable scalar memory cell *)
  | R_elem of Memref_rt.t * int  (** element reference: buffer + offset *)

and cell = { mutable contents : rvalue }

(** Converters; raise {!Interp_error} on kind mismatch. *)

val as_int : rvalue -> int

val as_float : rvalue -> float

(** A linked execution context: registered functions, external (native)
    implementations, the OpenMP pool, the GPU simulator and its active
    data strategy, captured output, and the registry of named array
    allocations drivers and tests inspect. *)
type context = {
  funcs : (string, Op.op) Hashtbl.t;
  gpu_funcs : (string, Op.op) Hashtbl.t;  (** ["module::kernel"] *)
  externals : (string, context -> rvalue list -> rvalue list) Hashtbl.t;
  mutable pool : Domain_pool.t option;
  mutable gpu : Gpu_sim.t option;
  mutable gpu_strategy : Gpu_sim.data_strategy;
  mutable gpu_coords : int array;  (** bid x,y,z then tid x,y,z *)
  mutable output : Buffer.t option;  (** capture fir.print *)
  mutable op_count : int;  (** interpreted ops, for inspection *)
  mutable named_buffers : (string * Memref_rt.t) list;
  unzeroed : (int, unit) Hashtbl.t;
      (** result value ids of array [fir.alloca]s to allocate with
          {!Memref_rt.create_uninit}: [Pipeline.link] fills it
          with the grids whose first use is a kernel that overwrites
          every cell. Empty by default (every grid zero-filled). *)
}

val create_context : unit -> context

(** Extents of a [fir.alloca] of a statically shaped array; [None] for
    any other op. *)
val alloca_dims : Op.op -> int list option

(** Register every [func.func] (and gpu.module kernel) of a module. *)
val add_module : context -> Op.op -> unit

(** Externals take precedence over registered functions with the same
    symbol — the driver shadows interpretable kernel definitions with
    compiled ones. *)
val register_external :
  context -> string -> (context -> rvalue list -> rvalue list) -> unit

(** Call a symbol (function or external) with arguments.
    @raise Interp_error on unknown symbols or runtime errors. *)
val call : context -> string -> rvalue list -> rvalue list

(** Call a specific function op directly. *)
val call_func : context -> Op.op -> rvalue list -> rvalue list

(** Run the registered Fortran main program ([_QQmain]). *)
val run_main : context -> unit
