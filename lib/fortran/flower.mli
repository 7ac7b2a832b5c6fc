(** Lowering of the Fortran AST to the FIR dialect — the mini-Flang
    "fc1 -emit-mlir" stage of the paper's Figure 1 pipeline.

    Representation choices mirror Flang closely enough for the discovery
    pass to face the same obstacles the paper describes: scalars live in
    [fir.alloca] cells; explicit-shape arrays use the stack route
    ([fir.coordinate_of] directly on the alloca); allocatable arrays use
    the heap route (a pointer cell that must be [fir.load]ed first);
    index expressions are i32 arithmetic [fir.convert]ed to index with
    the declared lower bound subtracted; DO induction variables bind to
    the [fir.do_loop] block argument; parenthesised real subexpressions
    become [fir.no_reassoc]. Arrays are column-major, matching Fortran. *)

open Fast

(** Raised (with a location) on constructs outside the supported
    subset. *)
exception Unsupported of string * loc

(** One-stop front door: Fortran source text -> FIR module.
    @raise Fparser.Parse_error on syntax errors
    @raise Fsema.Sema_error on semantic errors
    @raise Unsupported on constructs outside the subset *)
val compile_source : string -> Fsc_ir.Op.op
