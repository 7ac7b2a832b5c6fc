(** Conversion of FIR value operations to standard-dialect counterparts.

    The extracted stencil module must contain no FIR (Section 3):
    Flang already uses arith/math for computation, but [fir.convert] and
    [fir.no_reassoc] must be rewritten into standard operations. *)

open Fsc_ir

(** Emit the standard-dialect equivalent of [fir.convert] from the type
    of the value to [to_]: [arith.index_cast] / [sitofp] / [fptosi] /
    [extf] / [truncf] as appropriate. Identity conversions return the
    value unchanged.

    @raise Invalid_argument on conversions with no standard equivalent. *)
val std_convert : Builder.t -> Op.value -> Types.t -> Op.value

