(* Conversion of FIR value operations to their standard-dialect
   counterparts, needed because the extracted stencil module must not
   contain any FIR (Section 3 of the paper): Flang already uses arith and
   math for computation, but fir.convert and fir.no_reassoc have to be
   rewritten into standard ops. *)

open Fsc_ir

(* Emit the standard-dialect equivalent of fir.convert from the type of
   [v] to [to_]. Returns [v] unchanged for identity conversions. *)
let std_convert b v (to_ : Types.t) =
  let from = Op.value_type v in
  if Types.equal from to_ then v
  else
    match (from, to_) with
    | (Types.I1 | Types.I8 | Types.I16 | Types.I32 | Types.I64), Types.Index
    | Types.Index, (Types.I1 | Types.I8 | Types.I16 | Types.I32 | Types.I64)
      ->
      Builder.op1 b "arith.index_cast" ~operands:[ v ] ~results:[ to_ ]
    | t, (Types.F32 | Types.F64) when Types.is_integer t ->
      if Types.equal t Types.Index then begin
        let as_i64 =
          Builder.op1 b "arith.index_cast" ~operands:[ v ]
            ~results:[ Types.I64 ]
        in
        Builder.op1 b "arith.sitofp" ~operands:[ as_i64 ] ~results:[ to_ ]
      end
      else Builder.op1 b "arith.sitofp" ~operands:[ v ] ~results:[ to_ ]
    | (Types.F32 | Types.F64), t when Types.is_integer t ->
      Builder.op1 b "arith.fptosi" ~operands:[ v ] ~results:[ to_ ]
    | Types.F32, Types.F64 ->
      Builder.op1 b "arith.extf" ~operands:[ v ] ~results:[ to_ ]
    | Types.F64, Types.F32 ->
      Builder.op1 b "arith.truncf" ~operands:[ v ] ~results:[ to_ ]
    | (Types.I1 | Types.I8 | Types.I16 | Types.I32 | Types.I64),
      (Types.I1 | Types.I8 | Types.I16 | Types.I32 | Types.I64) ->
      (* width changes collapse to index_cast-free bit ops; at our scale a
         single generic cast op keeps the interpreter honest *)
      Builder.op1 b "arith.index_cast" ~operands:[ v ] ~results:[ to_ ]
    | _ ->
      invalid_arg
        (Printf.sprintf "Fir_to_std.std_convert: %s -> %s"
           (Types.to_string from) (Types.to_string to_))
