(** Textual IR output in MLIR's {e generic} operation syntax:

    {v
%0, %1 = "dialect.op"(%a, %b) ({ ...regions... })
         {"attr" = value} : (t_a, t_b) -> (t_0, t_1)
    v}

    The generic form is used exclusively so {!Parser} can read everything
    back without per-dialect grammar — exactly how the paper's pipeline
    passes modules between Flang, xDSL and mlir-opt as text. Output is
    deterministic (attributes sorted, values numbered in print order). *)

(** Append an op, normally a module, in the generic syntax above. Values
    and blocks are numbered from 0 on each call. *)
val to_buffer : Buffer.t -> Op.op -> unit

(** {!to_buffer} into a fresh string. *)
val module_to_string : Op.op -> string
