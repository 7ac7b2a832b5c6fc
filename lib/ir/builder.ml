(* Insertion-point based IR builder, the work-horse of every lowering. *)

type insertion =
  | At_end of Op.block
  | At_start of Op.block
  | Before of Op.op
  | After of Op.op

type t = { mutable point : insertion; mutable loc : (int * int) option }

let create point = { point; loc = None }

let at_end block = create (At_end block)
let before op = create (Before op)
let after op = create (After op)

let set_loc b loc = b.loc <- loc
let loc b = b.loc

let insert b op =
  (match b.point with
  | At_end block -> Op.append_to block op
  | At_start block -> Op.prepend_to block op
  | Before anchor -> Op.insert_before ~anchor op
  | After anchor ->
    Op.insert_after ~anchor op;
    (* Keep appending after the op we just inserted so a sequence of
       [insert] calls stays in source order. *)
    b.point <- After op);
  op

(* Build an op and insert it at the current point. The builder's current
   source location (set by the frontend lowering) is attached as a "loc"
   attribute unless the caller supplied one explicitly. *)
let op b ?operands ?results ?(attrs = []) ?regions name =
  let attrs =
    match b.loc with
    | Some (line, col) when not (List.mem_assoc "loc" attrs) ->
      attrs @ [ ("loc", Attr.Loc_a (line, col)) ]
    | _ -> attrs
  in
  insert b (Op.create ?operands ?results ~attrs ?regions name)

(* Convenience for single-result ops: returns the result value. *)
let op1 b ?operands ?(results = []) ?attrs ?regions name =
  let o = op b ?operands ~results ?attrs ?regions name in
  Op.result o

let block b =
  match b.point with
  | At_end blk | At_start blk -> blk
  | Before anchor | After anchor -> (
    match Op.parent_block anchor with
    | Some blk -> blk
    | None -> invalid_arg "Builder.block: anchor not in a block")
