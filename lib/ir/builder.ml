(* Insertion-point based IR builder, the work-horse of every lowering. *)

type insertion =
  | At_end of Op.block
  | At_start of Op.block
  | Before of Op.op
  | After of Op.op

(* [loc_attrs] is the whole location state: [] before the first
   [set_loc], then the one "loc" attribute every op built under the
   current location shares. *)
type t = {
  mutable point : insertion;
  mutable loc_attrs : (string * Attr.t) list;
}

let create point = { point; loc_attrs = [] }

let at_end block = create (At_end block)
let before op = create (Before op)
let after op = create (After op)

let set_loc b ~line ~col =
  match b.loc_attrs with
  | [ (_, Attr.Loc_a (l, c)) ] when l = line && c = col -> ()
  | _ -> b.loc_attrs <- [ ("loc", Attr.Loc_a (line, col)) ]

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
    match (b.loc_attrs, attrs) with
    | [], _ -> attrs
    | loc, [] -> loc
    | loc, _ -> if List.mem_assoc "loc" attrs then attrs else attrs @ loc
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
