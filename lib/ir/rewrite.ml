(* Greedy pattern-rewrite driver, the engine behind canonicalisation and
   the dialect-conversion style lowerings. *)

module Obs = Fsc_obs.Obs

(* worklist iterations / successful pattern applications across all
   [apply_greedily] invocations; per-pattern application counts are
   recorded under "rewrite.pattern.<name>" when tracing is on *)
let c_steps = Obs.counter "rewrite.steps"
let c_applied = Obs.counter "rewrite.applied"
let c_invocations = Obs.counter "rewrite.invocations"

type rewriter = {
  mutable changed : bool;
  mutable worklist : Op.op list;
}

(* A pattern looks at a single op and either rewrites (returns true) or
   declines (returns false). Patterns must use the [rw_*] helpers below so
   newly created / affected ops are revisited. *)
type pattern = {
  p_name : string;
  p_benefit : int;
  p_match_name : string option; (* fast filter: only try on this op name *)
  p_rewrite : rewriter -> Op.op -> bool;
}

let pattern ?(benefit = 1) ?match_name name rewrite =
  { p_name = name; p_benefit = benefit; p_match_name = match_name;
    p_rewrite = rewrite }

let enqueue rw op = rw.worklist <- op :: rw.worklist

(* Replace all results of [op] with [values] and erase it. *)
let replace_op rw op values =
  let results = Op.results op in
  if List.length results <> List.length values then
    invalid_arg "Rewrite.replace_op: result count mismatch";
  List.iter2
    (fun r v ->
      (* Re-visit users: they may now fold further. *)
      List.iter (fun (u : Op.use) -> enqueue rw u.Op.u_op) r.Op.v_uses;
      Op.replace_all_uses_with r v)
    results values;
  Op.erase op;
  rw.changed <- true

(* Create an op before [anchor], enqueue it for pattern processing. *)
let create_before rw ~anchor ?operands ?results ?attrs ?regions name =
  let op = Op.create ?operands ?results ?attrs ?regions name in
  Op.insert_before ~anchor op;
  enqueue rw op;
  op

let notify_changed rw op =
  enqueue rw op;
  rw.changed <- true

(* Apply [patterns] to all ops nested in [top] until fixpoint. Returns
   whether anything changed. A safety cap bounds pathological pattern sets;
   hitting it is a bug in the patterns, so we fail loudly. *)
exception Nontermination

let apply_greedily ?(max_iterations = 2_000_000) patterns top =
  let patterns =
    List.sort (fun a b -> compare b.p_benefit a.p_benefit) patterns
  in
  let by_name : (string, pattern list) Hashtbl.t = Hashtbl.create 16 in
  let generic = ref [] in
  List.iter
    (fun p ->
      match p.p_match_name with
      | Some n ->
        Hashtbl.replace by_name n (Hashtbl.find_opt by_name n
                                   |> Option.value ~default:[] |> fun l ->
                                   l @ [ p ])
      | None -> generic := !generic @ [ p ])
    patterns;
  let rw = { changed = false; worklist = [] } in
  Op.walk_inner (fun op -> enqueue rw op) top;
  (* The worklist was built front-to-back reversed; fine for fixpoints. *)
  let is_live op =
    (* An op removed from its block must not be rewritten again. *)
    Op.parent_block op <> None
  in
  Obs.incr c_invocations;
  let steps = ref 0 in
  let rec drain () =
    match rw.worklist with
    | [] -> ()
    | op :: rest ->
      rw.worklist <- rest;
      incr steps;
      Obs.incr c_steps;
      if !steps > max_iterations then raise Nontermination;
      if is_live op then begin
        let candidates =
          (Hashtbl.find_opt by_name op.Op.o_name
          |> Option.value ~default:[])
          @ !generic
        in
        let rec try_patterns = function
          | [] -> ()
          | p :: ps ->
            if is_live op then
              if p.p_rewrite rw op then begin
                Obs.incr c_applied;
                if Obs.enabled () then
                  Obs.incr (Obs.counter ("rewrite.pattern." ^ p.p_name))
              end
              else try_patterns ps
        in
        try_patterns candidates
      end;
      drain ()
  in
  drain ();
  rw.changed
