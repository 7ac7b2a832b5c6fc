(* Kernel spec -> scheduled OCaml source.

   The native emitter: not just a pretty-printer of the closure
   JIT's naive loops but a scheduling codegen. Two transform
   families are applied at emit time, every one of them value-preserving
   down to the bit pattern:

   Intra-nest scheduling:
   - rolling load windows: when an innermost loop reads a buffer at
     three or more constant offsets along the innermost dimension (and
     never writes that buffer in the same loop), the values roll
     through local registers — one fresh load per iteration where the
     naive body issued one per offset. Loads are pure, so
     re-scheduling them never changes a value. Two-offset windows are
     deliberately not rolled: the carried shuffle is a serial
     dependence chain that costs more than the L1 hits it saves.
   - row blits: an innermost loop that is exactly a unit-stride copy
     between two distinct buffers becomes one bulk row move — a
     4-wide unrolled copy loop with no per-cell index arithmetic and
     no allocation (an [Array1.sub] view per row would churn custom
     blocks), moving the identical bit patterns.
   - innermost unrolling: a literal-bound innermost loop with no
     rolling window is emitted 4 cells per trip plus a remainder
     loop. Unrolling replicates the body in iteration order, so it is
     valid for any dependence pattern and cannot reorder a float op.

   Inter-nest fusion, over consecutive nests with identical
   loop structures:
   - aligned fusion: nests whose only shared written buffers are
     accessed through one single per-cell bijective index (each loop
     level exactly once, no constant planes) fuse cell-wise into one
     loop body. Bijectivity guarantees the producer statement at cell p
     is the one and only write the consumer at cell p observes — the
     same value the unfused schedule read back from memory.
   - shifted fusion: a pair like the Gauss-Seidel sweep + copy-back,
     where aligned fusion is illegal (the copy writes cells the sweep
     still reads at +/-1 offsets), fuses with an outer-level shift d:
     consumer plane k - d runs right after producer plane k, with a
     d-plane prologue/epilogue. d is the smallest shift for which no
     dependence crosses the interleave (max over conflicting access
     pairs of delta_B - delta_A along the outer dimension — the affine
     footprint argument at flat-offset precision). The fused pass
     touches each plane while it is still cache-hot instead of
     streaming the whole grid twice. A shift-fused body is not
     chunk-safe, so its entry ignores [pfor] and runs serially; the
     host falls back to the members' individual entries when it has a
     real pool to feed.

   Underneath the transforms sits the plain schedule — the one a nest
   gets when no transform applies: flat loops over the float64
   Bigarrays, read and written through two monomorphic unsafe
   externals ([get]/[set], declared at the top of every module), with
   bounds, strides and stencil deltas baked in as constants, an
   exact transliteration of the closure JIT's per-cell evaluation
   (same statement order, same float ops, hex-literal constants), the
   unsafe access path guarded by bind-time whole-space bounds
   validation in [Native], and per-nest best-effort emission — a nest
   using an op outside the whitelist (["math.erf"] stays deliberately
   excluded so the fallback chain remains exercisable) is skipped with
   a reason and runs on the vector engine.

   Scheduling relies on one standing invariant of the frontend: two
   distinct buffer slots never alias (every Fortran array is its own
   allocation) — the same assumption the vector engine's row caching
   already makes. *)

module Kc = Fsc_rt.Kernel_compile

type group_kind =
  | G_single
  | G_aligned
  | G_shifted of int  (* outer-level shift d *)

type group = {
  g_nests : int list;  (* member nest indices, ascending, consecutive *)
  g_fname : string;  (* emitted entry *)
  g_kind : group_kind;
  g_par : bool;  (* entry shares its outer level through pfor *)
  g_alts : (int * string) list;
      (* shift-fused groups also emit each member as a standalone
         entry: the host prefers those when it has a real pool, since
         the fused schedule is serial by construction *)
}

type t = {
  e_body : string;
  e_groups : group list;
  e_skipped : (int * string) list;
  e_refused : (int * string) list;
      (* nest index -> why fusion with its predecessor was refused *)
  e_reused : int;  (* rolling load windows emitted *)
  e_blits : int;  (* innermost copy loops emitted as row blits *)
  e_unrolled : int;  (* innermost loops emitted 4-wide *)
}

let groups t = t.e_groups
let skipped t = t.e_skipped
let refused t = t.e_refused
let reused t = t.e_reused
let blits t = t.e_blits
let unrolled t = t.e_unrolled

let emitted t =
  List.concat_map
    (fun g -> List.map (fun i -> (i, g.g_fname)) g.g_nests)
    t.e_groups

let body t = t.e_body

(* Hex literals round-trip doubles exactly; negative and non-finite
   values are spelled as expressions because the lexer only accepts
   unsigned literals. *)
let float_lit f =
  if Float.is_nan f then "Stdlib.nan"
  else if f = Float.infinity then "Stdlib.infinity"
  else if f = Float.neg_infinity then "Stdlib.neg_infinity"
  else if Float.sign_bit f then
    Printf.sprintf "(-. %h)" (Float.abs f) (* negation of a finite
                                              float is exact *)
  else Printf.sprintf "%h" f

exception Skip of string

let skip fmt = Printf.ksprintf (fun m -> raise (Skip m)) fmt

(* Unary whitelist: exactly the functions the closure JIT reaches
   (directly or through Math.eval_unary), minus math.erf — see above. *)
let unary_fn = function
  | "math.sqrt" -> "Stdlib.Float.sqrt"
  | "math.absf" -> "Stdlib.Float.abs"
  | "math.exp" -> "Stdlib.Float.exp"
  | "math.sin" -> "Stdlib.Float.sin"
  | "math.cos" -> "Stdlib.Float.cos"
  | "math.tan" -> "Stdlib.Float.tan"
  | "math.log" -> "Stdlib.Float.log"
  | "math.tanh" -> "Stdlib.Float.tanh"
  | "math.atan" -> "Stdlib.Float.atan"
  | "math.ceil" -> "Stdlib.Float.ceil"
  | "math.floor" -> "Stdlib.Float.floor"
  | name -> skip "unary op %s not on the native emit whitelist" name

let binary_fmt name ea eb =
  match name with
  | "arith.addf" -> Printf.sprintf "(%s +. %s)" ea eb
  | "arith.subf" -> Printf.sprintf "(%s -. %s)" ea eb
  | "arith.mulf" -> Printf.sprintf "(%s *. %s)" ea eb
  | "arith.divf" -> Printf.sprintf "(%s /. %s)" ea eb
  | "arith.maximumf" -> Printf.sprintf "(Stdlib.Float.max %s %s)" ea eb
  | "arith.minimumf" -> Printf.sprintf "(Stdlib.Float.min %s %s)" ea eb
  | "math.powf" -> Printf.sprintf "(Stdlib.Float.pow %s %s)" ea eb
  | "math.atan2" -> Printf.sprintf "(Stdlib.Float.atan2 %s %s)" ea eb
  | name -> skip "binary op %s not on the native emit whitelist" name

(* [ivn] names induction variables per level (shift-fused consumer
   phases rebind level 0); [subst] redirects rolled loads — keyed by
   (buffer, flat delta), which identifies the cell and therefore the
   value regardless of which index form produced it. *)
let rec expr ~strides ~ivn ~subst (e : Kc.fexpr) =
  match e with
  | Kc.F_const c -> float_lit c
  | Kc.F_scalar i -> Printf.sprintf "s%d" i
  | Kc.F_ivf (l, c) ->
    Printf.sprintf "(Stdlib.float_of_int (%s + (%d)))" (ivn l) c
  | Kc.F_load (bi, idxs) -> (
    let d = Kc.delta_of strides idxs in
    match subst (bi, d) with
    | Some v -> v
    | None ->
      Printf.sprintf "(get d%d (base + (%d)))" bi d)
  | Kc.F_unary ("arith.negf", a) ->
    Printf.sprintf "(-. %s)" (expr ~strides ~ivn ~subst a)
  | Kc.F_unary ("math.log2", a) ->
    (* closure JIT: Float.log x /. Float.log 2. — the divisor folds
       to a constant, reproduced exactly as a literal *)
    Printf.sprintf "((Stdlib.Float.log %s) /. %s)"
      (expr ~strides ~ivn ~subst a)
      (float_lit (Float.log 2.))
  | Kc.F_unary (name, a) ->
    Printf.sprintf "(%s %s)" (unary_fn name) (expr ~strides ~ivn ~subst a)
  | Kc.F_binary (name, a, b) ->
    binary_fmt name
      (expr ~strides ~ivn ~subst a)
      (expr ~strides ~ivn ~subst b)

(* ---------------- emittability ---------------- *)

let rec check_expr (e : Kc.fexpr) =
  match e with
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ | Kc.F_load _ -> ()
  | Kc.F_unary (("arith.negf" | "math.log2"), a) -> check_expr a
  | Kc.F_unary (name, a) ->
    ignore (unary_fn name);
    check_expr a
  | Kc.F_binary (name, a, b) ->
    ignore (binary_fmt name "x" "x");
    check_expr a;
    check_expr b

let check_nest (nest : Kc.nest) =
  if nest.Kc.n_loops = [] then skip "nest has no loops";
  List.iter (fun (st : Kc.store_stmt) -> check_expr st.Kc.st_expr)
    nest.Kc.n_stores

(* ---------------- fusion legality ---------------- *)

type access = {
  a_buf : int;
  a_idx : Kc.index_form list;
  a_write : bool;
}

let rec scan_loads acc (e : Kc.fexpr) =
  match e with
  | Kc.F_load (bi, idxs) -> { a_buf = bi; a_idx = idxs; a_write = false } :: acc
  | Kc.F_unary (_, a) -> scan_loads acc a
  | Kc.F_binary (_, a, b) -> scan_loads (scan_loads acc a) b
  | Kc.F_const _ | Kc.F_scalar _ | Kc.F_ivf _ -> acc

let nest_accesses (nest : Kc.nest) =
  List.concat_map
    (fun (st : Kc.store_stmt) ->
      { a_buf = st.Kc.st_buf; a_idx = st.Kc.st_index; a_write = true }
      :: scan_loads [] st.Kc.st_expr)
    nest.Kc.n_stores

(* Fusable nests must share the loop structure exactly (levels, dims,
   bounds); parallelism of the fused outer level is the conjunction. *)
let loops_compatible la lb =
  List.length la = List.length lb
  && List.for_all2
       (fun (a : Kc.loop_spec) (b : Kc.loop_spec) ->
         a.Kc.l_level = b.Kc.l_level
         && a.Kc.l_dim = b.Kc.l_dim
         && a.Kc.l_lb = b.Kc.l_lb
         && a.Kc.l_ub = b.Kc.l_ub)
       la lb

(* A per-cell bijection: every component an Iv, every loop level used
   exactly once. Injectivity is what makes cell-wise interleaving
   observe exactly the writes the unfused schedule observed. *)
let is_bijection (loops : Kc.loop_spec list) idxs =
  let levels = List.map (fun (l : Kc.loop_spec) -> l.Kc.l_level) loops in
  let comps =
    List.filter_map
      (function Kc.Iv (lv, _) -> Some lv | Kc.Cst _ -> None)
      idxs
  in
  List.length comps = List.length idxs
  && List.sort compare comps = List.sort compare levels

(* Aligned legality: for every buffer written on one side and touched
   on the other, ALL accesses across both sides use one identical,
   bijective index form. [Error reason] names the first violation. *)
let aligned_check loops group_acc cand_acc =
  let bufs_of p acc =
    List.filter_map (fun a -> if p a then Some a.a_buf else None) acc
  in
  let writes acc = bufs_of (fun a -> a.a_write) acc in
  let touches acc = bufs_of (fun _ -> true) acc in
  let conflict_bufs =
    List.sort_uniq compare
      (List.filter (fun b -> List.mem b (touches cand_acc)) (writes group_acc)
      @ List.filter (fun b -> List.mem b (touches group_acc)) (writes cand_acc))
  in
  List.fold_left
    (fun acc b ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        let forms =
          List.filter_map
            (fun a -> if a.a_buf = b then Some a.a_idx else None)
            (group_acc @ cand_acc)
        in
        match forms with
        | [] -> Ok ()
        | f :: rest ->
          if not (List.for_all (fun g -> g = f) rest) then
            Error
              (Printf.sprintf
                 "buffer %d read and written at different offsets across \
                  the nests"
                 b)
          else if not (is_bijection loops f) then
            Error
              (Printf.sprintf
                 "buffer %d index is not a per-cell bijection" b)
          else Ok ()))
    (Ok ()) conflict_bufs

(* Shifted legality over the outer level: fusing B at plane k - d after
   A at plane k reverses the order of (A at i, B at j) pairs with
   i > j + d, so no such pair may conflict. Along the outer dimension a
   conflict between affine accesses means i + dA = j + dB, i.e.
   i - j = dB - dA: the minimal legal shift is the max of dB - dA over
   all conflicting access pairs. Constant outer coordinates on both
   sides conflict at every (i, j) and refuse fusion; anything not
   affine in the outer loop is refused conservatively. *)
let shifted_check (loops : Kc.loop_spec list) a_acc b_acc =
  if List.length loops < 2 then Error "outer level is also the innermost"
  else begin
    let outer = List.hd loops in
    let comp idxs =
      if outer.Kc.l_dim < List.length idxs then
        Some (List.nth idxs outer.Kc.l_dim)
      else None
    in
    let d = ref 0 and err = ref None in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if
              !err = None && a.a_buf = b.a_buf && (a.a_write || b.a_write)
            then
              match (comp a.a_idx, comp b.a_idx) with
              | Some (Kc.Cst ca), Some (Kc.Cst cb) ->
                if ca = cb then
                  err :=
                    Some
                      (Printf.sprintf
                         "buffer %d pinned to outer plane %d in both nests"
                         a.a_buf ca)
              | Some (Kc.Iv (la, da)), Some (Kc.Iv (lb, db))
                when la = outer.Kc.l_level && lb = outer.Kc.l_level ->
                if db - da > !d then d := db - da
              | _ ->
                err :=
                  Some
                    (Printf.sprintf
                       "buffer %d outer coordinate is not affine in the \
                        outer loop"
                       a.a_buf))
          b_acc)
      a_acc;
    match !err with
    | Some e -> Error e
    | None ->
      if !d > 4 then
        Error
          (Printf.sprintf "required shift %d exceeds the fusion window" !d)
      else Ok !d
  end

(* ---------------- grouping ---------------- *)

type plan_group = {
  p_nests : (int * Kc.nest) list;  (* ascending *)
  p_kind : group_kind;
  p_acc : access list;  (* union of member accesses (aligned growth) *)
}

(* Greedy left-to-right over consecutive emittable nests: grow an
   aligned group while legal; when an aligned extension of a single
   nest fails, try a shifted pair; otherwise start a new group.
   Shift-fused groups are closed immediately (pairs only). *)
let plan_groups statuses =
  let groups = ref [] and refused = ref [] and current = ref None in
  let flush () =
    match !current with
    | Some pg ->
      groups := { pg with p_nests = List.rev pg.p_nests } :: !groups;
      current := None
    | None -> ()
  in
  List.iteri
    (fun i status ->
      match status with
      | Error _ -> flush ()
      | Ok (nest : Kc.nest) -> (
        match !current with
        | None ->
          current :=
            Some
              { p_nests = [ (i, nest) ]; p_kind = G_single;
                p_acc = nest_accesses nest }
        | Some pg -> (
          let loops = (snd (List.hd pg.p_nests)).Kc.n_loops in
          let acc = nest_accesses nest in
          let aligned_ok =
            match pg.p_kind with
            | G_shifted _ -> Error "predecessor is shift-fused"
            | G_single | G_aligned ->
              if not (loops_compatible loops nest.Kc.n_loops) then
                Error "loop structures differ"
              else aligned_check loops pg.p_acc acc
          in
          match aligned_ok with
          | Ok () ->
            current :=
              Some
                { p_nests = (i, nest) :: pg.p_nests; p_kind = G_aligned;
                  p_acc = pg.p_acc @ acc }
          | Error why_aligned -> (
            let shifted_ok =
              match pg.p_kind with
              | G_single when loops_compatible loops nest.Kc.n_loops ->
                shifted_check loops pg.p_acc acc
              | G_single -> Error "loop structures differ"
              | _ -> Error "predecessor already fused"
            in
            match shifted_ok with
            | Ok d ->
              current :=
                Some
                  { p_nests = (i, nest) :: pg.p_nests; p_kind = G_shifted d;
                    p_acc = pg.p_acc @ acc };
              flush () (* shifted groups are pairs: close immediately *)
            | Error why_shifted ->
              refused :=
                (i,
                 Printf.sprintf "aligned: %s; shifted: %s" why_aligned
                   why_shifted)
                :: !refused;
              flush ();
              current :=
                Some
                  { p_nests = [ (i, nest) ]; p_kind = G_single; p_acc = acc }))))
    statuses;
  flush ();
  (List.rev !groups, List.rev !refused)

(* ---------------- emission ---------------- *)

type est = {
  eb : Buffer.t;
  strides : int array;
  mutable n_reused : int;
  mutable n_blits : int;
  mutable n_unrolled : int;
  mutable wid : int;  (* rolling-window name counter, per module *)
}

let add st fmt = Printf.ksprintf (Buffer.add_string st.eb) fmt
let default_ivn l = Printf.sprintf "i%d" l

(* The row-blit fast path: the innermost loop is exactly one
   unit-stride copy between distinct buffers. Returns the (src, dst,
   flat delta) triple when it applies. *)
let blit_candidate st ~(inner : Kc.loop_spec) (stmts : Kc.store_stmt list) =
  match stmts with
  | [ { Kc.st_buf = dst; st_index = di; st_expr = Kc.F_load (src, si) } ]
    when src <> dst && di = si && st.strides.(inner.Kc.l_dim) = 1 ->
    let ok_components =
      List.mapi
        (fun pos c ->
          if pos = inner.Kc.l_dim then
            match c with
            | Kc.Iv (lv, _) -> lv = inner.Kc.l_level
            | Kc.Cst _ -> false
          else
            match c with
            | Kc.Iv (lv, _) -> lv <> inner.Kc.l_level
            | Kc.Cst _ -> true)
        di
    in
    if List.for_all Fun.id ok_components then
      Some (src, dst, Kc.delta_of st.strides di)
    else None
  | _ -> None

(* Rolling windows: group the innermost loop's loads by (buffer, index
   form with the innermost component zeroed); a group whose buffer is
   never stored in this loop and whose innermost offsets span a small
   window keeps all but the leading offset in registers. *)
type roll = {
  r_buf : int;
  r_d0 : int;  (* flat delta of the window's lowest offset *)
  r_span : int;  (* registers carried; fresh load at r_d0 + r_span * si *)
  r_deltas : int list;  (* flat deltas actually read by the body *)
  r_id : int;
}

let roll_groups st ~(inner : Kc.loop_spec) (stmts : Kc.store_stmt list) =
  let stored =
    List.sort_uniq compare
      (List.map (fun (s : Kc.store_stmt) -> s.Kc.st_buf) stmts)
  in
  let loads =
    List.concat_map
      (fun (s : Kc.store_stmt) -> scan_loads [] s.Kc.st_expr)
      stmts
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if not (List.mem a.a_buf stored) then begin
        let ok = ref true and off = ref 0 in
        List.iteri
          (fun pos c ->
            if pos = inner.Kc.l_dim then
              match c with
              | Kc.Iv (lv, o) when lv = inner.Kc.l_level -> off := o
              | _ -> ok := false
            else
              match c with
              | Kc.Iv (lv, _) when lv = inner.Kc.l_level -> ok := false
              | _ -> ())
          a.a_idx;
        if !ok then begin
          let zeroed =
            List.mapi
              (fun pos c -> if pos = inner.Kc.l_dim then Kc.Cst 0 else c)
              a.a_idx
          in
          let key = (a.a_buf, zeroed) in
          let offs =
            match Hashtbl.find_opt tbl key with Some l -> l | None -> []
          in
          Hashtbl.replace tbl key ((!off, Kc.delta_of st.strides a.a_idx) :: offs)
        end
      end)
    loads;
  Hashtbl.fold
    (fun (buf, _) offs acc ->
      let offs = List.sort_uniq compare offs in
      (* three offsets minimum: rolling a two-load window trades two
         L1 hits for a serial register shuffle and loses *)
      match (offs, List.rev offs) with
      | (omin, dmin) :: _ :: _ :: _, (omax, _) :: _ when omax - omin <= 4 ->
        st.wid <- st.wid + 1;
        { r_buf = buf; r_d0 = dmin; r_span = omax - omin;
          r_deltas = List.map snd offs; r_id = st.wid }
        :: acc
      | _ -> acc)
    tbl []

(* Emit the innermost loop over [lo_e, hi_e) (exclusive upper bound,
   both strings; [literal] when the bounds are compile-time ints so
   prologue-dependent schedules are safe). [basep] is the accumulated
   base of the enclosing levels, "" for a top-level 1-D loop. *)
let emit_inner st ~ind ~ivn ~basep ~(inner : Kc.loop_spec) ~lo_e ~hi_e
    ~literal (stmts : Kc.store_stmt list) =
  let si = st.strides.(inner.Kc.l_dim) in
  let iv = ivn inner.Kc.l_level in
  let base_of e =
    if basep = "" then Printf.sprintf "%s * %d" e si
    else Printf.sprintf "%s + %s * %d" basep e si
  in
  match blit_candidate st ~inner stmts with
  | Some (src, dst, delta) when si = 1 ->
    st.n_blits <- st.n_blits + 1;
    (* one bulk row move: same bits, none of the per-cell index
       arithmetic. Emitted as a 4-wide copy loop rather than
       [Array1.blit] over [Array1.sub] views — each sub allocates a
       fresh bigarray descriptor (a custom block), and thousands of
       rows per sweep turn that into real allocation and GC traffic. *)
    let off =
      if basep = "" then Printf.sprintf "%s + (%d)" lo_e delta
      else Printf.sprintf "%s + (%s + (%d))" basep lo_e delta
    in
    add st "%slet rb = %s in\n" ind off;
    add st "%slet rn = %s - %s in\n" ind hi_e lo_e;
    add st "%sfor q = 0 to (rn / 4) - 1 do\n" ind;
    add st "%s  let o = rb + (q * 4) in\n" ind;
    for k = 0 to 3 do
      add st "%s  set d%d (o + %d) (get d%d (o + %d));\n" ind dst k src k
    done;
    add st "%sdone;\n" ind;
    add st "%sfor o = rb + ((rn / 4) * 4) to rb + rn - 1 do\n" ind;
    add st "%s  set d%d o (get d%d o);\n" ind dst src;
    add st "%sdone;\n" ind
  | _ ->
    let rolls = if literal then roll_groups st ~inner stmts else [] in
    st.n_reused <- st.n_reused + List.length rolls;
    let no_subst (_ : int * int) = None in
    let emit_stores ind subst =
      List.iter
        (fun (s : Kc.store_stmt) ->
          add st "%sset d%d (base + (%d)) %s;\n" ind s.Kc.st_buf
            (Kc.delta_of st.strides s.Kc.st_index)
            (expr ~strides:st.strides ~ivn ~subst s.Kc.st_expr))
        stmts
    in
    let unroll_bounds =
      (* 4-wide unrolling: pure loop-control reduction, iteration order
         and per-cell float ops untouched. Only with literal bounds (a
         static remainder split) and no rolling window (the carried
         registers assume single-step trips). *)
      if rolls = [] then
        match (int_of_string_opt lo_e, int_of_string_opt hi_e) with
        | Some lo, Some hi when hi - lo >= 8 -> Some (lo, hi)
        | _ -> None
      else None
    in
    match unroll_bounds with
    | Some (lo, hi) ->
      st.n_unrolled <- st.n_unrolled + 1;
      let nfull = (hi - lo) / 4 in
      add st "%s(* innermost level, 4 cells per trip *)\n" ind;
      add st "%sfor %sq = 0 to %d do\n" ind iv (nfull - 1);
      add st "%s  let %s = %d + (%sq * 4) in\n" ind iv lo iv;
      add st "%s  let base = %s in\n" ind (base_of iv);
      emit_stores (ind ^ "  ") no_subst;
      for k = 1 to 3 do
        add st "%s  begin let %s = %s + %d in let base = base + %d in\n" ind
          iv iv k (k * si);
        emit_stores (ind ^ "    ") no_subst;
        add st "%s  end;\n" ind
      done;
      add st "%sdone;\n" ind;
      if lo + (nfull * 4) < hi then begin
        add st "%sfor %s = %d to %d do\n" ind iv (lo + (nfull * 4)) (hi - 1);
        add st "%s  let base = %s in\n" ind (base_of iv);
        emit_stores (ind ^ "  ") no_subst;
        add st "%sdone;\n" ind
      end
    | None ->
      (* prologue: preload the window registers with the cells the
         first iteration would read (in bounds whenever the loop is
         non-empty, which the literal bounds guarantee) *)
      List.iter
        (fun r ->
          for k = 0 to r.r_span - 1 do
            add st "%slet w%d_%d = ref (get d%d (%s + (%d))) in\n" ind
              r.r_id k r.r_buf (base_of lo_e)
              (r.r_d0 + (k * si))
          done)
        rolls;
      let subst (bi, d) =
        let rec find = function
          | [] -> None
          | r :: rest ->
            if r.r_buf = bi && List.mem d r.r_deltas then
              let k = (d - r.r_d0) / si in
              if k < r.r_span then Some (Printf.sprintf "!w%d_%d" r.r_id k)
              else Some (Printf.sprintf "w%d_n" r.r_id)
            else find rest
        in
        find rolls
      in
      add st "%sfor %s = %s to (%s) - 1 do\n" ind iv lo_e hi_e;
      add st "%s  let base = %s in\n" ind (base_of iv);
      List.iter
        (fun r ->
          add st "%s  let w%d_n = get d%d (base + (%d)) in\n" ind r.r_id
            r.r_buf
            (r.r_d0 + (r.r_span * si)))
        rolls;
      emit_stores (ind ^ "  ") subst;
      List.iter
        (fun r ->
          for k = 0 to r.r_span - 2 do
            add st "%s  w%d_%d := !w%d_%d;\n" ind r.r_id k r.r_id (k + 1)
          done;
          add st "%s  w%d_%d := w%d_n;\n" ind r.r_id (r.r_span - 1) r.r_id)
        rolls;
      add st "%sdone;\n" ind

(* Levels [loops] (innermost last) below the outer level, all literal
   bounds; [basep] is the enclosing accumulated base variable. *)
let rec emit_levels st ~ind ~ivn ~basep ~loops stmts =
  match (loops : Kc.loop_spec list) with
  | [] -> ()
  | [ inner ] ->
    if inner.Kc.l_ub > inner.Kc.l_lb then
      emit_inner st ~ind ~ivn ~basep ~inner
        ~lo_e:(string_of_int inner.Kc.l_lb)
        ~hi_e:(string_of_int inner.Kc.l_ub) ~literal:true stmts
    else
      (* keep the enclosing [let _b = .. in] well-formed *)
      add st "%s();\n" ind
  | l :: rest ->
    let iv = ivn l.Kc.l_level in
    add st "%sfor %s = %d to %d do\n" ind iv l.Kc.l_lb (l.Kc.l_ub - 1);
    let bvar = Printf.sprintf "%s_b" iv in
    add st "%s  let %s = %s%s * %d in\n" ind bvar
      (if basep = "" then "" else basep ^ " + ")
      iv
      st.strides.(l.Kc.l_dim);
    emit_levels st ~ind:(ind ^ "  ") ~ivn ~basep:bvar ~loops:rest stmts;
    add st "%sdone;\n" ind

let fun_header st ~fname ~pfor_used nests =
  add st "let %s (bufs : Sfc_native_shim.buf array) (scalars : float array)\n"
    fname;
  add st "    (%spfor : Sfc_native_shim.pfor) : unit =\n"
    (if pfor_used then "" else "_");
  let bufs_used = Hashtbl.create 8 and scalars_used = Hashtbl.create 8 in
  let rec scan (e : Kc.fexpr) =
    match e with
    | Kc.F_load (bi, _) -> Hashtbl.replace bufs_used bi ()
    | Kc.F_scalar i -> Hashtbl.replace scalars_used i ()
    | Kc.F_unary (_, a) -> scan a
    | Kc.F_binary (_, a, b) ->
      scan a;
      scan b
    | Kc.F_const _ | Kc.F_ivf _ -> ()
  in
  List.iter
    (fun (nest : Kc.nest) ->
      List.iter
        (fun (s : Kc.store_stmt) ->
          Hashtbl.replace bufs_used s.Kc.st_buf ();
          scan s.Kc.st_expr)
        nest.Kc.n_stores)
    nests;
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k () l -> k :: l) tbl [])
  in
  List.iter (fun bi -> add st "  let d%d = bufs.(%d) in\n" bi bi)
    (sorted bufs_used);
  List.iter (fun si -> add st "  let s%d = scalars.(%d) in\n" si si)
    (sorted scalars_used)

(* A single nest or an aligned group: one pfor over the outer level. *)
let emit_straight_group st ~fname (nests : Kc.nest list) =
  let loops = (List.hd nests).Kc.n_loops in
  let outer = List.hd loops in
  let stmts = List.concat_map (fun (n : Kc.nest) -> n.Kc.n_stores) nests in
  let par =
    outer.Kc.l_parallel
    && List.for_all
         (fun (n : Kc.nest) -> (List.hd n.Kc.n_loops).Kc.l_parallel)
         nests
  in
  fun_header st ~fname ~pfor_used:true nests;
  add st "  pfor %d %d (fun plo phi ->\n" outer.Kc.l_lb outer.Kc.l_ub;
  let ivn = default_ivn in
  let iv0 = ivn outer.Kc.l_level in
  (match loops with
  | [ inner ] ->
    (* 1-D: the chunk is the innermost range (dynamic bounds) *)
    emit_inner st ~ind:"    " ~ivn ~basep:"" ~inner ~lo_e:"plo" ~hi_e:"phi"
      ~literal:false stmts
  | _ :: rest ->
    add st "    for %s = plo to phi - 1 do\n" iv0;
    add st "      let %s_b = %s * %d in\n" iv0 iv0
      st.strides.(outer.Kc.l_dim);
    emit_levels st ~ind:"      " ~ivn ~basep:(iv0 ^ "_b") ~loops:rest stmts;
    add st "    done;\n"
  | [] -> assert false);
  add st "    ())\n\n";
  par

(* A shift-fused pair: consumer plane k - d runs right after producer
   plane k, with the last d consumer planes in an epilogue. The
   interleave is only correct executed in order over the whole outer
   range, so the entry ignores pfor and runs serially. *)
let emit_shifted_group st ~fname ~d (a : Kc.nest) (b : Kc.nest) =
  let loops = a.Kc.n_loops in
  let outer = List.hd loops in
  (* the consumer phase rebinds the outer level to the shifted plane *)
  let shift_iv = Printf.sprintf "i%ds" outer.Kc.l_level in
  let ivn_b l =
    if l = outer.Kc.l_level then shift_iv else default_ivn l
  in
  let s0 = st.strides.(outer.Kc.l_dim) in
  fun_header st ~fname ~pfor_used:false [ a; b ];
  let iv0 = default_ivn outer.Kc.l_level in
  add st "  for %s = %d to %d do\n" iv0 outer.Kc.l_lb (outer.Kc.l_ub - 1);
  add st "    let %s_b = %s * %d in\n" iv0 iv0 s0;
  emit_levels st ~ind:"    " ~ivn:default_ivn ~basep:(iv0 ^ "_b")
    ~loops:(List.tl loops) a.Kc.n_stores;
  add st "    if %s >= %d then begin\n" iv0 (outer.Kc.l_lb + d);
  add st "      let %s = %s - %d in\n" shift_iv iv0 d;
  add st "      let %s_b = %s * %d in\n" shift_iv shift_iv s0;
  emit_levels st ~ind:"      " ~ivn:ivn_b ~basep:(shift_iv ^ "_b")
    ~loops:(List.tl loops) b.Kc.n_stores;
  add st "      ()\n    end\n";
  add st "  done;\n";
  (* epilogue: the last d consumer planes *)
  add st "  for %s = %d to %d do\n" shift_iv
    (max outer.Kc.l_lb (outer.Kc.l_ub - d))
    (outer.Kc.l_ub - 1);
  add st "    let %s_b = %s * %d in\n" shift_iv shift_iv s0;
  emit_levels st ~ind:"    " ~ivn:ivn_b ~basep:(shift_iv ^ "_b")
    ~loops:(List.tl loops) b.Kc.n_stores;
  add st "  done\n\n"

let emit ~strides ?(skip = []) (spec : Kc.spec) =
  let st =
    { eb = Buffer.create 4096; strides; n_reused = 0; n_blits = 0;
      n_unrolled = 0; wid = 0 }
  in
  (* monomorphic accessors: the same inlined loads and stores as
     [Bigarray.Array1.unsafe_get/set], without the polymorphic
     signatures the typer would instantiate at every one of hundreds of
     call sites *)
  Buffer.add_string st.eb
    "(* generated by sfc native codegen — do not edit *)\n\
     [@@@warning \"-a\"]\n\n\
     external get : Sfc_native_shim.buf -> int -> float\n\
    \  = \"%caml_ba_unsafe_ref_1\"\n\
     external set : Sfc_native_shim.buf -> int -> float -> unit\n\
    \  = \"%caml_ba_unsafe_set_1\"\n\n";
  let statuses =
    List.mapi
      (fun i nest ->
        match List.assoc_opt i skip with
        | Some reason -> Error reason
        | None -> (
          match check_nest nest with
          | () -> Ok nest
          | exception Skip reason -> Error reason))
      spec.Kc.k_nests
  in
  let skipped =
    List.concat
      (List.mapi
         (fun i s -> match s with Error r -> [ (i, r) ] | Ok _ -> [])
         statuses)
  in
  let planned, refused = plan_groups statuses in
  let groups =
    List.map
      (fun pg ->
        let idxs = List.map fst pg.p_nests in
        let nests = List.map snd pg.p_nests in
        let fname, par, alts =
          match (pg.p_kind, pg.p_nests) with
          | G_single, [ (i, _) ] ->
            let fname = Printf.sprintf "nest%d" i in
            let par = emit_straight_group st ~fname nests in
            (fname, par, [])
          | G_aligned, (i, _) :: _ ->
            let fname = Printf.sprintf "fuse%d_%d" i (List.length idxs) in
            let par = emit_straight_group st ~fname nests in
            (fname, par, [])
          | G_shifted d, [ (ia, a); (ib, b) ] ->
            let fname = Printf.sprintf "shift%d_d%d" ia d in
            emit_shifted_group st ~fname ~d a b;
            (* standalone member entries, for hosts holding a real
               pool: the fused schedule above is serial by design *)
            let alts =
              List.map
                (fun (i, n) ->
                  let an = Printf.sprintf "nest%d" i in
                  ignore (emit_straight_group st ~fname:an [ n ]);
                  (i, an))
                [ (ia, a); (ib, b) ]
            in
            (fname, false, alts)
          | _ -> assert false
        in
        { g_nests = idxs; g_fname = fname; g_kind = pg.p_kind; g_par = par;
          g_alts = alts })
      planned
  in
  if groups = [] then
    Error
      (match skipped with
      | (_, reason) :: _ -> reason
      | [] -> "kernel has no loop nests")
  else
    Ok
      { e_body = Buffer.contents st.eb; e_groups = groups;
        e_skipped = skipped; e_refused = refused; e_reused = st.n_reused;
        e_blits = st.n_blits; e_unrolled = st.n_unrolled }

(* The registration trailer carries the cache key, so the final module
   text depends on the key while the key is a digest of [body] — which
   is why they are separate pieces. *)
let module_source t ~key =
  let entries =
    List.concat_map
      (fun g ->
        (g.g_fname, g.g_fname)
        :: List.map (fun (_, an) -> (an, an)) g.g_alts)
      t.e_groups
  in
  Printf.sprintf "%slet () =\n  Sfc_native_shim.register %S\n    [ %s ]\n"
    t.e_body key
    (String.concat ";\n      "
       (List.map (fun (n, f) -> Printf.sprintf "(%S, %s)" n f) entries))
