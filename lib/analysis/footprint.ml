(* Affine footprints: per-dimension interval boxes over kernel specs.
   See footprint.mli for the consumer map. *)

module Kc = Fsc_rt.Kernel_compile

type dim =
  | Top
  | Range of int * int

type region = dim list

let range lo hi = if lo <= hi then Range (lo, hi) else Range (hi, lo)

let join_dim a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Range (al, ah), Range (bl, bh) -> Range (min al bl, max ah bh)

let meet_dim a b =
  match (a, b) with
  | Top, d | d, Top -> Some d
  | Range (al, ah), Range (bl, bh) ->
      let lo = max al bl and hi = min ah bh in
      if lo <= hi then Some (Range (lo, hi)) else None

let dim_contains d x =
  match d with Top -> true | Range (lo, hi) -> lo <= x && x <= hi

let dims_intersect a b = meet_dim a b <> None

(* Regions of different ranks come from rank-mismatched uses of the
   same name; treat the missing dimensions as Top so every lattice
   answer stays conservative. *)
let rec join_region a b =
  match (a, b) with
  | [], [] -> []
  | [], rest | rest, [] -> List.map (fun _ -> Top) rest
  | da :: ta, db :: tb -> join_dim da db :: join_region ta tb

let rec meet_region a b =
  match (a, b) with
  | [], rest | rest, [] -> Some rest
  | da :: ta, db :: tb -> (
      match meet_dim da db with
      | None -> None
      | Some d -> (
          match meet_region ta tb with
          | None -> None
          | Some t -> Some (d :: t)))

let regions_intersect a b = meet_region a b <> None

let dim_to_string = function
  | Top -> "[?]"
  | Range (lo, hi) -> Printf.sprintf "[%d:%d]" lo hi

let region_to_string r = String.concat "" (List.map dim_to_string r)

type nest_fp = {
  nf_empty : bool;
  nf_reads : (int * region) list;
  nf_writes : (int * region) list;
}

(* The subscript in buffer dimension [d] is [iv + offset] where the iv
   of loop level [lvl] ranges over [l_lb, l_ub) — the loop's own l_dim
   is irrelevant here, the position in the index list is the dimension
   being subscripted. *)
let dim_of_form loops = function
  | Kc.Cst c -> Range (c, c)
  | Kc.Iv (lvl, off) -> (
      match List.find_opt (fun l -> l.Kc.l_level = lvl) loops with
      | None -> Top
      | Some l -> range (l.Kc.l_lb + off) (l.Kc.l_ub - 1 + off))

let region_of_forms loops forms = List.map (dim_of_form loops) forms

let add_access acc buf region =
  match List.assoc_opt buf acc with
  | None -> (buf, region) :: acc
  | Some prev -> (buf, join_region prev region) :: List.remove_assoc buf acc

let of_nest (n : Kc.nest) =
  let empty = List.exists (fun l -> l.Kc.l_ub <= l.Kc.l_lb) n.Kc.n_loops in
  if empty then { nf_empty = true; nf_reads = []; nf_writes = [] }
  else
    let reads = ref [] in
    let rec walk_expr = function
      | Kc.F_load (buf, forms) ->
          reads := add_access !reads buf (region_of_forms n.Kc.n_loops forms)
      | Kc.F_scalar _ | Kc.F_const _ | Kc.F_ivf _ -> ()
      | Kc.F_unary (_, e) -> walk_expr e
      | Kc.F_binary (_, a, b) ->
          walk_expr a;
          walk_expr b
    in
    let writes =
      List.fold_left
        (fun acc (st : Kc.store_stmt) ->
          walk_expr st.Kc.st_expr;
          add_access acc st.Kc.st_buf
            (region_of_forms n.Kc.n_loops st.Kc.st_index))
        [] n.Kc.n_stores
    in
    let by_buf l = List.sort (fun (a, _) (b, _) -> compare a b) l in
    { nf_empty = false; nf_reads = by_buf !reads; nf_writes = by_buf writes }

type t = nest_fp list

let of_spec (spec : Kc.spec) = List.map of_nest spec.Kc.k_nests

let accesses_to_string accs =
  String.concat ", "
    (List.map
       (fun (buf, r) -> Printf.sprintf "b%d%s" buf (region_to_string r))
       accs)

let nest_to_string i fp =
  if fp.nf_empty then Printf.sprintf "nest %d: empty" i
  else
    Printf.sprintf "nest %d: read %s; write %s" i
      (if fp.nf_reads = [] then "-" else accesses_to_string fp.nf_reads)
      (if fp.nf_writes = [] then "-" else accesses_to_string fp.nf_writes)

let to_string t = String.concat "\n" (List.mapi nest_to_string t)

(* Must-write: a store whose index is [Iv (l_d, 0)] in every dimension,
   each [l_d] a loop walking exactly [0, dims.(d)) of that dimension,
   in a nest with one loop per dimension, executes once per cell of the
   buffer. Loads anywhere in the kernel could observe the old contents
   (before the store, or through a later nest), so any read footprint
   of [buf] disqualifies it; an empty nest reads nothing. *)
let overwrites (spec : Kc.spec) ~buf ~dims =
  let rank = Array.length dims in
  let covers (n : Kc.nest) (st : Kc.store_stmt) =
    st.Kc.st_buf = buf
    && List.length st.Kc.st_index = rank
    && List.for_all2
         (fun d form ->
           match form with
           | Kc.Iv (lvl, 0) ->
             List.exists
               (fun l ->
                 l.Kc.l_level = lvl && l.Kc.l_dim = d && l.Kc.l_lb = 0
                 && l.Kc.l_ub = dims.(d))
               n.Kc.n_loops
           | Kc.Iv _ | Kc.Cst _ -> false)
         (List.init rank Fun.id) st.Kc.st_index
  in
  List.for_all
    (fun fp -> not (List.mem_assoc buf fp.nf_reads))
    (of_spec spec)
  && List.exists
       (fun n ->
         List.length n.Kc.n_loops = rank
         && List.exists (covers n) n.Kc.n_stores)
       spec.Kc.k_nests
