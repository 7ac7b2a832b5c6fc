(* The benchmark's own spans, recorded around calls into each layer's
   public functions, plus the per-layer self-time breakdown that merges
   them with the spans the program already records through [Obs].

   Spans stay in memory and are written once, as Chrome trace-event
   JSON, when the run ends. Every span carries a name, start, end, its
   parent span and the id of the op it belongs to. *)

module Obs = Fsc_obs.Obs
module J = Obs.Json

type span = {
  s_id : int;
  s_name : string;
  s_layer : string;
  s_t0 : float; (* absolute seconds *)
  s_t1 : float;
  s_parent : int; (* 0: a root *)
  s_op : int;
  s_tid : int;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []
let current_op = ref 0

(* Tracing is per op: [set true] also enables [Obs] span recording, so
   the program's own pipeline/kernel spans land in the same window. *)
let set enabled =
  on := enabled;
  Obs.set_enabled enabled

let span ~layer name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      recorded :=
        { s_id = id; s_name = name; s_layer = layer; s_t0 = t0; s_t1 = t1;
          s_parent = parent; s_op = !current_op;
          s_tid = (Domain.self () :> int) }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Rename the span that finished last — for spans whose name depends on
   the call's outcome (a cache hit or miss). *)
let rename_last name =
  match !recorded with
  | s :: rest when !on -> recorded := { s with s_name = name } :: rest
  | _ -> ()

(* One op: a root span whose descendants share its op id. *)
let op ~layer name id f =
  current_op := id;
  span ~layer name f

(* ---- layers ---- *)

(* Which layer owns each span the program records through [Obs]. *)
let obs_layer name =
  match name with
  | "frontend" -> "fortran"
  | "discovery" | "merge" | "extraction" -> "core"
  | "verify" | "verify host" -> "ir"
  | "stencil-to-scf" | "canonicalize" | "loop specialisation"
  | "scf-to-openmp" | "cpu tile annotation" | "gpu data placement" ->
    "lowering"
  | "footprint analysis" -> "analysis"
  | "cache lookup" | "cache revalidate" -> "cache"
  | "link + kernel compile" -> "driver"
  | "job.exec" -> "server"
  | "interp.run_main" -> "runtime"
  | n when String.length n > 11 && String.sub n 0 11 = "kernel.exec" ->
    "runtime"
  | _ -> "other"

type node = {
  n_layer : string;
  n_t0 : float;
  n_t1 : float;
  n_tid : int;
}

(* The program's own spans inside [t_lo, t_hi], in absolute time (Obs
   times are relative to its epoch). *)
let obs_nodes ~t_lo ~t_hi =
  let epoch = !Obs.epoch in
  Obs.events ()
  |> List.filter_map (fun (e : Obs.event) ->
         let t0 = epoch +. e.Obs.e_start in
         let t1 = t0 +. e.Obs.e_dur in
         if t0 >= t_lo && t1 <= t_hi then
           Some
             { n_layer = obs_layer e.Obs.e_name; n_t0 = t0; n_t1 = t1;
               n_tid = e.Obs.e_tid }
         else None)

let own_nodes ~layer_of =
  List.map
    (fun s ->
      { n_layer = layer_of s; n_t0 = s.s_t0; n_t1 = s.s_t1; n_tid = s.s_tid })
    !recorded

(* Self time per layer: each node's duration minus what its direct
   children cover. Nesting is recovered per thread by a stack sweep
   over start times (spans on one thread nest properly). Returns
   (layer, seconds) pairs and the summed root duration. *)
let self_times nodes =
  let tbl = Hashtbl.create 16 in
  let add layer dt =
    Hashtbl.replace tbl layer
      (dt +. Option.value (Hashtbl.find_opt tbl layer) ~default:0.)
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun n ->
      Hashtbl.replace by_tid n.n_tid
        (n :: Option.value (Hashtbl.find_opt by_tid n.n_tid) ~default:[]))
    nodes;
  let roots = ref 0. in
  Hashtbl.iter
    (fun _ ns ->
      let sorted =
        List.sort
          (fun a b ->
            match compare a.n_t0 b.n_t0 with
            | 0 -> compare b.n_t1 a.n_t1
            | c -> c)
          ns
      in
      (* stack of (node, children duration) *)
      let st = ref [] in
      let close (n, kids) =
        add n.n_layer (n.n_t1 -. n.n_t0 -. kids);
        match !st with
        | (p, pk) :: rest -> st := (p, pk +. (n.n_t1 -. n.n_t0)) :: rest
        | [] -> roots := !roots +. (n.n_t1 -. n.n_t0)
      in
      (* close every open span that ended before [t] *)
      let rec pop t =
        match !st with
        | ((top, _) as e) :: rest when top.n_t1 <= t ->
          st := rest;
          close e;
          pop t
        | _ -> ()
      in
      List.iter
        (fun n ->
          pop n.n_t0;
          st := (n, 0.) :: !st)
        sorted;
      pop infinity)
    by_tid;
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare,
   !roots)

(* ---- export ---- *)

let write_chrome path ~t_base =
  let us t = J.Num (1e6 *. (t -. t_base)) in
  let own =
    List.rev_map
      (fun s ->
        J.Obj
          [ ("name", J.Str s.s_name); ("cat", J.Str s.s_layer);
            ("ph", J.Str "X"); ("pid", J.Num 1.);
            ("tid", J.Num (float_of_int s.s_tid)); ("ts", us s.s_t0);
            ("dur", J.Num (1e6 *. (s.s_t1 -. s.s_t0)));
            ("args",
             J.Obj
               [ ("id", J.Num (float_of_int s.s_id));
                 ("parent", J.Num (float_of_int s.s_parent));
                 ("op", J.Num (float_of_int s.s_op)) ]) ])
      !recorded
  in
  let epoch = !Obs.epoch in
  let program =
    List.map
      (fun (e : Obs.event) ->
        J.Obj
          [ ("name", J.Str e.Obs.e_name);
            ("cat", J.Str (if e.Obs.e_cat = "" then "obs" else e.Obs.e_cat));
            ("ph", J.Str "X"); ("pid", J.Num 2.);
            ("tid", J.Num (float_of_int e.Obs.e_tid));
            ("ts", us (epoch +. e.Obs.e_start));
            ("dur", J.Num (1e6 *. e.Obs.e_dur)) ])
      (Obs.events ())
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("traceEvents", J.List (own @ program));
                ("displayTimeUnit", J.Str "ms") ]));
      output_char oc '\n')
