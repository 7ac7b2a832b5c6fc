(* Every Fortran program the benchmark can run, and the seeded draws
   over them. Sources come from [Fsc_driver.Benchmarks]; a program is
   identified by a key such as "gs:48x48x48:10" (kind, interior extents,
   time steps), which is also its row in the reference file. *)

module B = Fsc_driver.Benchmarks

type kind =
  | Gs
  | Pw
  | Lap
  | Smooth
  | Res

type t = {
  kind : kind;
  nx : int;
  ny : int;
  nz : int;  (* 1 for the 2-D Laplace *)
  niter : int;
}

let kind_name = function
  | Gs -> "gs"
  | Pw -> "pw"
  | Lap -> "lap"
  | Smooth -> "smooth"
  | Res -> "res"

let key p =
  match p.kind with
  | Lap -> Printf.sprintf "lap:%dx%d:%d" p.nx p.ny p.niter
  | k -> Printf.sprintf "%s:%dx%dx%d:%d" (kind_name k) p.nx p.ny p.nz p.niter

let source p =
  let { nx; ny; nz; niter; _ } = p in
  match p.kind with
  | Gs -> B.gauss_seidel ~nx ~ny ~nz ~niter ()
  | Pw -> B.pw_advection ~nx ~ny ~nz ~niter ()
  | Lap -> B.laplace ~n:nx ~niter ()
  | Smooth -> B.smooth ~nx ~ny ~nz ~niter ()
  | Res -> B.residual ~nx ~ny ~nz ~niter ()

let cube kind n niter = { kind; nx = n; ny = n; nz = n; niter }
let square n niter = { kind = Lap; nx = n; ny = n; nz = 1; niter }

(* Interior cell updates per run: the unit of MCells/s. *)
let cell_updates p = p.nx * p.ny * p.nz * p.niter

(* Floating-point operations per interior cell per time step, counted
   from the source statements (the residual's one-row probe nest is
   left out). *)
let flops_per_cell = function
  | Gs -> 6 (* 5 adds, 1 divide *)
  | Pw -> 63 (* three 21-flop advection terms *)
  | Lap -> 4 (* 3 adds, 1 multiply *)
  | Smooth -> 9 (* 5 adds, 1 divide; blend: 2 multiplies, 1 add *)
  | Res -> 7 (* 5 adds, 1 divide, 1 subtract *)

(* Computed (compulsory) bytes moved per interior cell per time step:
   every distinct array read once and every array written once, 8 bytes
   each, with perfect reuse of neighbours. Gauss-Seidel: read u, write
   unew, read unew, write u. PW: read u v w, write su sv sw. *)
let bytes_per_cell = function
  | Gs | Lap -> 32
  | Pw -> 48
  | Smooth -> 32 (* read u, write rs, read rs, write d *)
  | Res -> 16 (* read u, write r *)

(* ---- exec-steady: the fixed steady-state programs ---- *)

let gs48 = cube Gs 48 10 (* ~2 MB of state: about one per-core L2 *)
let gs96 = cube Gs 96 4 (* ~15 MB: well past L2 *)
let pw32 = cube Pw 32 10 (* 6 fields, one merged 63-flop stencil *)
let lap512 = square 512 10 (* 2-D, long rows, ~4 MB *)
let res48 = cube Res 48 10

(* ---- serve-mix: the repeated mid-size base programs ---- *)

let serve_base =
  [ cube Gs 32 4; cube Smooth 24 4; square 256 4; cube Res 32 3 ]

(* ---- cold-start: the draw space ----

   Every (kind, extents) pair emits different literal bounds, hence a
   different compiled artifact and a different native plugin; the time
   step count only changes the host loop. A run draws pairs without
   replacement, so within one run every compile and every native build
   is new. The 3-D kinds take extents from 8 to 20 (125 shapes each);
   the 2-D Laplace takes n from 8 to 132, as many shapes (64 to 17424
   cells). With 125 shapes per kind a run draws 625 fresh programs, more
   than a cold-start run at full host speed gets through. *)

let cold_extents = [ 8; 11; 14; 17; 20 ]
let cold_kinds = [ Gs; Pw; Smooth; Res; Lap ]
let cold_niters = [ 1; 2; 3; 4 ]

let cold_shapes =
  let sizes = cold_extents in
  let cubes =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun nx ->
            List.concat_map
              (fun ny ->
                List.map (fun nz -> { kind; nx; ny; nz; niter = 1 }) sizes)
              sizes)
          sizes)
      [ Gs; Pw; Smooth; Res ]
  in
  cubes @ List.init 125 (fun i -> square (8 + i) 1)

(* The warm-up programs each cold-start set-up builds once, one per
   kind: outside the draw space (9 and 7 are not drawn extents), so they
   never pre-build a drawn artifact. *)
let cold_warmup =
  square 7 1 :: List.map (fun k -> cube k 9 1) [ Gs; Pw; Smooth; Res ]

let cold_space =
  List.concat_map
    (fun p -> List.map (fun niter -> { p with niter }) cold_niters)
    cold_shapes

(* Every program any workload can run: the reference covers exactly
   this list. *)
let all () =
  [ gs48; gs96; pw32; lap512; res48 ] @ cold_warmup @ serve_base @ cold_space

(* ---- seeded draws ---- *)

let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [progs] without replacement, stratified by kind: every block of five
   holds one program of each kind, in a seeded order, so every run draws
   the same mix. Ends when a kind runs out. *)
let stratified rng progs =
  let pools =
    List.map
      (fun k -> shuffle rng (Array.of_list (List.filter (fun p -> p.kind = k) progs)))
      cold_kinds
  in
  let blocks =
    List.fold_left (fun m a -> min m (Array.length a)) max_int pools
  in
  let pools = Array.of_list pools in
  Array.concat
    (List.init blocks (fun b ->
         shuffle rng (Array.map (fun pool -> pool.(b)) pools)))

(* The cold-start op stream: (kind, extents) pairs, each with a drawn
   step count — so every compile and every native build is new. *)
let cold_stream rng =
  let niters = Array.of_list cold_niters in
  stratified rng cold_shapes
  |> Array.map (fun p ->
         { p with niter = niters.(Random.State.int rng (Array.length niters)) })
