(* The host-speed probe, written in the benchmark's own code so that no
   change to the program under test can move it. On a shared host the
   speed of memory-bound loops drifts by tens of percent for minutes at a
   time as neighbours come and go. The probe is a fixed amount of such
   work. The exec workloads time it once per round and serve-mix every
   50 ms while its load runs; [run.py] scales some of their metrics by
   the median. Short bursts (tens of ms) of a slow host also occur, so
   samples are spread over the whole run, never taken in one batch. *)

open Bigarray

type grid = (float, float64_elt, c_layout) Array1.t

let n = 32
let side = n + 2
let cells = side * side * side

let grid () : grid =
  let a = Array1.create float64 c_layout cells in
  for i = 0 to cells - 1 do
    a.{i} <- float_of_int (i mod 97) *. 0.01
  done;
  a

let src = lazy (grid ())
let dst = lazy (grid ())

(* Two 7-point Jacobi sweeps over a 32^3 interior (0.6 MB of state):
   compiled loops over unboxed floats, like the emitted native kernels. *)
let stencil () =
  let a = Lazy.force src and b = Lazy.force dst in
  let sweep (a : grid) (b : grid) =
    for k = 1 to n do
      for j = 1 to n do
        let row = (k * side + j) * side in
        for i = 1 to n do
          let c = row + i in
          Array1.unsafe_set b c
            ((Array1.unsafe_get a (c - 1) +. Array1.unsafe_get a (c + 1)
             +. Array1.unsafe_get a (c - side) +. Array1.unsafe_get a (c + side)
             +. Array1.unsafe_get a (c - (side * side))
             +. Array1.unsafe_get a (c + (side * side)))
            /. 6.)
        done
      done
    done
  in
  sweep a b;
  sweep b a

let samples = ref []

let sample () =
  let t0 = Unix.gettimeofday () in
  stencil ();
  samples := (Unix.gettimeofday () -. t0) :: !samples
