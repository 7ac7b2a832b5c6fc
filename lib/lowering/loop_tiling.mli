(** scf-parallel-loop-tiling{parallel-loop-tile-sizes=...}: splits an
    [scf.parallel] into an outer parallel over tile origins (step = tile
    size) and an inner parallel over intra-tile offsets bounded by
    min(tile, remaining). The paper found GPU performance — and even
    correctness — sensitive to these sizes; 32,32,1 performed well
    across kernels (Section 3). The outer loop is annotated with
    ["tiled"] and ["tile_sizes"] for the GPU mapping pass. This is the
    only tiling in the compiler: the CPU engines run their nests
    untiled. *)

open Fsc_ir

val run : tile_sizes:int list -> Op.op -> unit

val pass : tile_sizes:int list -> Pass.t
