(* Pass manager: named module passes, optional verification between
   passes, and per-pass timing/statistics — the mini equivalent of
   mlir-opt's --pass-pipeline driver from Listing 4 of the paper.

   Every pass execution is also recorded as an [Obs] span (category
   "pass", with before/after op counts in the args) so `sfc --trace`
   and the bench harness can attribute pipeline cost per pass, the way
   mlir-opt's -mlir-timing does. *)

module Obs = Fsc_obs.Obs

let log_src = Logs.Src.create "fsc.pass" ~doc:"pass manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  name : string;
  run : Op.op -> unit;
}

let create name run = { name; run }

type stats = {
  s_pass : string;
  s_seconds : float; (* pass execution only *)
  s_verify_seconds : float; (* post-pass verification, timed separately *)
  s_ops_before : int;
  s_ops_after : int;
}

(* A pipeline failure carries the failing pass name, the original
   exception, and the stats recorded up to and including the failing
   pass, so a crash is still attributable and timeable. *)
exception Pipeline_error of string * exn * stats list

let count_ops m =
  let n = ref 0 in
  Op.walk (fun _ -> Stdlib.incr n) m;
  !n

(* Run [passes] over module [m]. When [verify_each] is set, the IR is
   verified after every pass (against [ctx] when provided, otherwise only
   structurally), mirroring mlir-opt's -verify-each. Verification time is
   measured separately from the pass so [report_stats] does not attribute
   verifier cost to the wrong pass. *)
let run_pipeline ?(verify_each = true) ?ctx passes m =
  let stats = ref [] in
  let fail name e bt =
    Printexc.raise_with_backtrace
      (Pipeline_error (name, e, List.rev !stats))
      bt
  in
  List.iter
    (fun p ->
      let ops_before = count_ops m in
      let sp = Obs.span_begin ~cat:"pass" p.name in
      let t0 = Unix.gettimeofday () in
      let pass_result =
        try
          p.run m;
          Ok ()
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let dt = Unix.gettimeofday () -. t0 in
      let verify_result, vdt =
        match pass_result with
        | Ok () when verify_each ->
          let vsp = Obs.span_begin ~cat:"verify" ("verify after " ^ p.name) in
          let v0 = Unix.gettimeofday () in
          let r =
            try
              (match ctx with
              | Some c -> Verifier.verify_in_context_exn c m
              | None -> Verifier.verify_exn m);
              Ok ()
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          let vdt = Unix.gettimeofday () -. v0 in
          Obs.span_end vsp;
          (r, vdt)
        | _ -> (Ok (), 0.)
      in
      let ops_after = count_ops m in
      (* the stat is recorded before any re-raise: a failing pass still
         shows up in the report with the time it burned *)
      stats :=
        { s_pass = p.name; s_seconds = dt; s_verify_seconds = vdt;
          s_ops_before = ops_before; s_ops_after = ops_after }
        :: !stats;
      let error_args =
        match pass_result with
        | Ok () -> []
        | Error (e, _) -> [ ("error", Obs.A_str (Printexc.to_string e)) ]
      in
      Obs.span_end
        ~args:
          ([ ("ops_before", Obs.A_int ops_before);
             ("ops_after", Obs.A_int ops_after);
             ("verify_ms", Obs.A_float (1000. *. vdt)) ]
          @ error_args)
        sp;
      Log.debug (fun f ->
          f "pass %s: %.3f ms (%d -> %d ops)" p.name (1000. *. dt) ops_before
            ops_after);
      (match pass_result with
      | Ok () -> ()
      | Error (e, bt) -> fail p.name e bt);
      match verify_result with
      | Ok () -> ()
      | Error (e, bt) -> fail (p.name ^ " (verify)") e bt)
    passes;
  List.rev !stats
