(* Runtime substrate tests: buffers, the domain pool, and the GPU
   simulator's data-strategy accounting. *)

module Rt = Fsc_rt.Memref_rt
module DP = Fsc_rt.Domain_pool
module G = Fsc_rt.Gpu_sim

(* ---- memref_rt ---- *)

let test_column_major_strides () =
  let b = Rt.create [ 3; 4; 5 ] in
  Alcotest.(check (array int)) "strides" [| 1; 3; 12 |] b.Rt.strides;
  Alcotest.(check int) "size" 60 (Rt.size b);
  Alcotest.(check int) "bytes" 480 (Rt.bytes b);
  (* offset of (i,j,k) = i + 3j + 12k *)
  Alcotest.(check int) "offset" (2 + 9 + 48) (Rt.offset b [| 2; 3; 4 |])

let test_get_set () =
  let b = Rt.create [ 4; 4 ] in
  Rt.set b [| 1; 2 |] 3.5;
  Alcotest.(check (float 0.)) "roundtrip" 3.5 (Rt.get b [| 1; 2 |]);
  Alcotest.(check (float 0.)) "flat agrees" 3.5 (Rt.get_flat b 9);
  Rt.fill b 1.0;
  Alcotest.(check (float 0.)) "fill" 1.0 (Rt.get b [| 3; 3 |])

let test_clone_copy_diff () =
  let a = Rt.create [ 8 ] in
  Rt.init a (fun i -> float_of_int (i * i));
  let b = Rt.clone a in
  Alcotest.(check (float 0.)) "identical" 0.0 (Rt.max_abs_diff a b);
  Rt.set_flat b 3 100.0;
  Alcotest.(check bool) "clone independent" true (Rt.max_abs_diff a b > 0.0);
  Rt.copy_into ~src:a ~dst:b;
  Alcotest.(check (float 0.)) "copy restores" 0.0 (Rt.max_abs_diff a b)

(* A NaN must not vanish from the differential metric: [nan > m] is
   false, so a plain running maximum would report 0. *)
let test_diff_sees_nan () =
  let a = Rt.create [ 4 ] and b = Rt.create [ 4 ] in
  Rt.set_flat b 2 Float.nan;
  Alcotest.(check (float 0.)) "NaN on one side" Float.infinity
    (Rt.max_abs_diff a b);
  Rt.set_flat a 2 Float.nan;
  Alcotest.(check (float 0.)) "NaN on both sides" 0.0 (Rt.max_abs_diff a b);
  Rt.set_flat a 1 Float.infinity;
  Rt.set_flat b 1 Float.neg_infinity;
  Alcotest.(check (float 0.)) "opposite infinities" Float.infinity
    (Rt.max_abs_diff a b);
  Rt.set_flat b 1 Float.infinity;
  Alcotest.(check (float 0.)) "equal infinities" 0.0 (Rt.max_abs_diff a b)

(* ---- domain pool ---- *)

let test_parallel_for_covers_range () =
  DP.with_pool 3 (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* each worker writes disjoint indices *)
      DP.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun c -> c = 1) hits))

let test_parallel_for_empty_and_single () =
  DP.with_pool 2 (fun pool ->
      let count = ref 0 in
      DP.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> incr count);
      Alcotest.(check int) "empty range" 0 !count;
      let hits = Atomic.make 0 in
      DP.parallel_for pool ~lo:0 ~hi:1 (fun lo hi ->
          Atomic.fetch_and_add hits (hi - lo) |> ignore);
      Alcotest.(check int) "single" 1 (Atomic.get hits))

let test_pool_reuse () =
  DP.with_pool 2 (fun pool ->
      (* many consecutive tasks through the same pool *)
      let total = Atomic.make 0 in
      for _ = 1 to 50 do
        DP.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
            Atomic.fetch_and_add total (hi - lo) |> ignore)
      done;
      Alcotest.(check int) "all iterations ran" 5000 (Atomic.get total))

(* A raising chunk must neither kill its worker nor strand the caller
   at the completion barrier: the exception reaches the caller, whether
   a chunk of the caller or of the worker raised, and the pool stays
   usable. The side that must not raise waits (bounded) inside its
   chunk until the raising side has started one, so the raising side
   always runs a chunk: otherwise a preempted caller can lose its whole
   segment to the worker's steals, or the caller can run every chunk
   before the worker wakes. *)
let test_parallel_for_raising_chunk () =
  DP.with_pool 2 (fun pool ->
      let caller = Domain.self () in
      List.iter
        (fun on_worker ->
          let worker_ran = Atomic.make false in
          let caller_ran = Atomic.make false in
          let deadline = Unix.gettimeofday () +. 5.0 in
          let wait_for flag =
            while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done
          in
          let raised =
            match
              DP.parallel_for pool ~lo:0 ~hi:64 (fun _ _ ->
                  if Domain.self () = caller then begin
                    Atomic.set caller_ran true;
                    if on_worker then wait_for worker_ran
                    else failwith "caller chunk"
                  end
                  else begin
                    Atomic.set worker_ran true;
                    if on_worker then failwith "worker chunk"
                    else wait_for caller_ran
                  end)
            with
            | exception Failure _ -> true
            | () -> false
          in
          let who = if on_worker then "worker" else "caller" in
          Alcotest.(check bool) (who ^ " chunk raises in the caller") true
            raised;
          let total = Atomic.make 0 in
          DP.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
              Atomic.fetch_and_add total (hi - lo) |> ignore);
          Alcotest.(check int) "pool still covers the range" 100
            (Atomic.get total))
        [ false; true ])

(* A raising team member must neither kill its worker nor strand the
   other members at the phase barrier: member 1 (a worker) raises
   before the first barrier of a 3-phase body, then member 0 (the
   caller) raises between phases. Each exception reaches the caller,
   and the pool stays usable. *)
let test_team_raising_member () =
  DP.with_pool 3 (fun pool ->
      List.iter
        (fun (who, raiser, at_phase) ->
          let raised =
            match
              DP.team pool ~members:3 (fun ~member ~barrier ->
                  for p = 0 to 2 do
                    if member = raiser && p = at_phase then
                      failwith (Printf.sprintf "member %d" member);
                    barrier ()
                  done)
            with
            | exception Failure m -> m
            | () -> "no exception"
          in
          Alcotest.(check string) (who ^ " raises in the caller")
            (Printf.sprintf "member %d" raiser)
            raised;
          let total = Atomic.make 0 in
          DP.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
              Atomic.fetch_and_add total (hi - lo) |> ignore);
          Alcotest.(check int) (who ^ ": parallel_for after the team") 100
            (Atomic.get total))
        [ ("worker member", 1, 0); ("caller member", 0, 1) ])

(* A team pins members to workers for the whole body; the reusable
   phase barrier must order phases across members, round after round,
   without a pool join between phases. *)
let test_team_barrier_phases () =
  DP.with_pool 3 (fun pool ->
      let members = 3 in
      let phases = 20 in
      let counts = Array.init phases (fun _ -> Atomic.make 0) in
      let failed = Atomic.make false in
      DP.team pool ~members (fun ~member:_ ~barrier ->
          for p = 0 to phases - 1 do
            Atomic.incr counts.(p);
            barrier ();
            (* after the rendezvous every member's arrival is visible *)
            if Atomic.get counts.(p) <> members then Atomic.set failed true;
            barrier ()
          done);
      Alcotest.(check bool) "every phase saw all members" false
        (Atomic.get failed);
      Array.iteri
        (fun p c ->
          Alcotest.(check int)
            (Printf.sprintf "phase %d count" p)
            members (Atomic.get c))
        counts;
      (* the pool is immediately reusable for ordinary work after a
         team, and for further teams *)
      let total = Atomic.make 0 in
      DP.parallel_for pool ~lo:0 ~hi:100 (fun lo hi ->
          Atomic.fetch_and_add total (hi - lo) |> ignore);
      Alcotest.(check int) "parallel_for after team" 100 (Atomic.get total);
      DP.team pool ~members:2 (fun ~member ~barrier ->
          Atomic.fetch_and_add total (member + 1) |> ignore;
          barrier ());
      Alcotest.(check int) "second team ran both members" 103
        (Atomic.get total))

let test_team_membership_bounds () =
  DP.with_pool 2 (fun pool ->
      (* members = 1 runs inline on the caller *)
      let ran = ref false in
      DP.team pool ~members:1 (fun ~member ~barrier ->
          barrier ();
          ran := member = 0);
      Alcotest.(check bool) "singleton team inlined" true !ran;
      (* a team larger than the pool can never rendezvous: rejected *)
      List.iter
        (fun members ->
          match DP.team pool ~members (fun ~member:_ ~barrier:_ -> ()) with
          | () -> Alcotest.failf "members=%d accepted" members
          | exception Invalid_argument _ -> ())
        [ 0; 3 ])

(* Small ranges (hi - lo < size * 4, i.e. fewer than a few chunks per
   worker) used to divide into zero-sized default chunks; they must
   cover every index exactly once whether they run inline or through
   the workers. *)
let test_parallel_for_small_ranges () =
  DP.with_pool 4 (fun pool ->
      for n = 0 to 16 do
        let hits = Array.make (max n 1) 0 in
        DP.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
            for i = lo to hi - 1 do
              hits.(i) <- hits.(i) + 1
            done);
        for i = 0 to n - 1 do
          Alcotest.(check int)
            (Printf.sprintf "n=%d index %d exactly once" n i)
            1 hits.(i)
        done
      done)

(* degenerate chunk requests are clamped to a sane minimum, never an
   infinite loop or skipped work *)
let test_parallel_for_chunk_clamped () =
  DP.with_pool 2 (fun pool ->
      List.iter
        (fun chunk ->
          let hits = Array.make 100 0 in
          DP.parallel_for pool ~chunk ~lo:0 ~hi:100 (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%d covers exactly once" chunk)
            true
            (Array.for_all (fun c -> c = 1) hits))
        [ 0; -5; 1; 1000 ])

let prop_parallel_sum =
  QCheck.Test.make ~name:"parallel_for sums equal serial" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 5000))
    (fun (workers, n) ->
      DP.with_pool workers (fun pool ->
          let sum = Atomic.make 0 in
          DP.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
              let s = ref 0 in
              for i = lo to hi - 1 do
                s := !s + i
              done;
              Atomic.fetch_and_add sum !s |> ignore);
          Atomic.get sum = n * (n - 1) / 2))

(* ---- gpu sim ---- *)

let test_residency_and_views () =
  let g = G.create () in
  let host = Rt.create [ 16 ] in
  Rt.init host (fun i -> float_of_int i);
  G.alloc g host;
  G.memcpy_h2d g host;
  let dev = G.kernel_view g host in
  Alcotest.(check (float 0.)) "device sees host data" 0.0
    (Rt.max_abs_diff host dev);
  (* mutate device, host unchanged until copy-back *)
  Rt.set_flat dev 0 99.0;
  Alcotest.(check bool) "host unchanged" true (Rt.get_flat host 0 = 0.0);
  G.memcpy_d2h g host;
  Alcotest.(check (float 0.)) "copied back" 99.0 (Rt.get_flat host 0)

let test_host_register_pages_every_launch () =
  let g = G.create () in
  let host = Rt.create [ 1024 ] in
  G.host_register g host;
  let launch () =
    G.launch g ~strategy:G.Strategy_host_register ~block_threads:256
      ~flops:1e3 ~bytes_accessed:1e3
      ~body:(fun () -> ())
      [ host ]
  in
  launch ();
  launch ();
  launch ();
  let s = G.stats g in
  (* 1024 cells * 8 B * 2 directions * 3 launches *)
  Alcotest.(check int) "paged bytes" (1024 * 8 * 2 * 3) s.G.s_bytes_paged;
  Alcotest.(check int) "3 kernels" 3 s.G.s_kernels

let test_device_resident_no_paging () =
  let g = G.create () in
  let host = Rt.create [ 1024 ] in
  G.alloc g host;
  G.memcpy_h2d g host;
  for _ = 1 to 5 do
    G.launch g ~strategy:G.Strategy_device_resident ~block_threads:256
      ~flops:1e3 ~bytes_accessed:1e3
      ~body:(fun () -> ())
      [ host ]
  done;
  G.memcpy_d2h g host;
  let s = G.stats g in
  Alcotest.(check int) "no paging" 0 s.G.s_bytes_paged;
  Alcotest.(check int) "one transfer each way" (1024 * 8) s.G.s_bytes_h2d;
  Alcotest.(check int) "d2h" (1024 * 8) s.G.s_bytes_d2h

let test_resident_strategy_requires_residency () =
  let g = G.create () in
  let host = Rt.create [ 16 ] in
  G.host_register g host;
  Alcotest.(check bool) "launch refuses non-resident buffer" true
    (match
       G.launch g ~strategy:G.Strategy_device_resident ~block_threads:16
         ~flops:1.0 ~bytes_accessed:1.0
         ~body:(fun () -> ())
         [ host ]
     with
    | exception G.Launch_failure _ -> true
    | () -> false)

let test_unified_first_touch () =
  let g = G.create () in
  let host = Rt.create [ 512 ] in
  G.host_register g host;
  for _ = 1 to 4 do
    G.launch g ~strategy:G.Strategy_unified ~block_threads:64 ~flops:1e3
      ~bytes_accessed:1e3
      ~body:(fun () -> ())
      [ host ]
  done;
  let s = G.stats g in
  (* unified: one migration on first touch, resident afterwards *)
  Alcotest.(check int) "single first-touch transfer" (512 * 8) s.G.s_bytes_h2d;
  Alcotest.(check int) "no repeated paging" 0 s.G.s_bytes_paged

let test_clock_ordering () =
  (* the three strategies must be ordered: resident < unified <
     host_register for a multi-launch workload *)
  let time strategy =
    let g = G.create () in
    let host = Rt.create [ 65536 ] in
    (match strategy with
    | G.Strategy_device_resident ->
      G.alloc g host;
      G.memcpy_h2d g host
    | _ -> G.host_register g host);
    for _ = 1 to 10 do
      G.launch g ~strategy ~block_threads:1024 ~flops:1e6
        ~bytes_accessed:(float_of_int (Rt.bytes host))
        ~body:(fun () -> ())
        [ host ]
    done;
    (G.stats g).G.s_clock
  in
  let t_res = time G.Strategy_device_resident in
  let t_uni = time G.Strategy_unified in
  let t_reg = time G.Strategy_host_register in
  Alcotest.(check bool) "resident fastest" true (t_res < t_uni);
  Alcotest.(check bool) "host_register slowest" true (t_uni < t_reg)

let test_device_oom () =
  let small_spec = { G.v100 with G.device_mem_bytes = 1024 } in
  let g = G.create ~spec:small_spec () in
  let host = Rt.create [ 1024 ] in
  Alcotest.(check bool) "OOM detected" true
    (match G.alloc g host with
    | exception G.Launch_failure _ -> true
    | () -> false)

let () =
  Alcotest.run "runtime"
    [ ("memref",
       [ Alcotest.test_case "column-major strides" `Quick
           test_column_major_strides;
         Alcotest.test_case "get/set" `Quick test_get_set;
         Alcotest.test_case "clone/copy/diff" `Quick test_clone_copy_diff;
         Alcotest.test_case "diff sees NaN" `Quick test_diff_sees_nan ]);
      ("domain-pool",
       [ Alcotest.test_case "covers range" `Quick
           test_parallel_for_covers_range;
         Alcotest.test_case "empty and single" `Quick
           test_parallel_for_empty_and_single;
         Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
         Alcotest.test_case "raising chunk" `Quick
           test_parallel_for_raising_chunk;
         Alcotest.test_case "raising team member" `Quick
           test_team_raising_member;
         Alcotest.test_case "team barrier phases" `Quick
           test_team_barrier_phases;
         Alcotest.test_case "team membership bounds" `Quick
           test_team_membership_bounds;
         Alcotest.test_case "small ranges" `Quick
           test_parallel_for_small_ranges;
         Alcotest.test_case "chunk clamped" `Quick
           test_parallel_for_chunk_clamped;
         QCheck_alcotest.to_alcotest prop_parallel_sum ]);
      ("gpu-sim",
       [ Alcotest.test_case "residency and views" `Quick
           test_residency_and_views;
         Alcotest.test_case "host_register pages every launch" `Quick
           test_host_register_pages_every_launch;
         Alcotest.test_case "device resident no paging" `Quick
           test_device_resident_no_paging;
         Alcotest.test_case "resident requires residency" `Quick
           test_resident_strategy_requires_residency;
         Alcotest.test_case "unified first touch" `Quick
           test_unified_first_touch;
         Alcotest.test_case "strategy clock ordering" `Quick
           test_clock_ordering;
         Alcotest.test_case "device OOM" `Quick test_device_oom ]) ]
