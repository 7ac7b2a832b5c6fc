(* Tests for the static analysis library: the diagnostics engine,
   source-location threading from the frontend onto FIR ops, the
   loop-carried dependence / race classification, the static bounds
   analysis, and the discovery pass's structured rejection diagnostics —
   one snippet per reachable rejection reason, each asserting the loops
   stay untouched AND the expected diagnostic (reason + location) is
   recorded. *)

open Fsc_ir
module Diag = Fsc_analysis.Diag
module Dep = Fsc_analysis.Dependence
module Bounds = Fsc_analysis.Bounds
module Check = Fsc_analysis.Check
module Discovery = Fsc_core.Discovery

let () = Fsc_dialects.Registry.init ()

let lower src = Fsc_fortran.Flower.compile_source src

let count name m =
  List.length (Op.collect_ops (fun o -> o.Op.o_name = name) m)

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

(* ------------------------------------------------------------------ *)
(* Diagnostics engine                                                  *)
(* ------------------------------------------------------------------ *)

let test_diag_render () =
  let d =
    Diag.warning ~loc:(Diag.loc 12 5)
      ~notes:[ (Some (Diag.loc 13 9), "conflicting read is here") ]
      ~code:"race" "loop-carried dependence on 'u'"
  in
  let s = Diag.render ~file:"gs.f90" d in
  Alcotest.(check bool) "head line" true
    (contains s "gs.f90:12:5: warning[race]: loop-carried dependence on 'u'");
  Alcotest.(check bool) "note line" true
    (contains s "gs.f90:13:9: note: conflicting read is here");
  (* no location: no dangling separator *)
  let d2 = Diag.error ~code:"pipeline" "no buffer named 'x'" in
  Alcotest.(check string) "locless render"
    "error[pipeline]: no buffer named 'x'" (Diag.render d2)

let test_diag_json () =
  let d =
    Diag.error ~loc:(Diag.loc 3 7)
      ~notes:[ (None, "while \"linking\"") ]
      ~code:"bounds" "subscript out of range"
  in
  let j = Diag.to_json ~file:"a \"b\".f90" d in
  (* must be valid JSON: parse it back with the trace JSON parser *)
  let v = Fsc_obs.Obs.Json.of_string j in
  (match v with
  | Fsc_obs.Obs.Json.Obj fields ->
    Alcotest.(check bool) "has severity" true
      (List.mem_assoc "severity" fields);
    Alcotest.(check bool) "has loc" true (List.mem_assoc "loc" fields)
  | _ -> Alcotest.fail "expected a JSON object");
  Alcotest.(check bool) "escaped file" true (contains j "a \\\"b\\\".f90")

let test_diag_error_count () =
  let ds =
    [ Diag.error ~code:"bounds" "e";
      Diag.warning ~code:"race" "w";
      Diag.note ~code:"stencil-reject" "n" ]
  in
  Alcotest.(check int) "errors" 1 (Diag.error_count ds);
  Alcotest.(check int) "werror" 2 (Diag.error_count ~werror:true ds)

(* ------------------------------------------------------------------ *)
(* Source locations on FIR ops                                         *)
(* ------------------------------------------------------------------ *)

let jacobi_1d =
  {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i
  real(kind=8), dimension(n) :: u, unew
  do i = 2, n - 1
    unew(i) = 0.5d0 * (u(i - 1) + u(i + 1))
  end do
  print *, unew(2)
end program p
|}

let test_locations_threaded () =
  let m = lower jacobi_1d in
  let stores = Op.collect_ops (fun o -> o.Op.o_name = "fir.store") m in
  let located =
    List.filter_map (fun s -> Op.location s) stores
  in
  Alcotest.(check bool) "stores carry locations" true (located <> []);
  (* the stencil assignment is on line 8 of the source *)
  Alcotest.(check bool) "line 8 store" true
    (List.exists (fun (line, _) -> line = 8) located)

let test_locations_roundtrip () =
  let m = lower jacobi_1d in
  let printed = Printer.module_to_string m in
  Alcotest.(check bool) "loc printed" true (contains printed "loc(8:");
  let m2 = Parser.parse_module_exn printed in
  let stores = Op.collect_ops (fun o -> o.Op.o_name = "fir.store") m2 in
  Alcotest.(check bool) "loc survives parse" true
    (List.exists (fun s -> Op.location s <> None) stores);
  (* byte-stable through a second round *)
  Alcotest.(check string) "print stable" printed
    (Printer.module_to_string m2)

let test_verifier_location () =
  (* satellite: Verifier diagnostics carry the offending op's location *)
  let m = Op.create_module () in
  let bad =
    Op.create ~attrs:[ ("loc", Attr.Loc_a (3, 7)) ] "fir.store"
  in
  Op.append_to (Op.module_block m) bad;
  match Verifier.verify m with
  | Ok () -> Alcotest.fail "expected verification failure"
  | Error ds ->
    Alcotest.(check bool) "some diagnostic" true (ds <> []);
    let d = List.hd ds in
    Alcotest.(check (option (pair int int))) "loc" (Some (3, 7))
      d.Verifier.d_loc;
    Alcotest.(check bool) "to_string mentions loc" true
      (contains (Verifier.to_string d) "at 3:7")

(* ------------------------------------------------------------------ *)
(* Dependence classification                                           *)
(* ------------------------------------------------------------------ *)

let nests_of m =
  let out = ref [] in
  Op.walk
    (fun o ->
      if o.Op.o_name = "fir.store" then
        match Dep.nest_of_store o with
        | Some n -> out := n :: !out
        | None -> ())
    m;
  List.rev !out

let test_jacobi_parallel () =
  let m = lower jacobi_1d in
  match nests_of m with
  | [ nest ] ->
    Alcotest.(check int) "one loop" 1 (List.length nest.Dep.n_loops);
    (match Dep.classify nest with
    | Dep.Parallel -> ()
    | Dep.Carried _ -> Alcotest.fail "Jacobi flagged as carried"
    | Dep.May _ -> Alcotest.fail "Jacobi flagged as unknown")
  | l -> Alcotest.failf "expected 1 nest, got %d" (List.length l)

let gauss_seidel_1d =
  {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i
  real(kind=8), dimension(n) :: u
  do i = 2, n - 1
    u(i) = 0.5d0 * (u(i - 1) + u(i + 1))
  end do
  print *, u(2)
end program p
|}

let test_gauss_seidel_carried () =
  let m = lower gauss_seidel_1d in
  match nests_of m with
  | [ nest ] -> (
    match Dep.classify nest with
    | Dep.Carried deps ->
      Alcotest.(check int) "two carried deps" 2 (List.length deps);
      let kinds = List.map (fun d -> d.Dep.dep_kind) deps in
      Alcotest.(check bool) "flow dep (u(i-1))" true
        (List.mem Dep.Flow kinds);
      Alcotest.(check bool) "anti dep (u(i+1))" true
        (List.mem Dep.Anti kinds);
      List.iter
        (fun d ->
          Alcotest.(check bool) "definite" true d.Dep.dep_definite;
          Alcotest.(check int) "carried by the only loop" 0 d.Dep.dep_carrier;
          match d.Dep.dep_distances with
          | [ Some dd ] ->
            Alcotest.(check int) "|distance| = 1" 1 (abs dd)
          | _ -> Alcotest.fail "one known distance expected")
        deps
    | Dep.Parallel -> Alcotest.fail "in-place sweep classified parallel"
    | Dep.May _ -> Alcotest.fail "in-place sweep classified unknown")
  | l -> Alcotest.failf "expected 1 nest, got %d" (List.length l)

let test_scalar_fates () =
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i
  real(kind=8) :: c, t, acc
  real(kind=8), dimension(n) :: a, b
  c = 2.0d0
  acc = 0.0d0
  do i = 1, n
    t = a(i) * c
    b(i) = t
    acc = acc + t
  end do
  print *, b(1), acc
end program p
|}
  in
  let m = lower src in
  let loops = Op.collect_ops (fun o -> o.Op.o_name = "fir.do_loop") m in
  let scope = List.hd loops in
  (* find the scalar cells by their bindc names *)
  let cell name =
    let found = ref None in
    Op.walk
      (fun o ->
        if Fsc_fir.Fir.var_name o = Some name then found := Some (Op.result o))
      m;
    match !found with
    | Some v -> v
    | None -> Alcotest.failf "no alloca for %s" name
  in
  (match Dep.scalar_fate ~scope ~cell:(cell "c") with
  | Dep.Scalar_invariant -> ()
  | _ -> Alcotest.fail "read-only scalar should be invariant");
  (match Dep.scalar_fate ~scope ~cell:(cell "t") with
  | Dep.Scalar_private -> ()
  | _ -> Alcotest.fail "written-before-read scalar should be private");
  match Dep.scalar_fate ~scope ~cell:(cell "acc") with
  | Dep.Scalar_carried (st, ld) ->
    Alcotest.(check string) "store op" "fir.store" st.Op.o_name;
    Alcotest.(check string) "load op" "fir.load" ld.Op.o_name
  | _ -> Alcotest.fail "accumulator should be carried"

(* ------------------------------------------------------------------ *)
(* Bounds analysis                                                     *)
(* ------------------------------------------------------------------ *)

let test_bounds_affine_oob () =
  let m =
    lower
      {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    b(i) = a(i + 2)
  end do
  print *, b(1)
end program p
|}
  in
  match Bounds.check m with
  | [ d ] ->
    Alcotest.(check string) "code" "bounds" d.Diag.d_code;
    Alcotest.(check bool) "is error" true (d.Diag.d_severity = Diag.Error);
    Alcotest.(check bool) "has loc" true (d.Diag.d_loc <> None);
    Alcotest.(check bool) "names the array" true
      (contains d.Diag.d_message "'a'")
  | ds -> Alcotest.failf "expected 1 bounds error, got %d" (List.length ds)

let test_bounds_const_oob () =
  let m =
    lower
      {|
program p
  implicit none
  integer, parameter :: n = 8
  real(kind=8), dimension(n) :: a
  a(12) = 1.0d0
  print *, a(1)
end program p
|}
  in
  match Bounds.check m with
  | [ d ] ->
    Alcotest.(check string) "code" "bounds" d.Diag.d_code;
    Alcotest.(check bool) "mentions range" true
      (contains d.Diag.d_message "11")
  | ds -> Alcotest.failf "expected 1 bounds error, got %d" (List.length ds)

let test_bounds_conditional_not_flagged () =
  (* the access is out of range only in a branch whose guard we cannot
     evaluate — must NOT be reported (only provable violations) *)
  let m =
    lower
      {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    if (i < 7) then
      b(i) = a(i + 2)
    end if
  end do
  print *, b(1)
end program p
|}
  in
  Alcotest.(check int) "no provable violation" 0
    (List.length (Bounds.check m))

let test_bounds_in_range_clean () =
  let m = lower jacobi_1d in
  Alcotest.(check int) "clean" 0 (List.length (Bounds.check m))

(* ------------------------------------------------------------------ *)
(* Discovery rejection diagnostics: one snippet per reachable reason.  *)
(* Each must leave the loops untouched and record a located diagnostic *)
(* with the expected reason.                                           *)
(* ------------------------------------------------------------------ *)

let rejects_with_loc ?(expect_code = "stencil-reject") src expected =
  let m = lower src in
  let before_loops = count "fir.do_loop" m in
  let stats = Discovery.run ~log_rejects:false m in
  Alcotest.(check int) ("nothing found: " ^ expected) 0 stats.Discovery.found;
  Alcotest.(check int) "loops untouched" before_loops
    (count "fir.do_loop" m);
  match
    List.find_opt
      (fun (r : Discovery.reject) ->
        contains r.Discovery.rej_reason expected)
      stats.Discovery.rejected
  with
  | None ->
    Alcotest.failf "no rejection mentioning %S (got: %s)" expected
      (String.concat "; "
         (List.map
            (fun (r : Discovery.reject) -> r.Discovery.rej_reason)
            stats.Discovery.rejected))
  | Some r ->
    let d = r.Discovery.rej_diag in
    Alcotest.(check string)
      ("diag code for " ^ expected)
      expect_code d.Diag.d_code;
    Alcotest.(check bool)
      ("diag has source location for " ^ expected)
      true (d.Diag.d_loc <> None)

let test_reject_nonunit_step () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n, 2
    b(i) = a(i)
  end do
  print *, b(1)
end program p
|}
    "loop step 2 is not 1"

let test_reject_nonconst_bounds () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i, m
  real(kind=8), dimension(n) :: a, b
  m = n - 1
  do i = 1, m
    b(i) = a(i)
  end do
  print *, b(1)
end program p
|}
    "loop bounds are not compile-time constants"

let test_reject_free_block_argument () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i, j
  integer, dimension(n) :: c
  do j = 1, n
    do i = 1, n
      c(i) = j
    end do
  end do
  print *, c(1)
end program p
|}
    "free block argument in stencil expression"

let test_reject_transposed_read () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i, j
  real(kind=8), dimension(n, n) :: a, b
  do j = 1, n
    do i = 1, n
      b(i, j) = a(j, i)
    end do
  end do
  print *, b(1, 1)
end program p
|}
    "array read indexed by a different loop variable"

let test_reject_const_subscript_read () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    b(i) = a(i) - a(1)
  end do
  print *, b(1)
end program p
|}
    "constant subscript in array read"

let test_reject_nonaffine_read () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  integer, dimension(n) :: idx
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    b(idx(i)) = a(i)
  end do
  print *, b(1)
end program p
|}
    "non-affine subscript"

let test_reject_const_subscript_store () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    a(1) = b(i)
  end do
  print *, a(1)
end program p
|}
    "constant subscript in store"

let test_reject_repeated_iv () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i, j
  real(kind=8), dimension(n, n) :: a
  do j = 1, n
    do i = 1, n
      a(i, i) = 1.0d0
    end do
  end do
  print *, a(1, 1)
end program p
|}
    "the same loop variable indexes two dimensions"

let test_reject_store_outside_loop () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  real(kind=8), dimension(n) :: a
  a(2) = 1.0d0
  print *, a(2)
end program p
|}
    "store is not inside a loop"

let test_reject_scalar_private () =
  rejects_with_loc
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: t
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    t = a(i) * 2.0d0
    b(i) = t
  end do
  print *, b(1)
end program p
|}
    "written inside nest (privatisable temporary"

let test_reject_scalar_carried () =
  rejects_with_loc ~expect_code:"race"
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: acc
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    acc = acc + a(i)
    b(i) = acc
  end do
  print *, acc
end program p
|}
    "loop-carried dependence on scalar 'acc'"

(* ---- the strictly-more-precise rejections the dependence oracle adds:
   these were silently (mis)accepted by the scalar-heuristic-only
   discovery before the analysis library existed ---- *)

let test_reject_inplace_sweep () =
  rejects_with_loc ~expect_code:"race" gauss_seidel_1d
    "loop-carried flow (read-after-write) dependence on 'u'"

let test_reject_imperfect_nest () =
  rejects_with_loc ~expect_code:"race"
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i, j
  real(kind=8), dimension(n) :: a
  do j = 1, n
    do i = 1, n
      a(j) = a(j) * 2.0d0
    end do
  end do
  print *, a(1)
end program p
|}
    "an enclosing loop does not index the store"

let test_reject_cross_statement_race () =
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b, c
  do i = 2, n
    b(i) = a(i)
    c(i) = b(i - 1)
  end do
  print *, c(n)
end program p
|}
  in
  let m = lower src in
  let before_loops = count "fir.do_loop" m in
  let stats = Discovery.run ~log_rejects:false m in
  Alcotest.(check int) "nothing found" 0 stats.Discovery.found;
  Alcotest.(check int) "loops untouched" before_loops
    (count "fir.do_loop" m);
  Alcotest.(check bool) "race diagnostic on 'b'" true
    (List.exists
       (fun (r : Discovery.reject) ->
         r.Discovery.rej_diag.Diag.d_code = "race"
         && contains r.Discovery.rej_reason "'b'")
       stats.Discovery.rejected)

let test_reject_const_write_affine_read () =
  (* a(1) is written in the nest, a(i) is read: only one iteration
     conflicts, so it is a may-dependence — still rejected *)
  rejects_with_loc ~expect_code:"race"
    {|
program p
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8), dimension(n) :: a, b
  do i = 1, n
    a(1) = 0.0d0
    b(i) = a(i)
  end do
  print *, b(1)
end program p
|}
    "possible loop-carried dependence on 'a'"

(* decisions on clean stencils must not change: the Jacobi sweep is
   still discovered after the dependence gate *)
let test_accepts_jacobi () =
  let m = lower jacobi_1d in
  let stats = Discovery.run m in
  Alcotest.(check int) "one stencil" 1 stats.Discovery.found;
  Alcotest.(check int) "no rejects" 0 (List.length stats.Discovery.rejected)

(* ------------------------------------------------------------------ *)
(* check_source end-to-end                                             *)
(* ------------------------------------------------------------------ *)

let test_check_source_frontend_error () =
  match Check.check_source "program p\n  x === y\nend program p\n" with
  | Ok _ -> Alcotest.fail "expected a frontend error"
  | Error d ->
    Alcotest.(check string) "code" "frontend" d.Diag.d_code;
    Alcotest.(check bool) "located" true (d.Diag.d_loc <> None)

let test_check_source_gauss_seidel_fixture () =
  (* the end-to-end linter contract: the in-place Gauss-Seidel fixture
     is flagged with a file:line:col race warning, and --werror-style
     counting makes it a failure *)
  let ic = open_in "fixtures/gauss_seidel_inplace.f90" in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Check.check_source src with
  | Error d -> Alcotest.failf "fixture failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    let races =
      List.filter
        (fun d ->
          d.Diag.d_code = "race" && d.Diag.d_severity = Diag.Warning)
        result.Check.r_diags
    in
    Alcotest.(check bool) "race warnings present" true (races <> []);
    List.iter
      (fun d ->
        match d.Diag.d_loc with
        | Some l ->
          Alcotest.(check bool) "warning points at the sweep" true
            (l.Diag.l_line >= 15);
          Alcotest.(check bool) "has a conflicting-access note" true
            (d.Diag.d_notes <> [])
        | None -> Alcotest.fail "race warning without location")
      races;
    Alcotest.(check int) "no errors without werror" 0
      (Diag.error_count result.Check.r_diags);
    Alcotest.(check bool) "werror fails" true
      (Diag.error_count ~werror:true result.Check.r_diags > 0);
    Alcotest.(check int) "one carried nest" 1
      result.Check.r_summary.Check.ns_carried;
    (* init sweep stays parallel *)
    Alcotest.(check int) "one parallel nest" 1
      result.Check.r_summary.Check.ns_parallel

let test_check_source_laplace_clean () =
  (* a double-buffered 2-D Jacobi sweep in the style of examples/laplace.f90
     must come back completely clean *)
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i, j
  real(kind=8), dimension(n, n) :: u, unew
  do j = 1, n
    do i = 1, n
      u(i, j) = 0.0d0
      unew(i, j) = 0.0d0
    end do
  end do
  do j = 2, n - 1
    do i = 2, n - 1
      unew(i, j) = 0.25d0 * (u(i - 1, j) + u(i + 1, j) + u(i, j - 1) + u(i, j + 1))
    end do
  end do
  print *, unew(2, 2)
end program p
|}
  in
  match Check.check_source src with
  | Error d -> Alcotest.failf "laplace failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    Alcotest.(check int) "no errors" 0
      (Diag.error_count ~werror:true result.Check.r_diags);
    Alcotest.(check int) "no carried nests" 0
      result.Check.r_summary.Check.ns_carried;
    Alcotest.(check bool) "all nests parallel" true
      (result.Check.r_summary.Check.ns_parallel > 0)

(* ------------------------------------------------------------------ *)
(* Footprint lattice and lints                                         *)
(* ------------------------------------------------------------------ *)

module F = Fsc_analysis.Footprint
module Kc = Fsc_rt.Kernel_compile

let test_footprint_lattice () =
  (* join is the hull, meet the intersection, Top absorbs *)
  Alcotest.(check bool) "join hull" true
    (F.join_dim (F.range 1 4) (F.range 8 9) = F.range 1 9);
  Alcotest.(check bool) "join top" true
    (F.join_dim F.Top (F.range 1 2) = F.Top);
  Alcotest.(check bool) "meet overlap" true
    (F.meet_dim (F.range 1 6) (F.range 4 9) = Some (F.range 4 6));
  Alcotest.(check bool) "meet disjoint" true
    (F.meet_dim (F.range 1 3) (F.range 5 9) = None);
  Alcotest.(check bool) "meet top identity" true
    (F.meet_dim F.Top (F.range 2 3) = Some (F.range 2 3));
  Alcotest.(check bool) "range swaps descending" true
    (F.range 9 2 = F.range 2 9);
  Alcotest.(check bool) "contains" true (F.dim_contains (F.range 3 5) 4);
  Alcotest.(check bool) "not contains" false
    (F.dim_contains (F.range 3 5) 6);
  Alcotest.(check bool) "top contains" true (F.dim_contains F.Top 123);
  (* region level: disjoint in one dimension is disjoint overall *)
  Alcotest.(check bool) "regions intersect" true
    (F.regions_intersect
       [ F.range 1 5; F.range 1 5 ]
       [ F.range 5 9; F.range 0 1 ]);
  Alcotest.(check bool) "regions disjoint" false
    (F.regions_intersect
       [ F.range 1 5; F.range 1 5 ]
       [ F.range 6 9; F.range 0 9 ]);
  (* mismatched rank: missing dims behave as Top (sound, intersecting) *)
  Alcotest.(check bool) "rank mismatch intersects" true
    (F.regions_intersect [ F.range 1 2 ] [ F.range 1 2; F.range 5 6 ]);
  Alcotest.(check string) "render" "[1:12][?]"
    (F.region_to_string [ F.range 1 12; F.Top ])

let mk_loop level dim lb ub =
  { Kc.l_level = level; Kc.l_dim = dim; Kc.l_lb = lb; Kc.l_ub = ub;
    Kc.l_parallel = true }

let test_footprint_of_nest () =
  (* write b0[iv0+0][iv1+0], read b1[iv0-1..+1][3] over a 2-deep nest
     with loop ranges [1,13) x [2,10) *)
  let nest =
    { Kc.n_loops = [ mk_loop 0 0 1 13; mk_loop 1 1 2 10 ];
      Kc.n_stores =
        [ { Kc.st_buf = 0;
            Kc.st_index = [ Kc.Iv (0, 0); Kc.Iv (1, 0) ];
            Kc.st_expr =
              Kc.F_binary
                ( "arith.addf",
                  Kc.F_load (1, [ Kc.Iv (0, -1); Kc.Cst 3 ]),
                  Kc.F_load (1, [ Kc.Iv (0, 1); Kc.Cst 3 ]) ) } ];
      Kc.n_uses_iv = true; Kc.n_flops_per_cell = 1; Kc.n_loads_per_cell = 2;
      Kc.n_tile = [] }
  in
  let fp = F.of_nest nest in
  Alcotest.(check bool) "not empty" false fp.F.nf_empty;
  Alcotest.(check bool) "write region" true
    (fp.F.nf_writes = [ (0, [ F.range 1 12; F.range 2 9 ]) ]);
  Alcotest.(check bool) "read region joins both loads" true
    (fp.F.nf_reads = [ (1, [ F.range 0 13; F.range 3 3 ]) ]);
  (* an empty loop empties the whole nest *)
  let empty =
    F.of_nest { nest with Kc.n_loops = [ mk_loop 0 0 5 5; mk_loop 1 1 2 10 ] }
  in
  Alcotest.(check bool) "empty nest" true empty.F.nf_empty;
  Alcotest.(check bool) "empty nest has no accesses" true
    (empty.F.nf_reads = [] && empty.F.nf_writes = []);
  (* a subscript indexed by a loop level the nest does not carry is Top *)
  let stray =
    F.of_nest
      { nest with
        Kc.n_stores =
          [ { Kc.st_buf = 0;
              Kc.st_index = [ Kc.Iv (7, 0); Kc.Iv (1, 0) ];
              Kc.st_expr = Kc.F_const 0.0 } ] }
  in
  Alcotest.(check bool) "missing loop level widens to Top" true
    (stray.F.nf_writes = [ (0, [ F.Top; F.range 2 9 ]) ])

(* The must-write check behind skipped zero-fills and scatters: only a
   nest storing b0 at [Iv (l_d, 0)] over exactly [0, dims.(d)) in every
   dimension, with no load of b0 anywhere in the kernel, overwrites. *)
let test_footprint_overwrites () =
  let spec nests =
    { Kc.k_nests = nests; Kc.k_num_bufs = 2; k_num_scalars = 0 }
  in
  let nest ?(expr = Kc.F_load (1, [])) loops index =
    { Kc.n_loops = loops;
      Kc.n_stores =
        [ { Kc.st_buf = 0; Kc.st_index = index; Kc.st_expr = expr } ];
      Kc.n_uses_iv = false; Kc.n_flops_per_cell = 0; Kc.n_loads_per_cell = 1;
      Kc.n_tile = [] }
  in
  let check label expect ~dims nests =
    Alcotest.(check bool) label expect
      (F.overwrites (spec nests) ~buf:0 ~dims)
  in
  (* loops in Fortran order: the outermost level walks the last dim *)
  let box3 lo hi =
    [ mk_loop 0 2 lo (hi 2); mk_loop 1 1 lo (hi 1); mk_loop 2 0 lo (hi 0) ]
  in
  let iv3 = [ Kc.Iv (2, 0); Kc.Iv (1, 0); Kc.Iv (0, 0) ] in
  let d3 = [| 6; 7; 8 |] in
  check "3-D full box" true ~dims:d3 [ nest (box3 0 (Array.get d3)) iv3 ];
  check "3-D interior only" false ~dims:d3
    [ nest (box3 1 (fun d -> d3.(d) - 1)) iv3 ];
  check "3-D upper bound short by one" false ~dims:d3
    [ nest (box3 0 (fun d -> d3.(d) - 1)) iv3 ];
  check "3-D store at an offset" false ~dims:d3
    [ nest (box3 0 (Array.get d3))
        [ Kc.Iv (2, 0); Kc.Iv (1, 1); Kc.Iv (0, 0) ] ];
  check "3-D store at a constant plane" false ~dims:d3
    [ nest (box3 0 (Array.get d3)) [ Kc.Iv (2, 0); Kc.Iv (1, 0); Kc.Cst 0 ] ];
  check "3-D same nest reads the buffer" false ~dims:d3
    [ nest ~expr:(Kc.F_load (0, iv3)) (box3 0 (Array.get d3)) iv3 ];
  check "3-D later nest reads the buffer" false ~dims:d3
    [ nest (box3 0 (Array.get d3)) iv3;
      { (nest (box3 1 (fun d -> d3.(d) - 1)) iv3) with
        Kc.n_stores =
          [ { Kc.st_buf = 1; Kc.st_index = iv3;
              Kc.st_expr = Kc.F_load (0, iv3) } ] } ];
  check "3-D covering nest after a partial one" true ~dims:d3
    [ nest (box3 1 (fun d -> d3.(d) - 1)) iv3;
      nest (box3 0 (Array.get d3)) iv3 ];
  check "3-D extra loop level" false ~dims:d3
    [ nest (box3 0 (Array.get d3) @ [ mk_loop 3 0 0 2 ]) iv3 ];
  (* 2-D: the loops walk j (dim 1) then i (dim 0) *)
  let d2 = [| 5; 9 |] in
  let box2 = [ mk_loop 0 1 0 9; mk_loop 1 0 0 5 ] in
  let iv2 = [ Kc.Iv (1, 0); Kc.Iv (0, 0) ] in
  check "2-D full box" true ~dims:d2 [ nest box2 iv2 ];
  check "2-D interior only" false ~dims:d2
    [ nest [ mk_loop 0 1 1 8; mk_loop 1 0 1 4 ] iv2 ];
  check "2-D store at an offset" false ~dims:d2
    [ nest box2 [ Kc.Iv (1, -1); Kc.Iv (0, 0) ] ];
  check "2-D store at a constant index" false ~dims:d2
    [ nest box2 [ Kc.Cst 0; Kc.Iv (0, 0) ] ];
  check "2-D reads the buffer" false ~dims:d2
    [ nest ~expr:(Kc.F_load (0, [ Kc.Iv (1, 0); Kc.Iv (0, 1) ])) box2 iv2 ];
  (* transposed: each level claims the other dimension, so the store
     subscript's loop walks the wrong extent *)
  check "2-D transposed l_dim" false ~dims:d2
    [ nest [ mk_loop 0 0 0 9; mk_loop 1 1 0 5 ] iv2 ];
  check "2-D square transposed l_dim" false ~dims:[| 6; 6 |]
    [ nest [ mk_loop 0 0 0 6; mk_loop 1 1 0 6 ] iv2 ];
  check "2-D other buffer" false ~dims:d2
    [ { (nest box2 iv2) with
        Kc.n_stores =
          [ { Kc.st_buf = 1; Kc.st_index = iv2;
              Kc.st_expr = Kc.F_const 0.0 } ] } ]

let test_footprint_nonaffine_top_sound () =
  (* a non-affine subscript widens the write to Top at the field level:
     it may reach any read, so no dead-write claim survives — even
     though the only read is a single constant cell *)
  let src =
    {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i
  real(kind=8), dimension(n * n) :: a
  do i = 1, n
    a(i * i) = 1.0d0
  end do
  print *, a(4)
end program p
|}
  in
  (match Check.check_source src with
  | Error d -> Alcotest.failf "failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    Alcotest.(check bool) "no dead-write on non-affine store" true
      (List.for_all
         (fun d -> d.Diag.d_code <> "dead-write")
         result.Check.r_diags));
  (* a triangular loop has no constant iv range: its dimension must
     render as Top in the --footprints dump, not a fabricated range *)
  let tri =
    {|
program p
  implicit none
  integer, parameter :: n = 16
  integer :: i, j
  real(kind=8), dimension(n, n) :: a
  do j = 1, n
    do i = 1, j
      a(i, j) = 1.0d0
    end do
  end do
  print *, a(4, 4)
end program p
|}
  in
  match Check.check_source tri with
  | Error d -> Alcotest.failf "failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    let has_top =
      List.exists
        (fun fp ->
          List.exists
            (fun (_, r) -> List.mem F.Top r)
            (fp.Check.fp_reads @ fp.Check.fp_writes))
        result.Check.r_footprints
    in
    Alcotest.(check bool) "footprint dump shows Top" true has_top;
    Alcotest.(check bool) "triangular write is not dead" true
      (List.for_all
         (fun d -> d.Diag.d_code <> "dead-write")
         result.Check.r_diags)

let test_footprint_dead_write_lints () =
  (* interior reads of a, then a write to the k = 0 face: provably dead;
     s is written but never read *)
  let ic = open_in "fixtures/dead_write.f90" in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Check.check_source src with
  | Error d -> Alcotest.failf "fixture failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    let by_code c =
      List.filter (fun d -> d.Diag.d_code = c) result.Check.r_diags
    in
    (match by_code "dead-write" with
    | [ d ] ->
      Alcotest.(check bool) "dead-write names a and region" true
        (contains d.Diag.d_message "'a'"
        && contains d.Diag.d_message "[1:12][1:12][0:0]");
      Alcotest.(check bool) "dead-write is a warning" true
        (d.Diag.d_severity = Diag.Warning)
    | ds -> Alcotest.failf "expected 1 dead-write, got %d" (List.length ds));
    (match by_code "unread-field" with
    | [ d ] ->
      Alcotest.(check bool) "unread-field names s" true
        (contains d.Diag.d_message "'s'")
    | ds ->
      Alcotest.failf "expected 1 unread-field, got %d" (List.length ds))

let residual_probe_src =
  {|
program p
  implicit none
  integer, parameter :: n = 12, niter = 3
  integer :: i, j, k, iter
  real(kind=8), dimension(0:n+1, 0:n+1, 0:n+1) :: u, r
  do k = 0, n + 1
    do j = 0, n + 1
      do i = 0, n + 1
        u(i, j, k) = 0.01d0 * dble(i) + 0.02d0 * dble(j * k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do
  do iter = 1, niter
    do k = 1, n
      do j = 1, n
        do i = 1, n
          r(i, j, k) = u(i, j, k) - (u(i, j-1, k) + u(i, j+1, k) &
                     + u(i, j, k-1) + u(i, j, k+1)) / 4.0d0
        end do
      end do
    end do
    do k = 1, 1
      do j = 1, 1
        do i = 1, n
          u(i, j, k) = u(i, j, k) + 0.25d0 * r(i, j, k)
        end do
      end do
    end do
  end do
end program p
|}

let test_footprint_redundant_exchange () =
  (* the probe writes u only on the global edge j = k = 1, off every
     mirrored plane: the repeated exchange of u is redundant *)
  (match Check.check_source residual_probe_src with
  | Error d -> Alcotest.failf "failed to lower: %s" (Diag.render d)
  | Ok (_, result) -> (
    match
      List.filter
        (fun d -> d.Diag.d_code = "redundant-exchange")
        result.Check.r_diags
    with
    | [ d ] ->
      Alcotest.(check bool) "note severity" true
        (d.Diag.d_severity = Diag.Note);
      Alcotest.(check bool) "names u" true (contains d.Diag.d_message "'u'");
      (* notes must not trip --werror gates *)
      Alcotest.(check int) "werror-neutral" 0
        (Diag.error_count ~werror:true result.Check.r_diags)
    | ds ->
      Alcotest.failf "expected 1 redundant-exchange, got %d"
        (List.length ds)));
  (* laplace-style: the copy-back rewrites u across mirrored planes every
     iteration, so its exchange is genuinely needed — no note *)
  let laplace_src =
    {|
program p
  implicit none
  integer, parameter :: n = 12, niter = 2
  integer :: i, j, k, iter
  real(kind=8), dimension(0:n+1, 0:n+1, 0:n+1) :: u, unew
  do k = 0, n + 1
    do j = 0, n + 1
      do i = 0, n + 1
        u(i, j, k) = 0.01d0 * dble(i + j + k)
        unew(i, j, k) = 0.0d0
      end do
    end do
  end do
  do iter = 1, niter
    do k = 1, n
      do j = 1, n
        do i = 1, n
          unew(i, j, k) = (u(i, j-1, k) + u(i, j+1, k) &
                        + u(i, j, k-1) + u(i, j, k+1)) / 4.0d0
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = unew(i, j, k)
        end do
      end do
    end do
  end do
end program p
|}
  in
  match Check.check_source laplace_src with
  | Error d -> Alcotest.failf "failed to lower: %s" (Diag.render d)
  | Ok (_, result) ->
    Alcotest.(check bool) "no redundant-exchange on live exchange" true
      (List.for_all
         (fun d -> d.Diag.d_code <> "redundant-exchange")
         result.Check.r_diags)

let test_diag_dedupe_sort () =
  let d1 = Diag.warning ~loc:(Diag.loc 5 1) ~code:"dead-write" "first" in
  let d2 = Diag.warning ~loc:(Diag.loc 5 1) ~code:"dead-write" "repeat" in
  let d3 = Diag.warning ~loc:(Diag.loc 5 1) ~code:"race" "other code" in
  let d4 = Diag.warning ~loc:(Diag.loc 2 9) ~code:"dead-write" "other loc" in
  let d5 = Diag.error ~code:"pipeline" "no loc" in
  (match Diag.dedupe [ d1; d2; d3; d4; d5 ] with
  | [ a; b; c; d ] ->
    Alcotest.(check string) "keeps first occurrence" "first"
      a.Diag.d_message;
    Alcotest.(check string) "same loc other code kept" "other code"
      b.Diag.d_message;
    Alcotest.(check string) "same code other loc kept" "other loc"
      c.Diag.d_message;
    Alcotest.(check string) "locless kept" "no loc" d.Diag.d_message
  | ds -> Alcotest.failf "expected 4 after dedupe, got %d" (List.length ds));
  match Diag.sort_by_loc [ d1; d4; d5 ] with
  | [ a; b; c ] ->
    Alcotest.(check string) "locless first" "no loc" a.Diag.d_message;
    Alcotest.(check string) "then 2:9" "other loc" b.Diag.d_message;
    Alcotest.(check string) "then 5:1" "first" c.Diag.d_message
  | ds -> Alcotest.failf "expected 3 after sort, got %d" (List.length ds)

let () =
  Alcotest.run "analysis"
    [ ( "diag",
        [ Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "json" `Quick test_diag_json;
          Alcotest.test_case "error count" `Quick test_diag_error_count ] );
      ( "locations",
        [ Alcotest.test_case "threaded onto FIR" `Quick
            test_locations_threaded;
          Alcotest.test_case "printer/parser round-trip" `Quick
            test_locations_roundtrip;
          Alcotest.test_case "verifier diagnostics" `Quick
            test_verifier_location ] );
      ( "dependence",
        [ Alcotest.test_case "jacobi parallel" `Quick test_jacobi_parallel;
          Alcotest.test_case "gauss-seidel carried" `Quick
            test_gauss_seidel_carried;
          Alcotest.test_case "scalar fates" `Quick test_scalar_fates ] );
      ( "bounds",
        [ Alcotest.test_case "affine overrun" `Quick test_bounds_affine_oob;
          Alcotest.test_case "constant overrun" `Quick test_bounds_const_oob;
          Alcotest.test_case "conditional not flagged" `Quick
            test_bounds_conditional_not_flagged;
          Alcotest.test_case "in-range clean" `Quick
            test_bounds_in_range_clean ] );
      ( "discovery rejections",
        [ Alcotest.test_case "non-unit step" `Quick test_reject_nonunit_step;
          Alcotest.test_case "non-const bounds" `Quick
            test_reject_nonconst_bounds;
          Alcotest.test_case "free block argument" `Quick
            test_reject_free_block_argument;
          Alcotest.test_case "transposed read" `Quick
            test_reject_transposed_read;
          Alcotest.test_case "const subscript read" `Quick
            test_reject_const_subscript_read;
          Alcotest.test_case "non-affine read" `Quick
            test_reject_nonaffine_read;
          Alcotest.test_case "const subscript store" `Quick
            test_reject_const_subscript_store;
          Alcotest.test_case "repeated loop variable" `Quick
            test_reject_repeated_iv;
          Alcotest.test_case "store outside loop" `Quick
            test_reject_store_outside_loop;
          Alcotest.test_case "scalar private" `Quick
            test_reject_scalar_private;
          Alcotest.test_case "scalar carried" `Quick
            test_reject_scalar_carried ] );
      ( "dependence gate",
        [ Alcotest.test_case "in-place sweep" `Quick
            test_reject_inplace_sweep;
          Alcotest.test_case "imperfect nest" `Quick
            test_reject_imperfect_nest;
          Alcotest.test_case "cross-statement race" `Quick
            test_reject_cross_statement_race;
          Alcotest.test_case "const write, affine read" `Quick
            test_reject_const_write_affine_read;
          Alcotest.test_case "jacobi still accepted" `Quick
            test_accepts_jacobi ] );
      ( "check",
        [ Alcotest.test_case "frontend error" `Quick
            test_check_source_frontend_error;
          Alcotest.test_case "gauss-seidel fixture" `Quick
            test_check_source_gauss_seidel_fixture;
          Alcotest.test_case "laplace clean" `Quick
            test_check_source_laplace_clean ] );
      ( "footprint",
        [ Alcotest.test_case "interval lattice" `Quick
            test_footprint_lattice;
          Alcotest.test_case "of_nest regions" `Quick
            test_footprint_of_nest;
          Alcotest.test_case "non-affine is Top and sound" `Quick
            test_footprint_nonaffine_top_sound;
          Alcotest.test_case "overwrites must-write check" `Quick
            test_footprint_overwrites;
          Alcotest.test_case "dead-write fixture" `Quick
            test_footprint_dead_write_lints;
          Alcotest.test_case "redundant exchange" `Quick
            test_footprint_redundant_exchange;
          Alcotest.test_case "diag dedupe and sort" `Quick
            test_diag_dedupe_sort ] );
    ]
