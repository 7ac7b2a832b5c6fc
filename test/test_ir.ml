(* Core IR infrastructure tests: values/ops/blocks/regions, use lists,
   linked-list surgery, cloning, builder, verifier, dialect contexts. *)

open Fsc_ir

let () = Fsc_dialects.Registry.init ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let mk_const ?(ty = Types.I64) v =
  Op.create "arith.constant" ~results:[ ty ]
    ~attrs:[ ("value", Attr.Int_a v) ]

let test_create_op () =
  let c = mk_const 42 in
  check_int "no operands" 0 (Op.num_operands c);
  check_int "one result" 1 (Op.num_results c);
  check_str "name" "arith.constant" c.Op.o_name;
  check_int "attr" 42 (Op.int_attr c "value")

let test_use_lists () =
  let a = mk_const 1 and b = mk_const 2 in
  let add =
    Op.create "arith.addi"
      ~operands:[ Op.result a; Op.result b ]
      ~results:[ Types.I64 ]
  in
  check_int "a used once" 1 (Op.num_uses (Op.result a));
  check_int "b used once" 1 (Op.num_uses (Op.result b));
  (* replace b with a in the add *)
  Op.set_operand add 1 (Op.result a);
  check_int "a used twice" 2 (Op.num_uses (Op.result a));
  check_int "b unused" 0 (Op.num_uses (Op.result b))

let test_replace_all_uses () =
  let a = mk_const 1 and b = mk_const 2 in
  let u1 =
    Op.create "arith.addi"
      ~operands:[ Op.result a; Op.result a ]
      ~results:[ Types.I64 ]
  in
  Op.replace_all_uses_with (Op.result a) (Op.result b);
  check_int "a unused" 0 (Op.num_uses (Op.result a));
  check_int "b used twice" 2 (Op.num_uses (Op.result b));
  check "operands now b" true (Op.operand ~index:0 u1 == Op.result b)

let test_block_surgery () =
  let blk = Op.create_block () in
  let a = mk_const 1 and b = mk_const 2 and c = mk_const 3 in
  Op.append_to blk a;
  Op.append_to blk c;
  Op.insert_before ~anchor:c b;
  let names =
    List.map (fun o -> Op.int_attr o "value") (Op.block_ops blk)
  in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] names;
  Op.unlink b;
  check_int "two left" 2 (List.length (Op.block_ops blk));
  Op.insert_after ~anchor:a b;
  let names =
    List.map (fun o -> Op.int_attr o "value") (Op.block_ops blk)
  in
  Alcotest.(check (list int)) "reordered" [ 1; 2; 3 ] names;
  (* erase requires no uses *)
  Op.erase b;
  check_int "erased" 2 (List.length (Op.block_ops blk))

let test_erase_with_uses_fails () =
  let a = mk_const 1 in
  let _use =
    Op.create "arith.addi"
      ~operands:[ Op.result a; Op.result a ]
      ~results:[ Types.I64 ]
  in
  Alcotest.check_raises "erase with uses"
    (Invalid_argument "Op.erase: result of arith.constant still has uses")
    (fun () -> Op.erase a)

let test_hoist_chain () =
  let blk = Op.create_block () in
  let anchor = mk_const 0 in
  let a = mk_const 1 in
  let dep =
    Op.create "arith.addi"
      ~operands:[ Op.result a; Op.result a ]
      ~results:[ Types.I64 ]
  in
  Op.append_to blk anchor;
  Op.append_to blk a;
  Op.append_to blk dep;
  Op.hoist_chain_before ~anchor (Op.result dep);
  let order = List.map (fun o -> o.Op.o_name) (Op.block_ops blk) in
  Alcotest.(check (list string)) "hoisted with deps"
    [ "arith.constant"; "arith.addi"; "arith.constant" ]
    order

let test_clone () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let b = Builder.at_end blk in
  let x = Fsc_dialects.Arith.constant_int b 7 in
  let y = Fsc_dialects.Arith.addi b x x in
  ignore y;
  let m2 = Op.clone m in
  Verifier.verify_exn m2;
  let consts = Op.collect_ops (fun o -> o.Op.o_name = "arith.constant") m2 in
  check_int "clone has const" 1 (List.length consts);
  (* mutation of clone must not affect the original *)
  Op.set_attr (List.hd consts) "value" (Attr.Int_a 9);
  let orig_consts =
    Op.collect_ops (fun o -> o.Op.o_name = "arith.constant") m
  in
  check_int "original untouched" 7 (Op.int_attr (List.hd orig_consts) "value")

let test_walk_collect () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let b = Builder.at_end blk in
  let lb = Fsc_dialects.Arith.constant_index b 0 in
  let ub = Fsc_dialects.Arith.constant_index b 4 in
  let step = Fsc_dialects.Arith.constant_index b 1 in
  ignore
    (Fsc_dialects.Scf.for_ b ~lb ~ub ~step (fun inner _iv _ ->
         ignore (Fsc_dialects.Arith.constant_int inner 1);
         []));
  let consts = Op.collect_ops (fun o -> o.Op.o_name = "arith.constant") m in
  check_int "walks into regions" 4 (List.length consts)

(* [Op.walk] reads each op's successor before visiting it: erasing the
   visited op keeps the walk going, erasing the successor raises rather
   than silently skipping the rest of the block. *)
let test_walk_guard () =
  let block_of_consts n =
    let m = Op.create_module () in
    let blk = Op.module_block m in
    let ops = List.init n (fun i -> mk_const i) in
    List.iter (Op.append_to blk) ops;
    (m, ops)
  in
  let m, _ = block_of_consts 3 in
  let seen = ref 0 in
  Op.walk_inner
    (fun op ->
      incr seen;
      Op.erase op)
    m;
  check_int "erasing the visited op visits every op" 3 !seen;
  check_int "and erases them all" 0
    (List.length (Op.block_ops (Op.module_block m)));
  let m, ops = block_of_consts 3 in
  let second = List.nth ops 1 in
  let raised =
    match
      Op.walk_inner
        (fun op -> if op == List.hd ops then Op.erase second)
        m
    with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check "erasing the successor raises" true raised

let test_verifier_dominance () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let a = mk_const 1 in
  let add =
    Op.create "arith.addi"
      ~operands:[ Op.result a; Op.result a ]
      ~results:[ Types.I64 ]
  in
  (* add placed BEFORE its operand definition *)
  Op.append_to blk add;
  Op.append_to blk a;
  check "dominance violation detected" true
    (Result.is_error (Verifier.verify m))

let test_verifier_op_structure () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  (* arith.addi with one operand *)
  let a = mk_const 1 in
  Op.append_to blk a;
  let bad =
    Op.create "arith.addi" ~operands:[ Op.result a ] ~results:[ Types.I64 ]
  in
  Op.append_to blk bad;
  check "operand count checked" true (Result.is_error (Verifier.verify m))

let test_dialect_contexts () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let b = Builder.at_end blk in
  (* an scf op is fine for mlir-opt but not for flang *)
  let lb = Fsc_dialects.Arith.constant_index b 0 in
  ignore
    (Fsc_dialects.Scf.for_ b ~lb ~ub:lb ~step:lb (fun _ _ _ -> []));
  check "mlir-opt accepts scf" true
    (Result.is_ok
       (Verifier.verify_in_context (Dialect.mlir_opt_context ()) m));
  check "flang rejects scf" true
    (Result.is_error
       (Verifier.verify_in_context (Dialect.flang_context ()) m));
  (* FIR is the mirror image *)
  let m2 = Op.create_module () in
  let b2 = Builder.at_end (Op.module_block m2) in
  ignore (Fsc_fir.Fir.alloca b2 Types.F64);
  check "flang accepts fir" true
    (Result.is_ok
       (Verifier.verify_in_context (Dialect.flang_context ()) m2));
  check "mlir-opt rejects fir" true
    (Result.is_error
       (Verifier.verify_in_context (Dialect.mlir_opt_context ()) m2))

let test_terminator_position () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let ret = Op.create "func.return" in
  Op.append_to blk ret;
  Op.append_to blk (mk_const 1);
  check "terminator must be last" true (Result.is_error (Verifier.verify m))

let test_pass_manager () =
  let m = Op.create_module () in
  let count = ref 0 in
  let p1 = Pass.create "p1" (fun _ -> incr count) in
  let p2 = Pass.create "p2" (fun _ -> incr count) in
  let stats = Pass.run_pipeline [ p1; p2 ] m in
  check_int "both ran" 2 !count;
  check_int "two stats" 2 (List.length stats);
  (* failing pass is wrapped with its name *)
  let boom = Pass.create "boom" (fun _ -> failwith "nope") in
  check "pipeline error carries pass name" true
    (match Pass.run_pipeline [ boom ] m with
    | exception Pass.Pipeline_error ("boom", _, _) -> true
    | _ -> false)

let test_rewriter_fixpoint () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let b = Builder.at_end blk in
  let x = Fsc_dialects.Arith.constant_int b 2 in
  let y = Fsc_dialects.Arith.constant_int b 3 in
  let s = Fsc_dialects.Arith.addi b x y in
  let s2 = Fsc_dialects.Arith.addi b s s in
  ignore s2;
  let changed =
    Rewrite.apply_greedily Fsc_transforms.Canonicalize.patterns m
  in
  check "changed" true changed;
  (* everything folds to the constant 10 *)
  let consts = Op.collect_ops (fun o -> o.Op.o_name = "arith.constant") m in
  check "folded to 10" true
    (List.exists (fun c -> Op.int_attr c "value" = 10) consts);
  let adds = Op.collect_ops (fun o -> o.Op.o_name = "arith.addi") m in
  check_int "no adds left" 0 (List.length adds);
  (* DCE then sweeps the now-unused constants *)
  ignore (Fsc_transforms.Dce.run m);
  check_int "dce removes dead constants" 0
    (List.length (Op.collect_ops (fun o -> o.Op.o_name = "arith.constant") m))

(* A pattern set that never reaches fixpoint must surface as the typed
   [Rewrite.Nontermination] (which drivers render as a located
   diagnostic naming the pass), not an anonymous [Failure]. *)
let test_rewriter_nontermination () =
  let m = Op.create_module () in
  let blk = Op.module_block m in
  let b = Builder.at_end blk in
  ignore (Fsc_dialects.Arith.constant_int b 1);
  let churn =
    Rewrite.pattern ~match_name:"arith.constant" "churn" (fun rw op ->
        (* "rewrite" to an identical op forever *)
        Rewrite.notify_changed rw op;
        true)
  in
  check "nontermination backstop raises the typed exception" true
    (match Rewrite.apply_greedily ~max_iterations:50 [ churn ] m with
    | exception Rewrite.Nontermination -> true
    | _ -> false)

let suite =
  [ Alcotest.test_case "create op" `Quick test_create_op;
    Alcotest.test_case "use lists" `Quick test_use_lists;
    Alcotest.test_case "replace all uses" `Quick test_replace_all_uses;
    Alcotest.test_case "block surgery" `Quick test_block_surgery;
    Alcotest.test_case "erase with uses fails" `Quick
      test_erase_with_uses_fails;
    Alcotest.test_case "hoist chain" `Quick test_hoist_chain;
    Alcotest.test_case "clone" `Quick test_clone;
    Alcotest.test_case "walk collects nested" `Quick test_walk_collect;
    Alcotest.test_case "walk guards its successor" `Quick test_walk_guard;
    Alcotest.test_case "verifier dominance" `Quick test_verifier_dominance;
    Alcotest.test_case "verifier op structure" `Quick
      test_verifier_op_structure;
    Alcotest.test_case "dialect registration contexts" `Quick
      test_dialect_contexts;
    Alcotest.test_case "terminator position" `Quick test_terminator_position;
    Alcotest.test_case "pass manager" `Quick test_pass_manager;
    Alcotest.test_case "rewriter fixpoint" `Quick test_rewriter_fixpoint;
    Alcotest.test_case "rewriter nontermination backstop" `Quick
      test_rewriter_nontermination ]

let () = Alcotest.run "ir" [ ("ir", suite) ]
