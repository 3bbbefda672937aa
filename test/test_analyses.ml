(* Dominators, natural loops, CSE and LICM. *)

open Helpers

let r n = Mir.Reg.of_int n
let reg n = Mir.Operand.Reg (r n)
let imm n = Mir.Operand.Imm n

(* entry -> head; head -> (body | exit); body -> head *)
let loop_fn ?(body_insns = []) () =
  let fn = Mir.Func.make ~name:"main" ~params:[] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Mov (r 1, imm 0); Mir.Insn.Mov (r 2, imm 7) ]
       (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"head"
       [ Mir.Insn.Cmp (reg 1, imm 10) ]
       (Mir.Block.Br (Mir.Cond.Ge, "exit", "body")));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"body"
       (body_insns @ [ Mir.Insn.Binop (Mir.Insn.Add, r 1, reg 1, imm 1) ])
       (Mir.Block.Jmp "head"));
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"exit" [] (Mir.Block.Ret (Some (reg 1))));
  fn

(* ------------------------------------------------------------------ *)
(* Dominators                                                          *)
(* ------------------------------------------------------------------ *)

let test_dom_chain () =
  let fn = loop_fn () in
  let dom = Mir.Dom.compute fn in
  check_bool "entry dominates everything" true
    (List.for_all
       (fun (b : Mir.Block.t) -> Mir.Dom.dominates dom "entry" b.Mir.Block.label)
       fn.Mir.Func.blocks);
  check_bool "head dominates body" true (Mir.Dom.dominates dom "head" "body");
  check_bool "body does not dominate head" false
    (Mir.Dom.dominates dom "body" "head");
  check_bool "reflexive" true (Mir.Dom.dominates dom "body" "body");
  Alcotest.(check (option string)) "idom of body" (Some "head")
    (Mir.Dom.idom dom "body");
  Alcotest.(check (option string)) "idom of entry" None (Mir.Dom.idom dom "entry")

let test_dom_diamond_join () =
  let fn = Mir.Func.make ~name:"d" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Cmp (reg 0, imm 0) ]
       (Mir.Block.Br (Mir.Cond.Eq, "t", "f")));
  Mir.Func.add_block fn (Mir.Block.make ~label:"t" [] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"f" [] (Mir.Block.Jmp "join"));
  Mir.Func.add_block fn (Mir.Block.make ~label:"join" [] (Mir.Block.Ret None));
  let dom = Mir.Dom.compute fn in
  Alcotest.(check (option string)) "join's idom skips the arms" (Some "entry")
    (Mir.Dom.idom dom "join");
  Alcotest.(check (list string)) "dominator chain of join" [ "join"; "entry" ]
    (Mir.Dom.dominators dom "join");
  check_bool "t does not dominate join" false (Mir.Dom.dominates dom "t" "join")

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)
(* ------------------------------------------------------------------ *)

let find_loops fn = Mir.Loops.loops (Mir.Loops.analyze fn)

let test_loop_detection () =
  let fn = loop_fn () in
  match find_loops fn with
  | [ l ] ->
    check_output "header" "head" l.Mir.Loops.header;
    Alcotest.(check (list string)) "body" [ "head"; "body" ] l.Mir.Loops.body;
    Alcotest.(check (list string)) "back edges" [ "body" ] l.Mir.Loops.back_edges
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_loop_nested () =
  let prog =
    compile
      "int main() { int i; int j; int s = 0; for (i = 0; i < 3; i++) for (j = \
       0; j < 3; j++) s++; print_int(s); return 0; }"
  in
  let fn = Mir.Program.find_func prog "main" in
  match find_loops fn with
  | [ outer; inner ] ->
    check_int "outer depth" 1 outer.Mir.Loops.depth;
    check_int "inner depth" 2 inner.Mir.Loops.depth;
    Alcotest.(check (option string)) "inner's parent"
      (Some outer.Mir.Loops.header) inner.Mir.Loops.parent;
    check_bool "inner body nested" true
      (List.for_all (Mir.Loops.in_body outer) inner.Mir.Loops.body)
  | ls -> Alcotest.failf "expected two loops, got %d" (List.length ls)

let test_preheader_reuse () =
  let fn = loop_fn () in
  let l = List.hd (find_loops fn) in
  (* entry already falls uniquely into head *)
  check_output "existing block reused" "entry" (Mir.Loops.preheader fn l)

let test_preheader_created () =
  let fn = loop_fn () in
  (* give the header a second outside predecessor *)
  Mir.Func.add_block fn (Mir.Block.make ~label:"side" [] (Mir.Block.Jmp "head"));
  (Mir.Func.find_block fn "entry").Mir.Block.term <-
    Mir.Block.term (Mir.Block.Br (Mir.Cond.Eq, "side", "head"));
  (Mir.Func.find_block fn "entry").Mir.Block.insns <-
    (Mir.Func.find_block fn "entry").Mir.Block.insns
    @ [ Mir.Insn.Cmp (reg 1, imm 0) ];
  let l = List.hd (find_loops fn) in
  let ph = Mir.Loops.preheader fn l in
  check_bool "fresh block" true (not (String.equal ph "entry"));
  (* both outside predecessors now reach head only through ph *)
  let preds = Mir.Func.predecessors fn in
  Alcotest.(check (list string)) "head's preds"
    (List.sort compare [ "body"; ph ])
    (List.sort compare (Hashtbl.find preds "head"))

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cse_binop () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0; r 1 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 0, reg 1);
         Mir.Insn.Binop (Mir.Insn.Add, r 3, reg 0, reg 1);
         Mir.Insn.Binop (Mir.Insn.Mul, r 4, reg 2, reg 3) ]
       (Mir.Block.Ret (Some (reg 4))));
  check_bool "changed" true (Mopt.Cse.run_func fn);
  match (Mir.Func.entry fn).Mir.Block.insns with
  | [ _; Mir.Insn.Mov (_, Mir.Operand.Reg src); _ ] ->
    check_int "second add becomes a move of the first" 2 (Mir.Reg.to_int src)
  | insns ->
    Alcotest.failf "unexpected: %s"
      (String.concat "; " (List.map Mir.Insn.show insns))

let test_cse_killed_by_redef () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Binop (Mir.Insn.Add, r 2, reg 0, imm 1);
         Mir.Insn.Binop (Mir.Insn.Add, r 0, reg 0, imm 5);
         Mir.Insn.Binop (Mir.Insn.Add, r 3, reg 0, imm 1) ]
       (Mir.Block.Ret (Some (reg 3))));
  check_bool "no rewrite across the operand's redefinition" false
    (Mopt.Cse.run_func fn)

let test_cse_loads () =
  let fn = Mir.Func.make ~name:"f" ~params:[ r 0 ] in
  Mir.Func.add_block fn
    (Mir.Block.make ~label:"entry"
       [ Mir.Insn.Load (r 1, "g", reg 0);
         Mir.Insn.Load (r 2, "g", reg 0);
         Mir.Insn.Store ("g", reg 0, imm 1);
         Mir.Insn.Load (r 3, "g", reg 0);
         Mir.Insn.Binop (Mir.Insn.Add, r 4, reg 2, reg 3) ]
       (Mir.Block.Ret (Some (reg 4))));
  check_bool "changed" true (Mopt.Cse.run_func fn);
  let insns = (Mir.Func.entry fn).Mir.Block.insns in
  (match List.nth insns 1 with
  | Mir.Insn.Mov (_, Mir.Operand.Reg src) ->
    check_int "second load forwarded" 1 (Mir.Reg.to_int src)
  | i -> Alcotest.failf "expected a move, got %s" (Mir.Insn.show i));
  match List.nth insns 3 with
  | Mir.Insn.Load _ -> () (* the store killed availability *)
  | i -> Alcotest.failf "load after store must remain, got %s" (Mir.Insn.show i)

let test_cse_behaviour () =
  (* semantics preserved on a source with visible redundancy *)
  check_output "same result" "30 30"
    (run_src
       "int a[4]; int main() { a[2] = 15; int x = a[2] + a[2]; print_int(x); \
        putchar(' '); int y = a[2] + a[2]; print_int(y); return 0; }")

(* ------------------------------------------------------------------ *)
(* LICM                                                                *)
(* ------------------------------------------------------------------ *)

let test_licm_hoists_invariant () =
  (* r3 = r2 * 3 recomputed every iteration with loop-invariant r2 *)
  let fn =
    loop_fn ~body_insns:[ Mir.Insn.Binop (Mir.Insn.Mul, r 3, reg 2, imm 3) ] ()
  in
  let p = Mir.Program.make () in
  Mir.Program.add_func p fn;
  let before = (Sim.Machine.run p ~input:"").Sim.Machine.counters.Sim.Counters.insns in
  let hoisted = Mopt.Licm.run_func fn in
  check_int "one instruction hoisted" 1 hoisted;
  Mir.Validate.check p;
  let after = (Sim.Machine.run p ~input:"").Sim.Machine.counters.Sim.Counters.insns in
  check_bool "dynamic count drops" true (after < before);
  (* the multiply landed outside the loop *)
  let body = Mir.Func.find_block fn "body" in
  check_bool "body no longer multiplies" true
    (not
       (List.exists
          (function Mir.Insn.Binop (Mir.Insn.Mul, _, _, _) -> true | _ -> false)
          body.Mir.Block.insns))

let test_licm_skips_variant () =
  (* r3 depends on the induction variable: must stay *)
  let fn =
    loop_fn ~body_insns:[ Mir.Insn.Binop (Mir.Insn.Mul, r 3, reg 1, imm 3) ] ()
  in
  check_int "nothing hoisted" 0 (Mopt.Licm.run_func fn)

let test_licm_skips_live_out () =
  (* the hoisted register is read after the loop: zero-trip executions
     would observe the wrong value *)
  let fn =
    loop_fn ~body_insns:[ Mir.Insn.Binop (Mir.Insn.Mul, r 4, reg 2, imm 3) ] ()
  in
  (Mir.Func.find_block fn "exit").Mir.Block.term <-
    Mir.Block.term (Mir.Block.Ret (Some (reg 4)));
  (* r4 must be defined on the zero-trip path too for a valid program *)
  (Mir.Func.find_block fn "entry").Mir.Block.insns <-
    (Mir.Func.find_block fn "entry").Mir.Block.insns
    @ [ Mir.Insn.Mov (r 4, imm 0) ];
  check_int "nothing hoisted" 0 (Mopt.Licm.run_func fn)

let test_licm_loads_blocked_by_stores () =
  let fn =
    loop_fn
      ~body_insns:
        [ Mir.Insn.Load (r 3, "g", imm 0);
          Mir.Insn.Store ("g", imm 0, reg 3) ]
      ()
  in
  check_int "loads stay when the loop stores" 0 (Mopt.Licm.run_func fn)

let test_licm_hoists_pure_load () =
  let fn = loop_fn ~body_insns:[ Mir.Insn.Load (r 3, "g", imm 0) ] () in
  check_int "load hoisted from store-free loop" 1 (Mopt.Licm.run_func fn)

let test_licm_behavioural () =
  (* a source-level invariant expression inside a loop; outputs equal and
     instruction counts improve through the full pipeline *)
  let src =
    "int g = 21;\n\
     int main() { int i; int s = 0; int c = getchar();\n\
     for (i = 0; i < 50; i++) { s = s + (g * 2 + c); }\n\
     print_int(s); return 0; }"
  in
  check_output "value correct" (string_of_int (50 * ((21 * 2) + 65)))
    (run_src ~input:"A" src)

let test_licm_chain_hoists_over_rounds () =
  let fn =
    loop_fn
      ~body_insns:
        [ Mir.Insn.Binop (Mir.Insn.Add, r 3, reg 2, imm 1);
          Mir.Insn.Binop (Mir.Insn.Mul, r 4, reg 3, imm 2) ]
      ()
  in
  check_int "dependent chain fully hoisted" 2 (Mopt.Licm.run_func fn)

let suite =
  [
    case "dom: loop chain" test_dom_chain;
    case "dom: diamond join" test_dom_diamond_join;
    case "loops: while shape" test_loop_detection;
    case "loops: nesting" test_loop_nested;
    case "loops: preheader reuse" test_preheader_reuse;
    case "loops: preheader creation" test_preheader_created;
    case "cse: redundant binop" test_cse_binop;
    case "cse: operand redefinition kills" test_cse_killed_by_redef;
    case "cse: loads and stores" test_cse_loads;
    case "cse: behaviour preserved" test_cse_behaviour;
    case "licm: hoists invariant computation" test_licm_hoists_invariant;
    case "licm: keeps induction-dependent code" test_licm_skips_variant;
    case "licm: respects live-out registers" test_licm_skips_live_out;
    case "licm: loops with stores keep loads" test_licm_loads_blocked_by_stores;
    case "licm: hoists loads from pure loops" test_licm_hoists_pure_load;
    case "licm: behaviour preserved" test_licm_behavioural;
    case "licm: dependent chains hoist over rounds" test_licm_chain_hoists_over_rounds;
  ]
