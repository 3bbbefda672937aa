(* Static branch-probability heuristics in the Ball–Larus / Wu–Larus
   style, adapted to MIR's condition-code machine.  Each heuristic
   contributes one piece of evidence — a probability that the branch's
   taken edge is taken — and the pieces are fused by Dempster–Shafer
   evidence combination (Wu–Larus Eq. 1), with 0.5 the neutral
   element.  The fused probabilities feed [Freq] and, through
   [Reorder.Profiles.of_static], the whole reorder pipeline. *)

type evidence = {
  ev_heur : string;  (* stable kebab-case heuristic name *)
  ev_taken : float;  (* P(taken edge) under this heuristic alone *)
}

type t = {
  table : (string, evidence list) Hashtbl.t;  (* per Br block label *)
}

(* per-heuristic taken-edge probabilities: the literature's measured hit
   rates on whole-program suites (Ball–Larus Table 4, Wu–Larus
   Table 1), unit-tested in isolation in test_static *)
let p_loop_branch = 0.88  (* a back edge is taken *)
let p_loop_exit = 0.20    (* an edge leaving the innermost loop is taken *)
let p_opcode = 0.16       (* v = c / v < 0 / v <= 0 succeeds *)
let p_guard = 0.22        (* the edge into a trap-guarded block is taken *)
let p_call = 0.22         (* the edge into a calling block is taken *)
let p_return = 0.28       (* the edge into a returning block is taken *)
let p_store = 0.45        (* the edge into a storing block is taken *)

(* Dempster–Shafer combination for a two-hypothesis frame *)
let combine p1 p2 =
  let d = (p1 *. p2) +. ((1. -. p1) *. (1. -. p2)) in
  if d <= 0. then 0.5 else p1 *. p2 /. d

let fuse evs = List.fold_left (fun p ev -> combine p ev.ev_taken) 0.5 evs

(* the compare whose condition codes the terminator consumes: the last
   [Cmp] of the block, provided no [Call] follows it (a callee may
   re-set the codes); cc-reuse blocks without their own compare yield
   nothing and skip the opcode evidence *)
let own_cmp (b : Mir.Block.t) =
  let rec scan = function
    | Mir.Insn.Cmp (a, c) :: _ -> Some (a, c)
    | Mir.Insn.Call _ :: _ -> None
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (List.rev b.Mir.Block.insns)

let block_has fn label pred =
  match Mir.Func.find_block_opt fn label with
  | Some b -> List.exists pred b.Mir.Block.insns
  | None -> false

let block_returns fn label =
  match Mir.Func.find_block_opt fn label with
  | Some b -> (
    match b.Mir.Block.term.Mir.Block.kind with
    | Mir.Block.Ret _ -> true
    | _ -> false)
  | None -> false

let is_trapping = function
  | Mir.Insn.Binop ((Mir.Insn.Div | Mir.Insn.Rem), _, _, d) -> (
    (* a constant nonzero divisor cannot trap; anything else may *)
    match d with Mir.Operand.Imm k -> k = 0 | Mir.Operand.Reg _ -> true)
  | _ -> false

let is_call = function Mir.Insn.Call _ -> true | _ -> false
let is_store = function Mir.Insn.Store _ -> true | _ -> false

(* apply a successor-property heuristic: evidence only when exactly one
   of the two edges triggers (both or neither discriminates nothing) *)
let succ_evidence ~name ~p ~taken_hit ~fall_hit =
  match (taken_hit, fall_hit) with
  | true, false -> Some { ev_heur = name; ev_taken = p }
  | false, true -> Some { ev_heur = name; ev_taken = 1. -. p }
  | _ -> None

let branch_evidence fn loops post (b : Mir.Block.t) cond taken fall =
  let label = b.Mir.Block.label in
  let postdominates succ = Mir.Dom.dominates post succ label in
  let back dst = Mir.Loops.is_back_edge loops ~src:label ~dst in
  let collect = ref [] in
  let add ev = collect := ev :: !collect in
  (* loop branch: a back edge is taken (paper's most reliable signal) *)
  (match
     succ_evidence ~name:"loop-branch" ~p:p_loop_branch
       ~taken_hit:(back taken) ~fall_hit:(back fall)
   with
  | Some ev -> add ev
  | None ->
    (* loop exit: an edge leaving the innermost enclosing loop is
       avoided; only when neither edge is a back edge (back edges are
       already decided above, and stronger) *)
    if not (back taken || back fall) then (
      match Mir.Loops.innermost loops label with
      | Some l -> (
        let leaves dst = not (Mir.Loops.in_body l dst) in
        match
          succ_evidence ~name:"loop-exit" ~p:p_loop_exit
            ~taken_hit:(leaves taken) ~fall_hit:(leaves fall)
        with
        | Some ev -> add ev
        | None -> ())
      | None -> ()));
  (* opcode: normalize the compare to [v cond' c] (honouring swapped
     operands) and predict equality / negative tests to fail *)
  (match own_cmp b with
  | Some (a, c) -> (
    let normalized =
      match (a, c) with
      | Mir.Operand.Reg _, Mir.Operand.Imm k -> Some (cond, Some k)
      | Mir.Operand.Imm k, Mir.Operand.Reg _ -> Some (Mir.Cond.swap cond, Some k)
      | Mir.Operand.Reg _, Mir.Operand.Reg _ -> Some (cond, None)
      | Mir.Operand.Imm _, Mir.Operand.Imm _ -> None
    in
    match normalized with
    | Some (c', k) -> (
      let ev p = add { ev_heur = "opcode"; ev_taken = p } in
      match (c', k) with
      | Mir.Cond.Eq, _ -> ev p_opcode
      | Mir.Cond.Ne, _ -> ev (1. -. p_opcode)
      | (Mir.Cond.Lt | Mir.Cond.Le), Some 0 -> ev p_opcode
      | (Mir.Cond.Gt | Mir.Cond.Ge), Some 0 -> ev (1. -. p_opcode)
      | _ -> ())
    | None -> ())
  | None -> ());
  (* successor-property heuristics, each guarded by postdomination: an
     edge into a block every path crosses anyway predicts nothing *)
  let succ_prop name p pred =
    let hit dst = block_has fn dst pred && not (postdominates dst) in
    match succ_evidence ~name ~p ~taken_hit:(hit taken) ~fall_hit:(hit fall) with
    | Some ev -> add ev
    | None -> ()
  in
  succ_prop "guard" p_guard is_trapping;
  succ_prop "call" p_call is_call;
  succ_prop "store" p_store is_store;
  (* return: a successor that immediately returns is avoided *)
  (let ret dst = block_returns fn dst && not (postdominates dst) in
   match
     succ_evidence ~name:"return" ~p:p_return ~taken_hit:(ret taken)
       ~fall_hit:(ret fall)
   with
  | Some ev -> add ev
  | None -> ());
  List.rev !collect

let analyze ?loops ?post fn =
  let loops = match loops with Some l -> l | None -> Mir.Loops.analyze fn in
  let post = match post with Some p -> p | None -> Mir.Dom.compute_post fn in
  let table = Hashtbl.create 32 in
  Mir.Func.iter_blocks fn (fun b ->
      match b.Mir.Block.term.Mir.Block.kind with
      | Mir.Block.Br (cond, taken, fall) when not (String.equal taken fall) ->
        Hashtbl.replace table b.Mir.Block.label
          (branch_evidence fn loops post b cond taken fall)
      | _ -> ());
  { table }

let evidence t label =
  Option.value ~default:[] (Hashtbl.find_opt t.table label)

let taken_prob t label =
  match Hashtbl.find_opt t.table label with
  | Some evs -> fuse evs
  | None -> 0.5
