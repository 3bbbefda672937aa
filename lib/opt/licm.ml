module RS = Mir.Reg.Set

let loop_insns fn (loop : Mir.Loops.loop) =
  List.concat_map
    (fun label ->
      match Mir.Func.find_block_opt fn label with
      | Some b ->
        let delay =
          match b.Mir.Block.term.Mir.Block.delay with
          | Some i -> [ i ]
          | None -> []
        in
        b.Mir.Block.insns @ delay
      | None -> [])
    loop.Mir.Loops.body

let hoistable_kind ~loop_has_effects insn =
  match insn with
  | Mir.Insn.Mov _ | Mir.Insn.Unop _ -> true
  | Mir.Insn.Binop ((Mir.Insn.Div | Mir.Insn.Rem), _, _, _) -> false
  | Mir.Insn.Binop _ -> true
  | Mir.Insn.Load _ -> not loop_has_effects
  | Mir.Insn.Store _ | Mir.Insn.Cmp _ | Mir.Insn.Call _ | Mir.Insn.Nop
  | Mir.Insn.Profile_range _ | Mir.Insn.Profile_comb _ ->
    false

let hoist_from_loop fn (loop : Mir.Loops.loop) =
  let insns = loop_insns fn loop in
  let loop_has_effects =
    List.exists
      (function
        | Mir.Insn.Store _ | Mir.Insn.Call _ -> true
        | _ -> false)
      insns
  in
  (* registers defined in the loop, with definition counts *)
  let def_count = Hashtbl.create 32 in
  List.iter
    (fun i ->
      List.iter
        (fun r ->
          Hashtbl.replace def_count r
            (1 + Option.value ~default:0 (Hashtbl.find_opt def_count r)))
        (Mir.Insn.defs i))
    insns;
  let defined_in_loop r = Hashtbl.mem def_count r in
  let live = Mir.Liveness.compute fn in
  let in_loop l = List.mem l loop.Mir.Loops.body in
  (* registers live on entry to any block just outside the loop *)
  let exit_live =
    List.fold_left
      (fun acc label ->
        match Mir.Func.find_block_opt fn label with
        | Some b ->
          List.fold_left
            (fun acc s ->
              if in_loop s then acc
              else RS.union acc (Mir.Liveness.live_in live s))
            acc (Mir.Func.successors fn b)
        | None -> acc)
      RS.empty loop.Mir.Loops.body
  in
  let header_live = Mir.Liveness.live_in live loop.Mir.Loops.header in
  let can_hoist insn =
    hoistable_kind ~loop_has_effects insn
    && (match Mir.Insn.defs insn with
       | [ dst ] ->
         Hashtbl.find_opt def_count dst = Some 1
         && (not (RS.mem dst header_live))
         && not (RS.mem dst exit_live)
       | _ -> false)
    && List.for_all (fun r -> not (defined_in_loop r)) (Mir.Insn.uses insn)
  in
  let hoisted = ref [] in
  List.iter
    (fun label ->
      match Mir.Func.find_block_opt fn label with
      | Some b ->
        let keep, move = List.partition (fun i -> not (can_hoist i)) b.Mir.Block.insns in
        if move <> [] then begin
          b.Mir.Block.insns <- keep;
          hoisted := !hoisted @ move;
          (* the moved registers are now defined outside; forget them so a
             second definition in another block is not also hoisted *)
          List.iter
            (fun i -> List.iter (fun r -> Hashtbl.remove def_count r) (Mir.Insn.defs i))
            move
        end
      | None -> ())
    loop.Mir.Loops.body;
  (match !hoisted with
  | [] -> ()
  | moved ->
    let ph = Mir.Loops.preheader fn loop in
    let phb = Mir.Func.find_block fn ph in
    phb.Mir.Block.insns <- phb.Mir.Block.insns @ moved);
  List.length !hoisted

let run_func (fn : Mir.Func.t) =
  let total = ref 0 in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds < 10 do
    incr rounds;
    let n =
      List.fold_left
        (fun acc loop -> acc + hoist_from_loop fn loop)
        0 (Mir.Loops.loops (Mir.Loops.analyze fn))
    in
    total := !total + n;
    continue_ := n > 0
  done;
  !total

let run (p : Mir.Program.t) =
  List.fold_left (fun acc fn -> acc + run_func fn) 0 p.Mir.Program.funcs
