(* Flat constant lattice per register.  A register absent from a
   [Reached] map holds its entry value (0, or [Nac] for a parameter);
   maps are kept canonical by never storing that value, so two states
   are equal exactly when their maps are. *)
type value = Const of int | Nac

type state = Unreached | Reached of value Mir.Reg.Map.t

let equal_value a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Nac, Nac -> true
  | _ -> false

let join_value a b = if equal_value a b then a else Nac

let analyze (fn : Mir.Func.t) =
  let params = Mir.Reg.Set.of_list fn.Mir.Func.params in
  let entry r = if Mir.Reg.Set.mem r params then Nac else Const 0 in
  let get m r =
    match Mir.Reg.Map.find_opt r m with Some v -> v | None -> entry r
  in
  let set r v m =
    if equal_value v (entry r) then Mir.Reg.Map.remove r m
    else Mir.Reg.Map.add r v m
  in
  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Reached a, Reached b ->
      Reached
        (Mir.Reg.Map.merge
           (fun r x y ->
             let value = Option.value ~default:(entry r) in
             let v = join_value (value x) (value y) in
             if equal_value v (entry r) then None else Some v)
           a b)
  in
  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | Reached a, Reached b -> Mir.Reg.Map.equal equal_value a b
    | _ -> false
  in
  (* only [Mov r, #c] makes a constant that crosses a block boundary *)
  let def m insn =
    List.fold_left
      (fun m r ->
        let v =
          match insn with
          | Mir.Insn.Mov (r', Mir.Operand.Imm c) when Mir.Reg.equal r r' ->
            Const c
          | _ -> Nac
        in
        set r v m)
      m (Mir.Insn.defs insn)
  in
  let transfer (b : Mir.Block.t) = function
    | Unreached -> Unreached
    | Reached m -> Reached (List.fold_left def m b.Mir.Block.insns)
  in
  (* The delay slot defines on the edge: on every edge for a plain slot,
     only on the taken edge of a two-way branch for an annulled one (on
     the fall edge the old values survive). *)
  let edge (src : Mir.Block.t) dst st =
    let term = src.Mir.Block.term in
    match (st, term.Mir.Block.delay) with
    | Unreached, _ | _, None -> st
    | Reached m, Some insn -> (
      let strong = Reached (def m insn) in
      if not term.Mir.Block.annul then strong
      else
        match term.Mir.Block.kind with
        | Mir.Block.Br (_, taken, fall) when not (String.equal taken fall) ->
          if String.equal dst taken then strong else st
        | _ -> join strong st)
  in
  let res =
    Mir.Dataflow.solve
      {
        Mir.Dataflow.direction = Mir.Dataflow.Forward;
        boundary = Reached Mir.Reg.Map.empty;
        bottom = Unreached;
        join;
        equal;
        transfer;
        edge = Some edge;
        widen = None;
        widen_after = 0;
      }
      fn
  in
  fun label ->
    match Mir.Dataflow.fact_in res label with
    | Unreached -> fun _ -> None (* no path reaches the block *)
    | Reached m -> (
      fun r -> match get m r with Const c -> Some c | Nac -> None)

let run_func (fn : Mir.Func.t) =
  let const_in = analyze fn in
  let changed = ref false in
  List.iter
    (fun (b : Mir.Block.t) ->
      let entry_const = const_in b.Mir.Block.label in
      (* local environment over the block body; a register not locally
         redefined keeps its entry fact *)
      let env = Hashtbl.create 8 in
      let lookup r =
        match Hashtbl.find_opt env r with
        | Some v -> v
        | None -> entry_const r
      in
      let op_const = function
        | Mir.Operand.Imm n -> Some n
        | Mir.Operand.Reg r -> lookup r
      in
      let subst op =
        match op with
        | Mir.Operand.Reg r -> (
          match lookup r with
          | Some c ->
            changed := true;
            Mir.Operand.Imm c
          | None -> op)
        | Mir.Operand.Imm _ -> op
      in
      let advance insn =
        match insn with
        | Mir.Insn.Mov (r, o) -> Hashtbl.replace env r (op_const o)
        | Mir.Insn.Unop (u, r, o) ->
          Hashtbl.replace env r
            (Option.map (Mir.Insn.eval_unop u) (op_const o))
        | Mir.Insn.Binop (bop, r, x, y) ->
          Hashtbl.replace env r
            (match (op_const x, op_const y) with
            | Some a, Some c
              when not
                     ((bop = Mir.Insn.Div || bop = Mir.Insn.Rem) && c = 0) ->
              Some (Mir.Insn.eval_binop bop a c)
            | _ -> None)
        | Mir.Insn.Load (r, _, _) | Mir.Insn.Call (Some r, _, _) ->
          Hashtbl.replace env r None
        | Mir.Insn.Store _ | Mir.Insn.Cmp _ | Mir.Insn.Call (None, _, _)
        | Mir.Insn.Nop | Mir.Insn.Profile_range _ | Mir.Insn.Profile_comb _ ->
          ()
      in
      let rewrite insn =
        let insn' =
          match insn with
          | Mir.Insn.Mov (r, o) -> Mir.Insn.Mov (r, subst o)
          | Mir.Insn.Unop (u, r, o) -> Mir.Insn.Unop (u, r, subst o)
          | Mir.Insn.Binop (bop, r, x, y) ->
            Mir.Insn.Binop (bop, r, subst x, subst y)
          | Mir.Insn.Load (r, sym, idx) -> Mir.Insn.Load (r, sym, subst idx)
          | Mir.Insn.Store (sym, idx, v) ->
            Mir.Insn.Store (sym, subst idx, subst v)
          | Mir.Insn.Call (dst, f, args) ->
            Mir.Insn.Call (dst, f, List.map subst args)
          | (Mir.Insn.Cmp _ | Mir.Insn.Nop | Mir.Insn.Profile_range _
            | Mir.Insn.Profile_comb _) as i ->
            i
        in
        advance insn';
        insn'
      in
      b.Mir.Block.insns <- List.map rewrite b.Mir.Block.insns)
    fn.Mir.Func.blocks;
  !changed
