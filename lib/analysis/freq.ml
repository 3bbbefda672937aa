(* Wu–Larus block/edge frequency propagation from heuristic branch
   probabilities: process loops innermost-first, give each header a
   cyclic probability (the mass its back edges return per entry) and
   turn it into a capped multiplier, then one final pass from the entry
   yields absolute frequencies with bfreq(entry) = 1.  Every successor
   distribution sums to 1 and every multiplier is capped, so the
   frequencies are finite and non-negative by construction, and flow is
   conserved at every join the propagation reached. *)

type t = {
  probs : (string, (string * float) list) Hashtbl.t;
  bfreq : (string, float) Hashtbl.t;
  visited : (string, unit) Hashtbl.t;  (* reached by the final pass *)
}

let loop_cap = 64.
(* a header's multiplier 1/(1 - cyclic_prob) saturates here, the
   paper-style bound that keeps deep nests finite *)

let max_cyclic = 1. -. (1. /. loop_cap)

(* the successor probability distribution of one block: heuristic split
   for two-way branches, uniform over jump-table/switch edges (summed
   per label for duplicate targets), deterministic singletons for the
   rest *)
let successor_probs fn heur (b : Mir.Block.t) =
  let uniform targets =
    match targets with
    | [] -> []
    | _ ->
      let share = 1. /. float_of_int (List.length targets) in
      let acc = Hashtbl.create 4 in
      let order = ref [] in
      List.iter
        (fun l ->
          if not (Hashtbl.mem acc l) then order := l :: !order;
          Hashtbl.replace acc l
            (share +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
        targets;
      List.rev_map (fun l -> (l, Hashtbl.find acc l)) !order
  in
  match b.Mir.Block.term.Mir.Block.kind with
  | Mir.Block.Ret _ -> []
  | Mir.Block.Jmp l -> [ (l, 1.) ]
  | Mir.Block.Br (_, taken, fall) when String.equal taken fall -> [ (taken, 1.) ]
  | Mir.Block.Br (_, taken, fall) ->
    let p = Heur.taken_prob heur b.Mir.Block.label in
    [ (taken, p); (fall, 1. -. p) ]
  | Mir.Block.Switch (_, cases, default) ->
    uniform (List.map snd cases @ [ default ])
  | Mir.Block.Jtab (_, id) ->
    uniform (Array.to_list (Mir.Func.jtab fn id))

let analyze ?heur ?loops fn =
  let loops_t = match loops with Some l -> l | None -> Mir.Loops.analyze fn in
  let heur =
    match heur with Some h -> h | None -> Heur.analyze ~loops:loops_t fn
  in
  let reachable = Mir.Func.reachable fn in
  let probs = Hashtbl.create 64 in
  let preds = Hashtbl.create 64 in
  List.iter
    (fun (b : Mir.Block.t) ->
      if Hashtbl.mem reachable b.Mir.Block.label then begin
        let ps = successor_probs fn heur b in
        Hashtbl.replace probs b.Mir.Block.label ps;
        List.iter
          (fun (s, _) ->
            Hashtbl.replace preds s
              (Option.value ~default:[] (Hashtbl.find_opt preds s)
              @ [ b.Mir.Block.label ]))
          ps
      end)
    fn.Mir.Func.blocks;
  let prob src dst =
    match Hashtbl.find_opt probs src with
    | Some ps -> Option.value ~default:0. (List.assoc_opt dst ps)
    | None -> 0.
  in
  let back src dst = Mir.Loops.is_back_edge loops_t ~src ~dst in
  (* per-entry probability mass each back edge carries home; refined by
     the inner-loop passes before an outer pass consumes it *)
  let back_prob = Hashtbl.create 8 in
  Hashtbl.iter
    (fun src ps ->
      List.iter
        (fun (dst, p) -> if back src dst then Hashtbl.replace back_prob (src, dst) p)
        ps)
    probs;
  let cyclic_of pbs label =
    let c =
      List.fold_left
        (fun acc p ->
          if back p label then
            acc +. Option.value ~default:0. (Hashtbl.find_opt back_prob (p, label))
          else acc)
        0. pbs
    in
    Float.min c max_cyclic
  in
  let run_pass ~is_final head =
    let visited = Hashtbl.create 64 in
    let bfreq = Hashtbl.create 64 in
    let rec process label =
      if (not (Hashtbl.mem visited label)) && Hashtbl.mem probs label then begin
        let pbs = Option.value ~default:[] (Hashtbl.find_opt preds label) in
        let is_head = String.equal label head in
        let ready =
          is_head
          || List.for_all
               (fun p -> Hashtbl.mem visited p || back p label)
               pbs
        in
        if ready then begin
          let incoming =
            if is_head then 1.
            else
              List.fold_left
                (fun acc p ->
                  if back p label then acc
                  else
                    acc
                    +. Option.value ~default:0. (Hashtbl.find_opt bfreq p)
                       *. prob p label)
                0. pbs
          in
          let f =
            (* the pass head enters with mass 1; only the final pass
               applies its own multiplier (an entry block that is also a
               loop header re-enters itself, which no outer pass would
               otherwise account for) *)
            if is_head && not is_final then incoming
            else incoming /. (1. -. cyclic_of pbs label)
          in
          Hashtbl.replace bfreq label f;
          Hashtbl.replace visited label ();
          let ss = Option.value ~default:[] (Hashtbl.find_opt probs label) in
          (* refresh the mass this pass's back edges carry to its head *)
          List.iter
            (fun (s, p) ->
              if String.equal s head && back label s then
                Hashtbl.replace back_prob (label, s) (p *. f))
            ss;
          List.iter (fun (s, _) -> if not (back label s) then process s) ss
        end
      end
    in
    process head;
    (bfreq, visited)
  in
  List.iter
    (fun (l : Mir.Loops.loop) -> ignore (run_pass ~is_final:false l.Mir.Loops.header))
    (Mir.Loops.innermost_first loops_t);
  let bfreq, visited =
    match fn.Mir.Func.blocks with
    | [] -> (Hashtbl.create 1, Hashtbl.create 1)
    | entry :: _ -> run_pass ~is_final:true entry.Mir.Block.label
  in
  { probs; bfreq; visited }

let block_freq t label =
  Option.value ~default:0. (Hashtbl.find_opt t.bfreq label)

let succ_probs t label =
  Option.value ~default:[] (Hashtbl.find_opt t.probs label)

let edge_freq t ~src ~dst =
  block_freq t src
  *. Option.value ~default:0. (List.assoc_opt dst (succ_probs t src))

let reached t label = Hashtbl.mem t.visited label
