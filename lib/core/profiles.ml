type counts_view = {
  item_counts : int array;
  default_counts : (Range.t * int) list;
  total : int;
}

(* the profile table's rows: every range of the sequence sorted by lo,
   remembering where each came from *)
type row = {
  row_range : Range.t;
  row_origin : [ `Item of int | `Default of int ];
}

let rows (seq : Detect.t) =
  let explicit =
    List.mapi
      (fun i (it : Detect.item) -> { row_range = it.Detect.range; row_origin = `Item i })
      seq.Detect.items
  in
  let defaults =
    List.mapi
      (fun j r -> { row_range = r; row_origin = `Default j })
      (Detect.default_ranges seq)
  in
  List.sort
    (fun a b -> Range.compare a.row_range b.row_range)
    (explicit @ defaults)

let insert_profile_insn fn (seq : Detect.t) =
  let head = Mir.Func.find_block fn seq.Detect.head in
  (* splice the probe immediately before the head's last compare — the
     one the sequence branches on — which facts-admitted heads may
     follow with further (compare-free) instructions *)
  let rec splice = function
    | (Mir.Insn.Cmp _ as cmp) :: rev_pre ->
      List.rev_append rev_pre
        [ Mir.Insn.Profile_range (seq.Detect.seq_id, seq.Detect.var); cmp ]
    | i :: rest -> (splice rest) @ [ i ]
    | [] ->
      invalid_arg
        (Printf.sprintf "Profiles.instrument: head %s has no compare"
           seq.Detect.head)
  in
  head.Mir.Block.insns <- splice (List.rev head.Mir.Block.insns)

let instrument (p : Mir.Program.t) (seqs : Detect.t list) =
  let table = Sim.Profile.make () in
  List.iter
    (fun (seq : Detect.t) ->
      let rs = rows seq in
      let bounds =
        Array.of_list
          (List.map (fun r -> (Range.lo r.row_range, Range.hi r.row_range)) rs)
      in
      ignore (Sim.Profile.register_range_seq table seq.Detect.seq_id bounds);
      let fn = Mir.Program.find_func p seq.Detect.func_name in
      insert_profile_insn fn seq)
    seqs;
  table

let counts table (seq : Detect.t) =
  match Sim.Profile.find_range_seq table seq.Detect.seq_id with
  | None ->
    invalid_arg
      (Printf.sprintf "Profiles.counts: sequence %d not registered"
         seq.Detect.seq_id)
  | Some prof ->
    let rs = rows seq in
    let item_counts = Array.make (List.length seq.Detect.items) 0 in
    let defaults = ref [] in
    List.iteri
      (fun idx row ->
        let count = prof.Sim.Profile.counts.(idx) in
        match row.row_origin with
        | `Item i -> item_counts.(i) <- count
        | `Default _ -> defaults := (row.row_range, count) :: !defaults)
      rs;
    {
      item_counts;
      default_counts = List.rev !defaults;
      total = prof.Sim.Profile.executions;
    }

(* --- static profile synthesis ------------------------------------------ *)

(* counts per unit of predicted head frequency; three decimal digits of
   probability resolution is plenty for ranking orderings, and keeps
   counts comfortably inside the int range even under deep loop nests *)
let static_scale = 1000

(* clamp predicted block frequencies before scaling into counts *)
let max_static_freq = 1e6

(* the branch variable's assumed domain when splitting mass over a
   sequence's ranges: bytes plus EOF.  Range tests overwhelmingly come
   from character and small-token dispatch, and a uniform prior over
   this window is the switch-arm analogue of Wu–Larus's uniform
   successor split — rows entirely outside it (the unbounded default
   tails) keep a sliver so no registered range is predicted dead. *)
let domain_lo = -1
let domain_hi = 255
let outside_weight = 0.125

let row_weight r =
  let lo = max (Range.lo r) domain_lo and hi = min (Range.hi r) domain_hi in
  if hi < lo then outside_weight else float_of_int (hi - lo + 1)

(* probability that one range condition exits to its own target, given
   control entered its first block: a probability-mass walk over the
   item's blocks (two for Form 4) under the predicted successor
   distributions.  Mass on edges to the item's target accumulates as
   exit mass; mass into the item's other block carries on; everything
   else continues past the condition. *)
let item_exit_prob freq (it : Detect.item) =
  match it.Detect.item_blocks with
  | [] -> 0.
  | first :: _ ->
    let mass = Hashtbl.create 4 in
    Hashtbl.replace mass first 1.;
    let exit = ref 0. in
    List.iter
      (fun label ->
        let m = Option.value ~default:0. (Hashtbl.find_opt mass label) in
        if m > 0. then
          List.iter
            (fun (s, p) ->
              if String.equal s it.Detect.target then exit := !exit +. (m *. p)
              else if
                List.exists (String.equal s) it.Detect.item_blocks
                && not (String.equal s label)
              then
                Hashtbl.replace mass s
                  ((m *. p) +. Option.value ~default:0. (Hashtbl.find_opt mass s)))
            (Analysis.Freq.succ_probs freq label))
      it.Detect.item_blocks;
    Float.min 1. !exit

(* chained walk distribution: every explicit item's exit probability
   under the {!Analysis.Heur} branch probabilities, residual mass split
   evenly over the default rows *)
let walk_probs freq (seq : Detect.t) rs =
  let items = Array.of_list seq.Detect.items in
  let item_prob = Array.make (Array.length items) 0. in
  let reach = ref 1. in
  Array.iteri
    (fun i it ->
      let pe = item_exit_prob freq it in
      item_prob.(i) <- !reach *. pe;
      reach := !reach *. (1. -. pe))
    items;
  let n_defaults =
    List.length
      (List.filter
         (fun r -> match r.row_origin with `Default _ -> true | _ -> false)
         rs)
  in
  let default_share =
    if n_defaults = 0 then 0. else !reach /. float_of_int n_defaults
  in
  List.map
    (fun row ->
      match row.row_origin with
      | `Item i -> item_prob.(i)
      | `Default _ -> default_share)
    rs

(* width-prior distribution: each row in proportion to how much of the
   assumed variable domain it covers *)
let width_probs rs =
  let weights = List.map (fun row -> row_weight row.row_range) rs in
  let wsum = List.fold_left ( +. ) 0. weights in
  List.map (fun w -> if wsum > 0. then w /. wsum else 0.) weights

let fill_static ~scale freq (seq : Detect.t) (prof : Sim.Profile.range_seq) =
  let head_freq =
    Float.min max_static_freq (Analysis.Freq.block_freq freq seq.Detect.head)
  in
  let rs = rows seq in
  (* two independent static signals, combined by normalized geometric
     mean: the heuristic walk knows about surrounding control flow
     (loop exits, guards), the width prior knows that a test covering
     most of the domain fires more often than a single-value test;
     the geometric mean keeps a row hot only when neither signal calls
     it cold *)
  let raw =
    List.map2
      (fun pw pv -> sqrt (pw *. pv))
      (walk_probs freq seq rs) (width_probs rs)
  in
  let rsum = List.fold_left ( +. ) 0. raw in
  let probs = List.map (fun p -> if rsum > 0. then p /. rsum else 0.) raw in
  let budget = float_of_int scale *. head_freq in
  let total = ref 0 in
  List.iteri
    (fun idx p ->
      let c = max 0 (int_of_float (Float.round (budget *. p))) in
      prof.Sim.Profile.counts.(idx) <- c;
      total := !total + c)
    probs;
  prof.Sim.Profile.executions <- !total

let add_static ?(scale = static_scale) (p : Mir.Program.t) (seqs : Detect.t list)
    table =
  let by_func = Hashtbl.create 8 in
  List.iter
    (fun (seq : Detect.t) ->
      Hashtbl.replace by_func seq.Detect.func_name
        (Option.value ~default:[] (Hashtbl.find_opt by_func seq.Detect.func_name)
        @ [ seq ]))
    seqs;
  List.iter
    (fun (fn : Mir.Func.t) ->
      match Hashtbl.find_opt by_func fn.Mir.Func.name with
      | None | Some [] -> ()
      | Some fn_seqs ->
        (* one analysis pass serves every sequence of the function *)
        let loops = Mir.Loops.analyze fn in
        let heur = Analysis.Heur.analyze ~loops fn in
        let freq = Analysis.Freq.analyze ~heur ~loops fn in
        List.iter
          (fun (seq : Detect.t) ->
            match Sim.Profile.find_range_seq table seq.Detect.seq_id with
            | None -> ()
            | Some prof ->
              (* measured counts always win: only sequences training
                 never exercised are filled from the prediction *)
              if prof.Sim.Profile.executions = 0 then
                fill_static ~scale freq seq prof)
          fn_seqs)
    p.Mir.Program.funcs

let register (table : Sim.Profile.t) (seq : Detect.t) =
  let rs = rows seq in
  let bounds =
    Array.of_list
      (List.map (fun r -> (Range.lo r.row_range, Range.hi r.row_range)) rs)
  in
  ignore (Sim.Profile.register_range_seq table seq.Detect.seq_id bounds)

let of_static ?scale (p : Mir.Program.t) (seqs : Detect.t list) =
  let table = Sim.Profile.make () in
  List.iter (register table) seqs;
  add_static ?scale p seqs table;
  table

let strip (p : Mir.Program.t) =
  List.iter
    (fun (fn : Mir.Func.t) ->
      List.iter
        (fun (b : Mir.Block.t) ->
          b.Mir.Block.insns <-
            List.filter (fun i -> not (Mir.Insn.is_profile i)) b.Mir.Block.insns)
        fn.Mir.Func.blocks)
    p.Mir.Program.funcs

let select_input (seq : Detect.t) view =
  let n = List.length seq.Detect.items in
  let explicit =
    List.mapi
      (fun i (it : Detect.item) ->
        {
          Select.in_range = it.Detect.range;
          in_target = it.Detect.target;
          in_cost = Range_cond.cost it.Detect.range;
          in_count = view.item_counts.(i);
          in_payload = i;
        })
      seq.Detect.items
  in
  let defaults =
    List.mapi
      (fun j (r, count) ->
        {
          Select.in_range = r;
          in_target = seq.Detect.default_target;
          in_cost = Range_cond.cost r;
          in_count = count;
          in_payload = n + j;
        })
      view.default_counts
  in
  explicit @ defaults
