(* Natural loop nests from back edges (an edge t -> h where h dominates
   t), with the nesting structure the frequency propagation needs:
   loops carry their depth and parent, blocks answer their innermost
   enclosing loop. *)

type loop = {
  header : string;
  body : string list;        (* layout order, header included *)
  back_edges : string list;  (* tails of the back edges into the header *)
  depth : int;               (* 1 = outermost *)
  parent : string option;    (* header of the enclosing loop *)
}

type t = {
  loops : loop list;  (* layout order of the headers *)
  membership : (string, loop) Hashtbl.t;  (* (body label) -> loop, multi *)
  back : (string * string, unit) Hashtbl.t;  (* (tail, header) *)
  headers : (string, unit) Hashtbl.t;
}

let natural_body fn preds reachable header tails =
  let in_loop = Hashtbl.create 16 in
  Hashtbl.replace in_loop header ();
  (* restrict the predecessor walk to reachable blocks: an unreachable
     block with an edge into the loop is not part of it (and the header
     does not dominate it) *)
  let rec pull label =
    if (not (Hashtbl.mem in_loop label)) && Hashtbl.mem reachable label then begin
      Hashtbl.replace in_loop label ();
      match Hashtbl.find_opt preds label with
      | Some ps -> List.iter pull ps
      | None -> ()
    end
  in
  List.iter pull tails;
  List.filter_map
    (fun (b : Block.t) ->
      if Hashtbl.mem in_loop b.Block.label then Some b.Block.label else None)
    fn.Func.blocks

let analyze fn =
  let dom = Dom.compute fn in
  let preds = Func.predecessors fn in
  let reachable = Func.reachable fn in
  let tails_of = Hashtbl.create 8 in
  let back = Hashtbl.create 8 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun s ->
          if Dom.dominates dom s b.Block.label then begin
            let tails = Option.value ~default:[] (Hashtbl.find_opt tails_of s) in
            Hashtbl.replace tails_of s (tails @ [ b.Block.label ]);
            Hashtbl.replace back (b.Block.label, s) ()
          end)
        (Func.successors fn b))
    fn.Func.blocks;
  let bare =
    List.filter_map
      (fun (b : Block.t) ->
        match Hashtbl.find_opt tails_of b.Block.label with
        | Some tails ->
          Some
            ( b.Block.label,
              natural_body fn preds reachable b.Block.label tails,
              tails )
        | None -> None)
      fn.Func.blocks
  in
  (* nesting: loop A encloses loop B when A's body contains B's header
     (natural loops with distinct headers are disjoint or nested) *)
  let bodies = Hashtbl.create 8 in
  List.iter
    (fun (h, body, _) ->
      let set = Hashtbl.create 16 in
      List.iter (fun l -> Hashtbl.replace set l ()) body;
      Hashtbl.replace bodies h set)
    bare;
  let enclosing h =
    List.filter
      (fun (h', _, _) ->
        (not (String.equal h h')) && Hashtbl.mem (Hashtbl.find bodies h') h)
      bare
  in
  let loops =
    List.map
      (fun (h, body, tails) ->
        let outer = enclosing h in
        let parent =
          (* the enclosing loop with the smallest body is the direct one *)
          List.fold_left
            (fun acc (h', body', _) ->
              match acc with
              | Some (_, n) when n <= List.length body' -> acc
              | _ -> Some (h', List.length body'))
            None outer
          |> Option.map fst
        in
        {
          header = h;
          body;
          back_edges = tails;
          depth = 1 + List.length outer;
          parent;
        })
      bare
  in
  let membership = Hashtbl.create 32 in
  let headers = Hashtbl.create 8 in
  List.iter
    (fun l ->
      Hashtbl.replace headers l.header ();
      List.iter (fun b -> Hashtbl.add membership b l) l.body)
    loops;
  { loops; membership; back; headers }

let loops t = t.loops

let innermost_first t =
  (* deeper loops first; stable within a depth (layout order) *)
  List.stable_sort (fun a b -> compare b.depth a.depth) t.loops

let is_back_edge t ~src ~dst = Hashtbl.mem t.back (src, dst)

let is_header t label = Hashtbl.mem t.headers label

let innermost t label =
  List.fold_left
    (fun acc l ->
      match acc with
      | Some best when List.length best.body <= List.length l.body -> acc
      | _ -> Some l)
    None
    (Hashtbl.find_all t.membership label)

let in_body l label = List.exists (String.equal label) l.body

let retarget_term (t : Block.term) ~from ~into =
  let swap l = if String.equal l from then into else l in
  let kind =
    match t.Block.kind with
    | Block.Br (c, a, b) -> Block.Br (c, swap a, swap b)
    | Block.Jmp l -> Block.Jmp (swap l)
    | Block.Switch (r, cases, d) ->
      Block.Switch (r, List.map (fun (v, l) -> (v, swap l)) cases, swap d)
    | (Block.Jtab _ | Block.Ret _) as k -> k
  in
  { t with Block.kind }

let preheader fn loop =
  let preds = Func.predecessors fn in
  let header_preds =
    match Hashtbl.find_opt preds loop.header with Some ps -> ps | None -> []
  in
  let outside =
    List.filter (fun p -> not (List.mem p loop.body)) header_preds
  in
  let reusable =
    match outside with
    | [ single ] -> (
      match Func.find_block_opt fn single with
      | Some b when Func.successors fn b = [ loop.header ] -> Some single
      | _ -> None)
    | _ -> None
  in
  match reusable with
  | Some label -> label
  | None ->
    let label = Func.fresh_label fn in
    let nb = Block.make ~label [] (Block.Jmp loop.header) in
    List.iter
      (fun p ->
        match Func.find_block_opt fn p with
        | Some pb -> (
          pb.Block.term <-
            retarget_term pb.Block.term ~from:loop.header ~into:label;
          match pb.Block.term.Block.kind with
          | Block.Jtab (_, id) ->
            let table = Func.jtab fn id in
            Array.iteri
              (fun i t -> if String.equal t loop.header then table.(i) <- label)
              table
          | Block.Br _ | Block.Jmp _ | Block.Switch _ | Block.Ret _ -> ())
        | None -> ())
      outside;
    (* place the preheader right before the header; when the header is
       the entry block this makes the preheader the new entry, keeping
       it reachable even with no outside predecessors *)
    let rec insert = function
      | [] -> [ nb ]
      | (b : Block.t) :: rest ->
        if String.equal b.Block.label loop.header then nb :: b :: rest
        else b :: insert rest
    in
    fn.Func.blocks <- insert fn.Func.blocks;
    label
