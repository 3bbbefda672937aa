(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm",
   generalized over an abstract successor function so the same engine
   yields dominators (forward CFG) and postdominators (reversed CFG
   rooted at a virtual exit).  The one dominator engine: loop finding,
   LICM, the verifier and the static-profile analyses all sit on it. *)

type t = {
  order : string array;                  (* reverse postorder; order.(0) = root *)
  number : (string, int) Hashtbl.t;
  idom : int array;                      (* idom.(i) = rpo index, or -1 *)
}

let virtual_exit = "<exit>"

(* reverse postorder of the nodes reachable from [root] under [succs] *)
let reverse_postorder ~root ~succs =
  let visited = Hashtbl.create 64 in
  let post = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.replace visited label ();
      List.iter dfs (succs label);
      post := label :: !post
    end
  in
  dfs root;
  Array.of_list !post

let of_graph ~root ~succs =
  let order = reverse_postorder ~root ~succs in
  let n = Array.length order in
  let number = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace number l i) order;
  let preds = Array.make n [] in
  Array.iteri
    (fun i label ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt number s with
          | Some j -> preds.(j) <- i :: preds.(j)
          | None -> ())
        (succs label))
    order;
  let idom = Array.make n (-1) in
  if n > 0 then begin
    idom.(0) <- 0;
    let rec intersect a b =
      if a = b then a
      else if a > b then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        let processed = List.filter (fun p -> idom.(p) >= 0) preds.(i) in
        match processed with
        | [] -> ()
        | first :: rest ->
          let new_idom = List.fold_left intersect first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
      done
    done
  end;
  { order; number; idom }

let func_succs fn label =
  match Func.find_block_opt fn label with
  | Some b -> Func.successors fn b
  | None -> []

let compute fn =
  match fn.Func.blocks with
  | [] -> { order = [||]; number = Hashtbl.create 1; idom = [||] }
  | entry :: _ ->
    of_graph ~root:entry.Block.label ~succs:(func_succs fn)

(* postdominators: dominators of the reverse CFG, rooted at a virtual
   exit whose reverse successors are every reachable exit block (a [Ret]
   terminator).  Blocks that cannot reach an exit (infinite loops) have
   no postdominators; [dominates] answers [false] for them. *)
let compute_post fn =
  match fn.Func.blocks with
  | [] -> { order = [||]; number = Hashtbl.create 1; idom = [||] }
  | _ ->
    let reachable = Func.reachable fn in
    let exits =
      List.filter_map
        (fun (b : Block.t) ->
          match b.Block.term.Block.kind with
          | Block.Ret _ when Hashtbl.mem reachable b.Block.label ->
            Some b.Block.label
          | _ -> None)
        fn.Func.blocks
    in
    let preds = Func.predecessors fn in
    let succs label =
      if String.equal label virtual_exit then exits
      else
        match Hashtbl.find_opt preds label with
        | Some ps -> List.filter (Hashtbl.mem reachable) ps
        | None -> []
    in
    of_graph ~root:virtual_exit ~succs

let idom t label =
  match Hashtbl.find_opt t.number label with
  | None -> None
  | Some i ->
    if i = 0 || t.idom.(i) < 0 then None else Some t.order.(t.idom.(i))

let dominates t a b =
  match (Hashtbl.find_opt t.number a, Hashtbl.find_opt t.number b) with
  | Some ia, Some ib ->
    let rec walk i =
      if i = ia then true else if i = 0 then ia = 0 else walk t.idom.(i)
    in
    if t.idom.(ib) < 0 && ib <> 0 then false else walk ib
  | _ -> false

let dominators t label =
  match Hashtbl.find_opt t.number label with
  | None -> []
  | Some i ->
    if i <> 0 && t.idom.(i) < 0 then []
    else begin
      let rec up acc i =
        let acc = t.order.(i) :: acc in
        if i = 0 then List.rev acc else up acc t.idom.(i)
      in
      up [] i
    end

let known t label = Hashtbl.mem t.number label
