(* In-memory spans for the traced run.  Each recorder belongs to one job
   or request and is used by one domain at a time, so recording takes no
   lock; recorders are collected after the work ends and written out
   once. *)

type span = {
  id : int;
  parent : int;  (* -1 at the top level *)
  name : string;
  owner : string;  (* job or request id *)
  start : float;
  stop : float;
  minor_words : float;  (* allocated by this domain inside the span *)
}

type recorder = {
  r_owner : string;
  mutable r_next : int;
  mutable r_stack : int list;
  mutable r_spans : span list;  (* newest first *)
}

let recorder owner = { r_owner = owner; r_next = 0; r_stack = []; r_spans = [] }

let with_span r name f =
  let id = r.r_next in
  r.r_next <- id + 1;
  let parent = match r.r_stack with p :: _ -> p | [] -> -1 in
  r.r_stack <- id :: r.r_stack;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    r.r_stack <- List.tl r.r_stack;
    r.r_spans <-
      {
        id;
        parent;
        name;
        owner = r.r_owner;
        start = t0;
        stop = t1;
        minor_words = Gc.minor_words () -. w0;
      }
      :: r.r_spans
  in
  Fun.protect ~finally:finish f

let spans r = List.rev r.r_spans

(* total length of the union of [intervals] clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* self time of every span: its duration minus the part of it that its
   direct children cover *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.add children (s.owner, s.parent) (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children (s.owner, s.id) in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* self-time seconds and self-allocated minor words summed per span
   name, in first-seen order *)
let by_name spans =
  let words_in = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let w = try Hashtbl.find words_in (s.owner, s.parent) with Not_found -> 0.0 in
        Hashtbl.replace words_in (s.owner, s.parent) (w +. s.minor_words))
    spans;
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let kids_words = try Hashtbl.find words_in (s.owner, s.id) with Not_found -> 0.0 in
      let t, w =
        match Hashtbl.find_opt acc s.name with
        | Some x -> x
        | None ->
          order := s.name :: !order;
          (0.0, 0.0)
      in
      Hashtbl.replace acc s.name (t +. self, w +. s.minor_words -. kids_words))
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order

(* the run's host and settings record, then every span *)
let to_json oc ~host spans =
  Printf.fprintf oc "{\"host\": %s,\n\"spans\": [" host;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"parent\":%d,\"name\":%s,\"owner\":%s,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}"
        (if i = 0 then "" else ",")
        s.id s.parent (Report.json_string s.name) (Report.json_string s.owner) s.start s.stop
        s.minor_words)
    spans;
  output_string oc "\n]}\n"
