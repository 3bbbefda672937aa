(* Shared helpers for the test suites. *)

let compile ?(heuristic = Mopt.Switch_lower.set_i) src =
  let prog = Minic.Lower.compile src in
  Mopt.Switch_lower.lower_program heuristic prog;
  Mopt.Cleanup.run prog;
  prog

let compile_final ?heuristic src =
  let prog = compile ?heuristic src in
  ignore (Mopt.Cleanup.finalize prog);
  Mir.Validate.check prog;
  prog

(* run a MiniC program and return its output *)
let run_src ?heuristic ?(input = "") src =
  let prog = compile_final ?heuristic src in
  let result = Sim.Machine.run prog ~input in
  result.Sim.Machine.output

let run_prog ?(input = "") prog = Sim.Machine.run prog ~input

(* full reordering pipeline on a source string; returns (original version,
   reordered version, pipeline result) *)
let reorder_pipeline ?(config = Driver.Config.default) ~training_input
    ~test_input src =
  Driver.Pipeline.run ~config ~name:"test" ~source:src ~training_input
    ~test_input ()

let check_output = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* QCheck2 flavour, for generators shared with lib/check (Check.Gen) *)
let qcheck2 ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

(* a deterministic pseudo-random int stream for building test data *)
let mix seed i = ((seed * 1103515245) + (i * 12345)) land 0x3FFFFFFF

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  n = 0 || go 0

(* assert that a validation result is an error mentioning [substr] *)
let expect_invalid ?substr result =
  match result with
  | Ok () -> Alcotest.fail "expected validation to fail"
  | Error msgs -> (
    match substr with
    | None -> ()
    | Some s ->
      if not (List.exists (fun m -> contains_substring m s) msgs) then
        Alcotest.failf "no validation message mentions %S in: %s" s
          (String.concat " | " msgs))

let expect_srcloc_error f =
  match f () with
  | exception Minic.Srcloc.Error _ -> ()
  | _ -> Alcotest.fail "expected a front-end error"

let expect_trap f =
  match f () with
  | exception Sim.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "expected a simulator trap"

(* ------------------------------------------------------------------ *)
(* Brute-force dominance, the reference Mir.Dom is checked against      *)
(* ------------------------------------------------------------------ *)

(* every label reachable from [start] without passing through [avoid] *)
let reach_avoiding fn ~avoid start =
  let seen = Hashtbl.create 16 in
  let rec go l =
    if (not (Hashtbl.mem seen l)) && not (String.equal l avoid) then begin
      Hashtbl.replace seen l ();
      match Mir.Func.find_block_opt fn l with
      | Some b -> List.iter go (Mir.Func.successors fn b)
      | None -> ()
    end
  in
  go start;
  seen

let is_exit fn l =
  match Mir.Func.find_block_opt fn l with
  | Some { Mir.Block.term = { Mir.Block.kind = Mir.Block.Ret _; _ }; _ } ->
    true
  | _ -> false

let reaches_exit fn ~avoid l =
  Hashtbl.fold (fun l () acc -> acc || is_exit fn l) (reach_avoiding fn ~avoid l)
    false

(* [a] dominates [b] iff [b] is unreachable from the entry once [a] is
   removed *)
let reference_dominates fn a b =
  String.equal a b
  || not
       (Hashtbl.mem
          (reach_avoiding fn ~avoid:a (Mir.Func.entry fn).Mir.Block.label)
          b)

(* [a] postdominates [b] iff no exit is reachable from [b] once [a] is
   removed *)
let reference_postdominates fn a b =
  String.equal a b || not (reaches_exit fn ~avoid:a b)

(* Mir.Dom against the path-cutting reference on every pair of blocks:
   the analyzed set (reachable forward; reachable and reaching an exit
   backward), [dominates], the [dominators] chain and [idom].  [~post]
   selects postdominators. *)
let dom_matches_reference ~post fn =
  let labels =
    List.map (fun (b : Mir.Block.t) -> b.Mir.Block.label) fn.Mir.Func.blocks
  in
  let reach = Mir.Func.reachable fn in
  let t, known, reference =
    if post then
      ( Mir.Dom.compute_post fn,
        (fun l ->
          Hashtbl.mem reach l
          && reaches_exit fn ~avoid:Mir.Dom.virtual_exit l),
        reference_postdominates )
    else (Mir.Dom.compute fn, Hashtbl.mem reach, reference_dominates)
  in
  let known_labels = List.filter known labels in
  List.for_all (fun l -> Mir.Dom.known t l = known l) labels
  && List.for_all
       (fun b ->
         let doms = List.filter (fun a -> reference fn a b) known_labels in
         let chain =
           List.filter
             (fun l -> not (String.equal l Mir.Dom.virtual_exit))
             (Mir.Dom.dominators t b)
         in
         List.for_all
           (fun a -> Mir.Dom.dominates t a b = List.mem a doms)
           known_labels
         && List.sort compare chain = List.sort compare doms
         && List.hd (Mir.Dom.dominators t b) = b
         && Mir.Dom.idom t b
            = (match Mir.Dom.dominators t b with
              | _ :: d :: _ -> Some d
              | _ -> None))
       known_labels
