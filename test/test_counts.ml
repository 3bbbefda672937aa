(* The paper's counts, pinned: every registry workload under heuristic
   sets I-III, with trained and with static profiles, on inputs cut to
   4000 bytes.  For the original and the reordered version each line of
   counts_golden.txt records dynamic instructions, conditional branches,
   static instructions, the three cycle-model totals and the mispredicts
   of all 14 paper predictors.  Any change to compilation, reordering,
   the cost model, the simulator or a predictor shows here.

   When counts move on purpose, the failing run leaves the regenerated
   file behind; accept it with

     dune test; cp _build/default/test/counts_golden.actual test/counts_golden.txt *)

open Helpers

let golden_file = "counts_golden.txt"
let actual_file = "counts_golden.actual"
let input_bytes = 4000

let header =
  Printf.sprintf
    "# set workload profile version insns cond_branches static_insns | \
     cycles(%s) | mispredicts(%s)"
    (String.concat ","
       (List.map
          (fun (m : Sim.Cycle_model.params) -> m.Sim.Cycle_model.model_name)
          Sim.Cycle_model.all_machines))
    (String.concat ","
       (List.map
          (fun (h, c, e) -> Printf.sprintf "%d/%d/%d" h c e)
          Driver.Config.paper_predictors))

let version_line prefix tag (v : Driver.Pipeline.version) =
  let c = v.Driver.Pipeline.v_counters in
  let ints l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "%s %s %d %d %d | %s | %s" prefix tag c.Sim.Counters.insns
    c.Sim.Counters.cond_branches v.Driver.Pipeline.v_static_insns
    (ints (List.map snd v.Driver.Pipeline.v_cycles))
    (ints
       (List.map
          (fun key -> List.assoc key v.Driver.Pipeline.v_mispredicts)
          Driver.Config.paper_predictors))

let jobs () =
  let trunc s = String.sub s 0 (min input_bytes (String.length s)) in
  List.concat_map
    (fun (hs : Mopt.Switch_lower.heuristic_set) ->
      List.concat_map
        (fun profile ->
          List.map
            (fun (w : Workloads.Spec.t) ->
              let config =
                {
                  Driver.Config.default with
                  Driver.Config.heuristic = hs;
                  profile;
                }
              in
              ( Printf.sprintf "%s %s %s" hs.Mopt.Switch_lower.hs_name
                  w.Workloads.Spec.name (Driver.Config.profile_name profile),
                Driver.Pipeline.job ~config ~name:w.Workloads.Spec.name
                  ~source:w.Workloads.Spec.source
                  ~training_input:
                    (trunc (Lazy.force w.Workloads.Spec.training_input))
                  ~test_input:(trunc (Lazy.force w.Workloads.Spec.test_input))
                  () ))
            Workloads.Registry.all)
        [ `Trained; `Static ])
    Mopt.Switch_lower.all_sets

let generate () =
  let jobs = jobs () in
  let results = Driver.Pool.map Driver.Pipeline.run_job (List.map snd jobs) in
  header
  :: List.concat
       (List.map2
          (fun (prefix, _) (r : Driver.Pipeline.result) ->
            [
              version_line prefix "original" r.Driver.Pipeline.r_original;
              version_line prefix "reordered" r.Driver.Pipeline.r_reordered;
            ])
          jobs results)

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_counts_golden () =
  let actual = generate () in
  let expected = read_lines golden_file in
  if actual <> expected then begin
    Out_channel.with_open_text actual_file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<missing>")
      | [], a :: _ -> ("<missing>", a)
      | [], [] -> ("", "")
    in
    let e, a = first_diff (expected, actual) in
    Alcotest.failf
      "counts moved (%d golden lines, %d regenerated)\n\
      \  golden:      %s\n\
      \  regenerated: %s\n\
       regenerated file left in %s" (List.length expected)
      (List.length actual) e a actual_file
  end

let suite =
  [
    slow_case "counts: 17 workloads x sets I-III x trained/static, pinned"
      test_counts_golden;
  ]
