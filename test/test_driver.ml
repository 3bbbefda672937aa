(* Driver-level tests: configuration, measurement plumbing, percentage
   arithmetic and the stats aggregation used by the benchmark tables. *)

open Helpers

let test_pct () =
  Alcotest.(check (float 0.001)) "decrease" (-10.0) (Driver.Pipeline.pct 1000 900);
  Alcotest.(check (float 0.001)) "increase" 25.0 (Driver.Pipeline.pct 400 500);
  Alcotest.(check (float 0.001)) "zero base" 0.0 (Driver.Pipeline.pct 0 5)

let test_paper_predictors () =
  check_int "14 predictor configurations" 14
    (List.length Driver.Config.paper_predictors);
  check_bool "includes the Ultra's (0,2)x2048" true
    (List.mem (0, 2, 2048) Driver.Config.paper_predictors)

let simple_src =
  "int main() { int c; int n = 0; while ((c = getchar()) != EOF) { if (c == \
   'a') n++; else if (c == 'b') n += 2; } print_int(n); return 0; }"

let test_measure_fields () =
  let r =
    reorder_pipeline ~training_input:"aabbbcc" ~test_input:"abcabc" simple_src
  in
  let v = r.Driver.Pipeline.r_original in
  check_int "all predictors measured" 14
    (List.length v.Driver.Pipeline.v_mispredicts);
  check_int "all machines modelled" 3 (List.length v.Driver.Pipeline.v_cycles);
  check_bool "static size positive" true (v.Driver.Pipeline.v_static_insns > 0);
  check_output "output captured" "6" v.Driver.Pipeline.v_output

let test_predictor_monotone_entries () =
  (* more entries never increase mispredictions on our deterministic,
     alias-dominated workloads' original runs (sanity of wiring, not a
     general theorem; checked on one program) *)
  let w = Workloads.Registry.find "wc" in
  let r =
    reorder_pipeline
      ~training_input:(String.sub (Lazy.force w.Workloads.Spec.training_input) 0 3000)
      ~test_input:(String.sub (Lazy.force w.Workloads.Spec.test_input) 0 3000)
      w.Workloads.Spec.source
  in
  let m = r.Driver.Pipeline.r_original.Driver.Pipeline.v_mispredicts in
  let get e = List.assoc (0, 2, e) m in
  check_bool "32 entries >= 2048 entries" true (get 32 >= get 2048)

let test_cycles_orderable () =
  let r =
    reorder_pipeline ~training_input:"aaabbb" ~test_input:"aaabbb" simple_src
  in
  let cycles = r.Driver.Pipeline.r_original.Driver.Pipeline.v_cycles in
  List.iter
    (fun (name, c) ->
      check_bool (name ^ " cycles >= insns") true
        (c
        >= r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters
             .Sim.Counters.insns))
    cycles

let test_reorder_disabled () =
  let config = { Driver.Config.default with Driver.Config.reorder_enabled = false } in
  let r =
    reorder_pipeline ~config ~training_input:"aab" ~test_input:"abab" simple_src
  in
  check_int "no sequences considered" 0 (List.length r.Driver.Pipeline.r_seqs);
  check_int "identical instruction counts"
    r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters.Sim.Counters.insns
    r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters.Sim.Counters.insns

let test_stats_aggregation () =
  let r =
    reorder_pipeline ~training_input:"aaaaabbbbbccccc" ~test_input:"cabcab"
      simple_src
  in
  let s = r.Driver.Pipeline.r_stats in
  check_bool "detected >= reordered" true
    (s.Reorder.Stats.total_seqs >= s.Reorder.Stats.reordered_seqs);
  check_int "one length entry per reordered sequence"
    s.Reorder.Stats.reordered_seqs
    (List.length s.Reorder.Stats.orig_branch_lengths)

let test_stats_merge_and_histogram () =
  let h = Reorder.Stats.histogram [ 2; 3; 2; 2; 5 ] in
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 3); (3, 1); (5, 1) ] h;
  let a =
    {
      Reorder.Stats.total_seqs = 2;
      reordered_seqs = 1;
      orig_branch_lengths = [ 2 ];
      final_branch_lengths = [ 4 ];
      avg_len_before = 2.0;
      avg_len_after = 4.0;
    }
  in
  let m = Reorder.Stats.merge a a in
  check_int "merged totals" 4 m.Reorder.Stats.total_seqs;
  Alcotest.(check (float 0.001)) "merged average" 2.0 m.Reorder.Stats.avg_len_before

let test_output_mismatch_detected () =
  (* the pipeline raises if outputs diverge; simulate by feeding a
     program whose behaviour is fine — then check the happy path only.
     (A genuine mismatch would be a transformation bug, which the other
     suites hunt; here we just pin the guard's existence.) *)
  let r = reorder_pipeline ~training_input:"ab" ~test_input:"ba" simple_src in
  check_output "outputs equal by construction"
    r.Driver.Pipeline.r_original.Driver.Pipeline.v_output
    r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_output

(* Pipeline.run observables of the reordered version under each pass-2
   path: (dynamic insns, cond branches, (0,2)x2048 mispredicts, static
   insns) on the first 8000 bytes of each input.  A change to training,
   backfill, certification, the common-successor rewrites or profile
   layout shows here. *)
let run_golden =
  [
    ("default", "wc", (118843, 23109, 3162, 125));
    ("default", "lex", (159546, 38654, 8511, 640));
    ("default", "cpp", (160870, 35834, 10593, 543));
    ("common_succ+coalesce", "wc", (118843, 23109, 3162, 125));
    ("common_succ+coalesce", "lex", (158579, 38487, 8509, 636));
    ("common_succ+coalesce", "cpp", (159820, 35630, 10591, 541));
    ("profile_layout", "wc", (121744, 23109, 3153, 135));
    ("profile_layout", "lex", (157879, 38654, 8468, 656));
    ("profile_layout", "cpp", (152234, 35834, 10552, 555));
    ("static+verify", "wc", (118957, 23109, 3161, 108));
    ("static+verify", "lex", (243678, 75079, 6104, 553));
    ("static+verify", "cpp", (259491, 76572, 6276, 450));
    ("both", "wc", (118843, 23109, 3162, 125));
    ("both", "lex", (159530, 38654, 8511, 655));
    ("both", "cpp", (160870, 35834, 10593, 543));
  ]

let test_run_golden () =
  let d = Driver.Config.default in
  let configs =
    [
      ("default", d);
      ( "common_succ+coalesce",
        {
          d with
          Driver.Config.common_succ = true;
          coalesce_machine = Some Sim.Cycle_model.sparc_ipc;
        } );
      ("profile_layout", { d with Driver.Config.profile_layout = true });
      ( "static+verify",
        { d with Driver.Config.profile = `Static; verify = true } );
      ("both", { d with Driver.Config.profile = `Both });
    ]
  in
  let trunc s = String.sub s 0 (min 8000 (String.length s)) in
  let jobs =
    List.map
      (fun (cname, name, _) ->
        let w = Workloads.Registry.find name in
        Driver.Pipeline.job ~config:(List.assoc cname configs) ~name
          ~source:w.Workloads.Spec.source
          ~training_input:(trunc (Lazy.force w.Workloads.Spec.training_input))
          ~test_input:(trunc (Lazy.force w.Workloads.Spec.test_input))
          ())
      run_golden
  in
  List.iter2
    (fun (cname, name, expected) (r : Driver.Pipeline.result) ->
      let v = r.Driver.Pipeline.r_reordered in
      let c = v.Driver.Pipeline.v_counters in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%s %s" cname name)
        (let i, b, m, st = expected in
         ((i, b), (m, st)))
        ( (c.Sim.Counters.insns, c.Sim.Counters.cond_branches),
          ( List.assoc (0, 2, 2048) v.Driver.Pipeline.v_mispredicts,
            v.Driver.Pipeline.v_static_insns ) ))
    run_golden
    (Driver.Pool.map Driver.Pipeline.run_job jobs)

let suite =
  [
    case "driver: percentage arithmetic" test_pct;
    case "driver: Table 6 predictor grid" test_paper_predictors;
    case "driver: measurement fields" test_measure_fields;
    case "driver: predictor size wiring" test_predictor_monotone_entries;
    case "driver: cycle models bounded below by instructions" test_cycles_orderable;
    case "driver: reordering can be disabled" test_reorder_disabled;
    case "driver: stats aggregation" test_stats_aggregation;
    case "driver: stats merge and histogram" test_stats_merge_and_histogram;
    case "driver: output equality guard" test_output_mismatch_detected;
    slow_case "driver: run observables golden, five pass-2 configurations"
      test_run_golden;
  ]
