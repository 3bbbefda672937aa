(* The three workloads, their timed runs and the traced run. *)

module P = Driver.Pipeline
module C = Driver.Config

type workload = Paper_matrix | Static_compile | Serve_steady

let workloads =
  [ ("paper-matrix", Paper_matrix); ("static-compile", Static_compile);
    ("serve-steady", Serve_steady) ]

let say = Report.say
let m = Report.metric
let now = Unix.gettimeofday
let domains () = Driver.Pool.default_domains ()
let i2f = float_of_int

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

(* the paper's evaluation: trained profiles, the 14 paper predictors *)
let paper_config = C.default

(* the compile side: static profiles, every rewrite certified, and only
   the (0,2)x2048 predictor the Ultra-1 cycle model needs *)
let static_config =
  { C.default with C.profile = `Static; verify = true; predictors = [ (0, 2, 2048) ] }

let short s = String.sub s 0 (min 6000 (String.length s))

let registry_jobs config ~shorten =
  let f = if shorten then short else Fun.id in
  List.concat_map
    (fun (hs : Mopt.Switch_lower.heuristic_set) ->
      List.map
        (fun (w : Workloads.Spec.t) ->
          P.job
            ~config:{ config with C.heuristic = hs }
            ~name:(w.Workloads.Spec.name ^ "/" ^ hs.Mopt.Switch_lower.hs_name)
            ~source:w.Workloads.Spec.source
            ~training_input:(f (Lazy.force w.Workloads.Spec.training_input))
            ~test_input:(f (Lazy.force w.Workloads.Spec.test_input))
            ())
        Workloads.Registry.all)
    Mopt.Switch_lower.all_sets

let dispatch_count = 40

(* seeded MiniC dispatch programs, spread over the three heuristic sets.
   They run on trained profiles: under [`Static] (and [`Both]) counts,
   [Check.Verify] rejects the rewrite of some of them ("chain block ...
   is reachable around the replica entry"; seed 1: dispatch03/07/22/34)
   although the reordered program's output matches the reference, a
   defect of the library, not of these inputs *)
let dispatch_jobs config ~seed =
  let sets = Array.of_list Mopt.Switch_lower.all_sets in
  List.mapi
    (fun i (d : Check.Gen.dispatch) ->
      let hs = sets.(i mod Array.length sets) in
      P.job
        ~config:{ config with C.heuristic = hs }
        ~name:(Printf.sprintf "dispatch%02d/%s" i hs.Mopt.Switch_lower.hs_name)
        ~source:(Check.Gen.dispatch_source d) ~training_input:d.Check.Gen.train
        ~test_input:d.Check.Gen.test ())
    (Check.Gen.sample ~seed ~n:dispatch_count Check.Gen.gen_dispatch)

let jobs w ~seed =
  match w with
  | Paper_matrix -> registry_jobs paper_config ~shorten:false
  | Static_compile ->
    registry_jobs static_config ~shorten:true
    @ dispatch_jobs { static_config with C.profile = `Trained } ~seed
  | Serve_steady -> Serve.cold_jobs paper_config (Serve.programs ())

let session_config = function
  | Static_compile -> static_config
  | Paper_matrix | Serve_steady -> paper_config

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

let ref_key (j : P.job) = Digest.string (j.P.job_source ^ "\000" ^ j.P.job_test_input)

(* output and exit code of the reference interpreter on the unreordered
   base, once per distinct program and input *)
let references jobs =
  let tbl = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun j ->
        let k = ref_key j in
        if Hashtbl.mem tbl k then false
        else begin
          Hashtbl.replace tbl k ("", 0);
          true
        end)
      jobs
  in
  let outs =
    Driver.Pool.map ~domains:(domains ())
      (fun (j : P.job) ->
        let config = j.P.job_config in
        let r =
          Sim.Machine.run_reference ~config:(Compose.sim_config config)
            (P.compile_base config j.P.job_source) ~input:j.P.job_test_input
        in
        (r.Sim.Machine.output, r.Sim.Machine.exit_code))
      distinct
  in
  List.iter2 (fun j o -> Hashtbl.replace tbl (ref_key j) o) distinct outs;
  tbl

let check_versions refs (j : P.job) (o : P.version) (r : P.version) =
  let expect = Hashtbl.find refs (ref_key j) in
  let bad which (v : P.version) =
    if (v.P.v_output, v.P.v_exit_code) <> expect then
      Some (Printf.sprintf "%s: %s output differs from the reference" j.P.job_name which)
    else None
  in
  List.filter_map Fun.id [ bad "original" o; bad "reordered" r ]

let certified (s : Check.Verify.summary) =
  List.length
    (List.filter
       (fun (x : Check.Verify.seq_result) ->
         x.Check.Verify.v_kind <> `Unchanged && x.Check.Verify.v_errors = [])
       s.Check.Verify.seq_results)

(* ------------------------------------------------------------------ *)
(* Generated-code quality: the reordered versions' total as a percentage
   of the original versions' total, summed over the matrix (76.0 is the
   paper's "-24.0%").  Reported this way the values stay positive. *)

let ultra = Sim.Cycle_model.sparc_ultra1

let quality pairs =
  let metric name ?(what = "") f =
    let a, b =
      List.fold_left (fun (a, b) (o, r) -> (a + f o, b + f r)) (0, 0) pairs
    in
    m name "%" (100.0 *. i2f b /. i2f a)
      ~note:(Printf.sprintf "of original, %+.2f%% change%s" (P.pct a b) what)
  in
  let c (v : P.version) = v.P.v_counters in
  let key = match ultra.Sim.Cycle_model.predictor with Some k -> k | None -> (0, 2, 2048) in
  [
    metric "insns_pct" (fun v -> (c v).Sim.Counters.insns);
    metric "branches_pct" (fun v -> (c v).Sim.Counters.cond_branches);
    metric "mispredicts_pct" ~what:", (0,2)x2048"
      (fun v -> try List.assoc key v.P.v_mispredicts with Not_found -> 0);
    metric "cycles_pct" ~what:", Ultra-1 model"
      (fun v -> List.assoc ultra.Sim.Cycle_model.model_name v.P.v_cycles);
  ]

(* The paper's headline: branch reduction grows from set I to II to III
   (III > II >= I), on the per-program average as in EXPERIMENTS.md. *)
let set_ordering results =
  let avg hs =
    Stats.mean
      (List.filter_map
         (fun ((j : P.job), (r : P.result)) ->
           if j.P.job_config.C.heuristic.Mopt.Switch_lower.hs_name = hs then
             Some
               (-.P.pct r.P.r_original.P.v_counters.Sim.Counters.cond_branches
                   r.P.r_reordered.P.v_counters.Sim.Counters.cond_branches)
           else None)
         results)
  in
  let i = avg "I" and ii = avg "II" and iii = avg "III" in
  say "  branch reduction by set: I %.2f%%  II %.2f%%  III %.2f%%" i ii iii;
  if iii > ii && ii >= i then []
  else [ Printf.sprintf "set ordering III > II >= I fails: %.2f %.2f %.2f" i ii iii ]

(* ------------------------------------------------------------------ *)
(* Timed batch run                                                     *)

let outcome_problems refs jobs (outcomes : P.job_outcome list) =
  List.concat
    (List.map2
       (fun (j : P.job) (o : P.job_outcome) ->
         match o.P.o_outcome with
         | Driver.Pool.Ok r ->
           check_versions refs j r.P.r_original r.P.r_reordered
           @ (match (j.P.job_config.C.verify, r.P.r_verify) with
             | true, Some s when not (Check.Verify.ok s) ->
               [ j.P.job_name ^ ": a rewrite was rejected by Check.Verify" ]
             | true, None -> [ j.P.job_name ^ ": not verified" ]
             | _ -> [])
         | out ->
           [ Printf.sprintf "%s: %s %s" j.P.job_name (Driver.Pool.outcome_status out)
               (Driver.Pool.outcome_message out) ])
       jobs outcomes)

let ok_results jobs outcomes =
  List.concat
    (List.map2
       (fun j (o : P.job_outcome) ->
         match o.P.o_outcome with Driver.Pool.Ok r -> [ (j, r) ] | _ -> [])
       jobs outcomes)

(* The matrix runs through Pipeline.run_jobs_guarded as one
   sub-matrix per heuristic set, cycling I, II, III, I, ... [reps]
   times.  The matrix wall time is the sum over sets of each set's
   median sub-matrix wall, and each job's latency is the median of its
   runs: a host slowdown that hits one sub-matrix does not decide the
   result, where a whole matrix of 12-17 s would fit only twice in a
   run. *)
(* Set-up is timed [setup_samples] times, spread evenly over the
   sub-matrices, and the median reported: one set-up takes 50-90 ms, and
   a stretch in which the host runs slow lasts seconds, so samples taken
   back to back all land in the same stretch. *)
let setup_samples = 7

let timed_batch w ~seed ~seconds ~setup_once =
  let jobs = jobs w ~seed in
  let refs = references jobs in
  let d = domains () in
  let n = List.length jobs in
  let groups =
    Array.of_list
      (List.map
         (fun (hs : Mopt.Switch_lower.heuristic_set) ->
           ( hs.Mopt.Switch_lower.hs_name,
             List.filter
               (fun (j : P.job) ->
                 j.P.job_config.C.heuristic.Mopt.Switch_lower.hs_name
                 = hs.Mopt.Switch_lower.hs_name)
               jobs ))
         Mopt.Switch_lower.all_sets)
  in
  let g = Array.length groups in
  (* each set runs --seconds / (the seconds a whole matrix takes on a
     2-core host) times: the count depends on the arguments only, never
     on how fast the host happens to be, so every run takes the same
     estimator *)
  let matrix_s = if w = Paper_matrix then 14.0 else 1.6 in
  let reps = max 1 (int_of_float (seconds /. matrix_s)) in
  let walls = Array.make g [] and last = Array.make g [] in
  let lat = Hashtbl.create 128 in
  let problems = ref [] and attempted = ref 0 and setups = ref [] in
  say "matrix: %d jobs in %d sub-matrices on %d pool domains, %d runs each" n g d reps;
  let total = reps * g in
  for k = 0 to total - 1 do
    for j = 0 to setup_samples - 1 do
      if j * total / setup_samples = k then setups := setup_once () :: !setups
    done;
    let i = k mod g in
    let name, group = groups.(i) in
    let t0 = now () in
    let outcomes = P.run_jobs_guarded ~domains:d group in
    let wall = now () -. t0 in
    say "  set %-3s %.3f s" name wall;
    walls.(i) <- wall :: walls.(i);
    last.(i) <- outcomes;
    attempted := !attempted + List.length group;
    List.iter
      (fun (o : P.job_outcome) -> Hashtbl.add lat o.P.o_name (o.P.o_seconds *. 1000.0))
      outcomes;
    problems := !problems @ outcome_problems refs group outcomes
  done;
  let results =
    List.concat (Array.to_list (Array.mapi (fun i (_, group) -> ok_results group last.(i)) groups))
  in
  say "per program (last run):";
  say "  %-16s %9s %12s %9s %9s" "job" "ms" "orig insns" "insns%" "branches%";
  Array.iteri
    (fun i (_, group) ->
      List.iter2
        (fun (j : P.job) (o : P.job_outcome) ->
          match o.P.o_outcome with
          | Driver.Pool.Ok r ->
            let c (v : P.version) = v.P.v_counters in
            say "  %-16s %9.1f %12d %+8.2f%% %+8.2f%%" j.P.job_name
              (o.P.o_seconds *. 1000.0) (c r.P.r_original).Sim.Counters.insns
              (P.pct (c r.P.r_original).Sim.Counters.insns (c r.P.r_reordered).Sim.Counters.insns)
              (P.pct (c r.P.r_original).Sim.Counters.cond_branches
                 (c r.P.r_reordered).Sim.Counters.cond_branches)
          | out -> say "  %-16s %s" j.P.job_name (Driver.Pool.outcome_status out))
        group last.(i))
    groups;
  let problems =
    !problems @ if w = Paper_matrix then set_ordering results else []
  in
  let setups = List.rev !setups in
  say "setup: %s s" (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  let median l = Stats.median (Stats.sorted l) in
  let wall = Array.fold_left (fun a l -> a +. median l) 0.0 walls in
  let per_job =
    Stats.sorted
      (List.map (fun (j : P.job) -> median (Hashtbl.find_all lat j.P.job_name)) jobs)
  in
  let tail = Stats.tail per_job in
  let metrics =
    [
      m "setup_s" "s" (median setups)
        ~note:
          (Printf.sprintf "input generation, median of %d fresh processes over the run"
             setup_samples);
      m "wall_s" "s" wall
        ~note:(Printf.sprintf "sum over sets of the median sub-matrix, %d runs each" reps);
      m "p50_ms" "ms" (Stats.median per_job)
        ~note:(Printf.sprintf "per-job latency (median of its runs), n=%d" n);
      m "p99_ms" "ms" tail.Stats.t_value
        ~note:(Printf.sprintf "per-job p%d, n=%d" tail.Stats.t_pct n);
      m "rps_at_slo" "1/s" (i2f n /. wall) ~note:"jobs per second of matrix wall";
    ]
    @ quality (List.map (fun (_, r) -> (r.P.r_original, r.P.r_reordered)) results)
  in
  { Report.metrics; attempted = !attempted; problems }

(* ------------------------------------------------------------------ *)
(* Timed serving run                                                   *)

let workers () = max 1 (domains () - 1)
let setups = 3

let expect_of refs jobs =
  Array.of_list (List.map (fun j -> Hashtbl.find refs (ref_key j)) jobs)

let timed_serve ~seed ~seconds ~scratch =
  let progs = Serve.programs () in
  let config = paper_config in
  let cold = Serve.cold_jobs config progs in
  let refs = references cold in
  let expect = expect_of refs cold in
  (* the code each program's first generation serves: what the server
     builds on its cold request, built by Pipeline.run *)
  let outcomes = P.run_jobs_guarded ~domains:(domains ()) cold in
  let problems = ref (outcome_problems refs cold outcomes) in
  let w = workers () in
  say "server: %d worker domain(s), state in %s" w scratch;
  let servers =
    List.init setups (fun _ ->
        let s, t, ps = Serve.setup_once ~config ~workers:w ~scratch progs ~expect in
        problems := !problems @ ps;
        (s, t))
  in
  let times = List.map snd servers in
  List.iteri (fun i (s, _) -> if i < setups - 1 then Serve.close s) servers;
  let s = fst (List.nth servers (setups - 1)) in
  say "setup: %s s" (String.concat " " (List.map (Printf.sprintf "%.3f") times));
  (* each step is checked against the oracle as soon as it is answered,
     outside the timed windows *)
  let checked = ref 0 in
  let check st =
    let c, ps = Serve.check s progs ~seed st in
    checked := !checked + c;
    problems := !problems @ ps;
    Serve.drop_outputs st
  in
  let warm = Serve.warm_up s progs in
  check warm;
  let l = Serve.ladder s progs ~seed ~seconds ~on_step:check in
  let show rate (v : Load.verdict) =
    say "  rate %3d/s: %d window(s), %d requests, p50 %.3f ms p%d %.3f ms, backlog %s -> %s" rate
      v.Load.v_windows v.Load.v_tail.Stats.t_samples v.Load.v_median_ms
      v.Load.v_tail.Stats.t_pct v.Load.v_tail.Stats.t_value
      (if v.Load.v_grows then "grows" else "steady")
      (if v.Load.v_pass then "pass" else "fail")
  in
  let v = Serve.verdict l.Serve.windows in
  show Serve.nominal v;
  (* client p50 / tail and the server's own service p50 per window *)
  say "    per window (p50/tail, service p50): %s"
    (String.concat "  "
       (List.map
          (fun (st : Serve.step) ->
            let w = Serve.verdict [ st ] in
            let svc =
              Array.to_list st.Serve.responses
              |> List.filter_map (Option.map (fun r -> r.Driver.Server.rs_wall_ms))
            in
            Printf.sprintf "%.3f/%.1f %.3f" w.Load.v_median_ms w.Load.v_tail.Stats.t_value
              (Stats.median (Stats.sorted svc)))
          l.Serve.windows));
  List.iter (fun (rate, a, _) -> show rate (Serve.verdict [ a ])) l.Serve.rungs;
  let drains = List.map (fun (b : Serve.step) -> b.Serve.load.Load.wall_s) l.Serve.bursts in
  say "  bursts of %d requests drained in %s s: %.0f req/s saturated" Serve.burst_n
    (String.concat " " (List.map (Printf.sprintf "%.3f") drains)) l.Serve.capacity;
  let all =
    (warm :: l.Serve.windows)
    @ List.map (fun (_, a, _) -> a) l.Serve.rungs
    @ l.Serve.bursts
  in
  let late =
    List.fold_left (fun a (st : Serve.step) -> Float.max a st.Serve.load.Load.late_ms_max) 0.0 all
  in
  say "  generator: at most %.2f ms late" late;
  say "  oracle: %d responses checked" !checked;
  let st = Driver.Server.stats s.Serve.srv in
  say "  server: %d shadow runs, %d merges, %d reopts, %d cold"
    st.Driver.Server.st_shadow_runs st.Driver.Server.st_merges st.Driver.Server.st_reopts
    st.Driver.Server.st_cold;
  Serve.close s;
  let sent =
    List.fold_left (fun a (st : Serve.step) -> a + Array.length st.Serve.responses) 0 all
  in
  let metrics =
    [
      m "setup_s" "s" (Stats.median (Stats.sorted times))
        ~note:(Printf.sprintf "server + 18 cold requests, median of %d" setups);
      m "wall_s" "s" (Stats.median (Stats.sorted drains))
        ~note:(Printf.sprintf "drain of a %d-request burst, median of %d" Serve.burst_n
                 (List.length drains));
      m "p50_ms" "ms" v.Load.v_median_ms
        ~note:(Printf.sprintf "client, %d/s, n=%d over %d windows" Serve.nominal
                 v.Load.v_tail.Stats.t_samples v.Load.v_windows);
      m "p99_ms" "ms" v.Load.v_tail.Stats.t_value
        ~note:(Printf.sprintf "client p%d, %d/s, n=%d over %d windows"
                 v.Load.v_tail.Stats.t_pct Serve.nominal v.Load.v_tail.Stats.t_samples
                 v.Load.v_windows);
      m "rps_at_slo" "1/s" (i2f l.Serve.best)
        ~note:(Printf.sprintf "p99 <= %.0f ms, steady backlog, of %.0f/s saturated"
                 Serve.slo_ms l.Serve.capacity);
    ]
    @ quality
        (List.map (fun (_, r) -> (r.P.r_original, r.P.r_reordered)) (ok_results cold outcomes))
  in
  {
    Report.metrics;
    attempted = (setups * Array.length progs) + sent + List.length cold;
    problems = !problems;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* A short live session on a fresh server: cold setup, then [n]
   requests at the nominal rate.  Gives the serving layer's numbers on
   every workload, under that workload's pipeline configuration. *)
let live_session w ~seed ~scratch =
  let progs = Serve.programs () in
  let config = session_config w in
  let cold = Serve.cold_jobs config progs in
  let expect = expect_of (references cold) cold in
  let s, _, setup_problems =
    Serve.setup_once ~config ~workers:(workers ()) ~scratch progs ~expect
  in
  let warm = Serve.warm_up s progs in
  let n = if w = Serve_steady then 1000 else 400 in
  let before = Driver.Server.stats s.Serve.srv in
  let st = Serve.step s progs ~seed ~rate:Serve.nominal ~n in
  let t0 = now () in
  Driver.Server.sync s.Serve.srv;
  let sync_s = now () -. t0 in
  let problems =
    List.concat_map (fun x -> snd (Serve.check s progs ~seed x)) [ warm; st ]
  in
  let metrics = Serve.step_metrics s st ~before ~sync_s in
  Serve.close s;
  (* client-side spans: each request from its due time to its reply,
     with the in-worker service time as its child *)
  let spans =
    List.concat
      (List.mapi
         (fun i r ->
           match r with
           | Some (r : Driver.Server.response) when r.Driver.Server.rs_status = "ok" ->
             let due = st.Serve.load.Load.due.(i) in
             let stop = due +. (st.Serve.load.Load.latency_ms.(i) /. 1000.0) in
             let owner = Printf.sprintf "request-%d" i in
             [
               { Spans.id = 0; parent = -1; name = "server.request"; owner;
                 start = due; stop; minor_words = 0.0 };
               { Spans.id = 1; parent = 0; name = "server.service"; owner;
                 start = stop -. (r.Driver.Server.rs_wall_ms /. 1000.0); stop;
                 minor_words = 0.0 };
             ]
           | _ -> [])
         (Array.to_list st.Serve.responses))
  in
  (metrics, spans, n + Array.length warm.Serve.responses + Array.length progs,
   setup_problems @ problems)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let traced w ~seed ~scratch ~host ~trace_file =
  let jobs = jobs w ~seed in
  let refs = references jobs in
  let d = domains () in
  let n = List.length jobs in
  say "traced: %d jobs on %d pool domains" n d;
  (* untraced: Pipeline.run through the guarded pool *)
  let t0 = now () in
  let outcomes = P.run_jobs_guarded ~domains:d jobs in
  let wall_u = now () -. t0 in
  let problems = ref (outcome_problems refs jobs outcomes) in
  let busy = List.fold_left (fun a (o : P.job_outcome) -> a +. o.P.o_seconds) 0.0 outcomes in
  let retries = List.fold_left (fun a (o : P.job_outcome) -> a + o.P.o_retried) 0 outcomes in
  let degraded = List.length (List.filter (fun (o : P.job_outcome) -> o.P.o_degraded) outcomes) in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  (* The same jobs composed from their public calls, twice in a row on
     one pool domain: untraced then traced, or traced then untraced on
     every other job.  Tracing overhead is the traced time minus the
     untraced time, summed over jobs: the first run of a job comes
     untraced on half the jobs and traced on the other half, so a warm
     cache favours neither side.  The spans are those of the traced
     composition. *)
  let timed f =
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  in
  let composed =
    Driver.Pool.map_result ~domains:d
      (fun (i, (j : P.job)) ->
        let plain () = timed (fun () -> Compose.run j) in
        let traced () =
          let r = Spans.recorder j.P.job_name in
          let c, t = timed (fun () -> Compose.run ~r j) in
          ((c, r), t)
        in
        let (u, tu), ((c, r), tt) =
          if i mod 2 = 0 then
            let a = plain () in
            (a, traced ())
          else
            let b = traced () in
            (plain (), b)
        in
        (c, u, r, tt -. tu))
      (List.mapi (fun i j -> (i, j)) jobs)
  in
  let composed =
    List.concat
      (List.map2
         (fun (j : P.job) out ->
           match out with
           | Driver.Pool.Ok x -> [ x ]
           | out ->
             problems :=
               !problems
               @ [ Printf.sprintf "%s: composed run %s %s" j.P.job_name
                     (Driver.Pool.outcome_status out) (Driver.Pool.outcome_message out) ];
             [])
         jobs composed)
  in
  let overhead = List.fold_left (fun a (_, _, _, dt) -> a +. dt) 0.0 composed in
  say "  untraced %.3f s; tracing overhead %.3f s over %d jobs composed in pairs" wall_u overhead
    (List.length composed);
  (* equivalence: both compositions reproduce Pipeline.run exactly *)
  let results = ok_results jobs outcomes in
  let mismatched =
    List.filter
      (fun ((c : Compose.t), u, _, _) ->
        match List.assq_opt c.Compose.job results with
        | Some r -> not (Compose.equivalent c r && Compose.equivalent u r)
        | None -> false)
      composed
  in
  List.iter
    (fun ((c : Compose.t), _, _, _) ->
      problems :=
        !problems @ [ c.Compose.job.P.job_name ^ ": composed stages differ from Pipeline.run" ])
    mismatched;
  say "  equivalence: %d of %d composed jobs identical to Pipeline.run (%d jobs)"
    (List.length composed - List.length mismatched) (List.length composed) n;
  let composed = List.map (fun (c, _, r, _) -> (c, r)) composed in
  (* stage splits and serving-stage replays, outside the composed wall *)
  let probed =
    Driver.Pool.map ~domains:d
      (fun ((c : Compose.t), _) ->
        let config = c.Compose.job.P.job_config in
        let input = c.Compose.job.P.job_test_input in
        let r = Spans.recorder (c.Compose.job.P.job_name ^ "#stages") in
        let cert =
          match (c.Compose.verify, c.Compose.unverified) with
          | Some s, _ -> Ok (certified s)
          | None, Some after ->
            let s =
              Compose.span (Some r) "check.verify" (fun () ->
                  Check.Verify.certify_report ~before:c.Compose.base ~after c.Compose.report)
            in
            if Check.Verify.ok s then Ok (certified s)
            else Error (String.concat "; " (Check.Verify.all_errors s))
          | None, None -> Ok 0
        in
        let _, po = Compose.probe_version (Some r) config c.Compose.original ~input in
        let served, pr = Compose.probe_version (Some r) config c.Compose.reordered ~input in
        Compose.replay_server_stages (Some r) c ~served;
        (c.Compose.job.P.job_name, cert, [ po; pr ], r))
      composed
  in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let certified_total = ref 0 and events = ref 0 and insns = ref 0 and tables = ref 0 in
  List.iter
    (fun (name, cert, probes, _) ->
      (match cert with
      | Ok k -> certified_total := !certified_total + k
      | Error e -> problems := !problems @ [ name ^ ": Check.Verify rejects: " ^ e ]);
      List.iter
        (fun (p : Compose.probe) ->
          events := !events + p.Compose.branch_events;
          insns := !insns + p.Compose.dyn_insns;
          tables := max !tables p.Compose.tables;
          if not p.Compose.drain_matches then
            problems := !problems @ [ name ^ ": batch drain differs from streamed delivery" ])
        probes)
    probed;
  let session, request_spans, session_attempted, session_problems =
    live_session w ~seed ~scratch
  in
  problems := !problems @ session_problems;
  let spans =
    List.concat_map (fun (_, r) -> Spans.spans r) composed
    @ List.concat_map (fun (_, _, _, r) -> Spans.spans r) probed
  in
  let oc = open_out trace_file in
  Spans.to_json oc ~host (spans @ request_spans);
  close_out oc;
  say "  %d spans written to %s" (List.length spans + List.length request_spans) trace_file;
  let totals = Spans.by_name spans in
  let self name = try fst (List.assoc name totals) with Not_found -> 0.0 in
  let count name = List.length (List.filter (fun (s : Spans.span) -> s.Spans.name = name) spans) in
  let per_call_ms name = if count name = 0 then 0.0 else self name *. 1000.0 /. i2f (count name) in
  let words layer =
    List.fold_left
      (fun a (nm, (_, w)) -> if layer_of nm = layer then a +. w else a)
      0.0 totals
    /. 1e6
  in
  let seqs_detected, seqs_reordered =
    List.fold_left
      (fun (a, b) ((c : Compose.t), _) ->
        ( a + Reorder.Pass.detected_count c.Compose.report,
          b + Reorder.Pass.reordered_count c.Compose.report ))
      (0, 0) composed
  in
  let s_ name = m (name ^ "_s") "s" (self name) in
  let metrics =
    [
      s_ "frontend.lower";
      s_ "opt.switch_lower";
      s_ "opt.cleanup";
      s_ "opt.finalize";
      s_ "mir.validate";
      s_ "mir.clone";
      s_ "core.detect";
      s_ "core.profile";
      s_ "core.reorder";
      m "core.seqs_detected" "count" (i2f seqs_detected);
      m "core.seqs_reordered" "count" (i2f seqs_reordered);
      m "core.reorder_yield" "ratio"
        (if seqs_detected = 0 then 0.0 else i2f seqs_reordered /. i2f seqs_detected);
      s_ "check.verify";
      m "check.rewrites_certified" "count" (i2f !certified_total);
      s_ "sim.image";
      s_ "sim.exec";
      m "sim.dyn_insns" "count" (i2f !insns);
      s_ "sim.measure";
      m "sim.predictor_s" "s" (self "sim.measure" -. self "sim.image" -. self "sim.exec")
        ~note:"measure - image - exec";
      s_ "sim.drain";
      m "sim.branch_events" "count" (i2f !events);
      m "sim.predictor_tables" "count" (i2f !tables);
      m "pool.busy_ratio" "ratio" (busy /. (wall_u *. i2f (min d n)));
      m "pool.retries" "count" (i2f retries);
      m "pool.degraded" "count" (i2f degraded);
    ]
    @ session
    @ [
        m "server.exec_ms" "ms" (per_call_ms "server.exec");
        m "server.shadow_ms" "ms" (per_call_ms "server.shadow");
        m "server.reopt_ms" "ms" (per_call_ms "server.reopt");
      ]
    @ List.map
        (fun l -> m ("gc.minor_mw." ^ l) "Mwords" (words l))
        [ "frontend"; "opt"; "mir"; "core"; "check"; "sim"; "server" ]
    @ [
        m "gc.major_collections" "count" (i2f majors);
        m "trace.overhead_s" "s" overhead ~note:"traced - untraced composition, one pair per job";
      ]
  in
  {
    Report.metrics;
    attempted = (2 * n) + session_attempted;
    problems = !problems;
  }
