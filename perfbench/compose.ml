(* One pipeline job rebuilt from the public calls that make it up, in
   [Driver.Pipeline.run]'s order, with a span around each call when a
   recorder is given.  Only the compiled backend is composed: it is the
   backend every benchmark workload runs. *)

module P = Driver.Pipeline
module C = Driver.Config

let span r name f =
  match r with None -> f () | Some r -> Spans.with_span r name f

let sim_config (config : C.t) =
  {
    Sim.Machine.default_config with
    Sim.Machine.fuel = config.C.fuel;
    Sim.Machine.cancel = config.C.cancel;
  }

type t = {
  job : P.job;
  base : Mir.Program.t;  (* optimized, never transformed *)
  seqs : Reorder.Detect.t list;
  table : Sim.Profile.t;
  report : Reorder.Pass.report;
  verify : Check.Verify.summary option;
  unverified : Mir.Program.t option;
      (* a copy of the reordering pass's output, taken outside every layer's
         span before cleanup when the job itself does not verify, so the
         traced run can still certify it *)
  original : P.version;
  reordered : P.version;
}

let run ?r (j : P.job) =
  let config = j.P.job_config in
  if config.C.backend <> `Compiled then
    invalid_arg "Compose.run: only the compiled backend is composed";
  if config.C.common_succ || config.C.profile_layout then
    invalid_arg "Compose.run: common-successor and layout runs are not composed";
  let validate p =
    if config.C.validate then span r "mir.validate" (fun () -> Mir.Validate.check p)
  in
  span r "job" (fun () ->
      let base =
        span r "frontend.lower" (fun () -> Minic.Lower.compile j.P.job_source)
      in
      span r "opt.switch_lower" (fun () ->
          Mopt.Switch_lower.lower_program config.C.heuristic base);
      span r "opt.cleanup" (fun () -> Mopt.Cleanup.run base);
      validate base;
      let seqs = span r "core.detect" (fun () -> P.detect_seqs config base) in
      let table =
        span r "core.profile" (fun () ->
            match config.C.profile with
            | `Static -> Reorder.Profiles.of_static base seqs
            | (`Trained | `Both) as mode ->
              let train = span r "mir.clone" (fun () -> Mir.Clone.program base) in
              let table = Reorder.Profiles.instrument train seqs in
              validate train;
              ignore
                (Sim.Compiled.run_image ~config:(sim_config config)
                   ~profile:table (Sim.Image.build train)
                   ~input:j.P.job_training_input);
              if mode = `Both then Reorder.Profiles.add_static base seqs table;
              table)
      in
      let reord = span r "mir.clone" (fun () -> Mir.Clone.program base) in
      let report =
        span r "core.reorder" (fun () ->
            Reorder.Pass.run ~options:config.C.apply_options
              ~selector:config.C.selector
              ~keep_original_default:config.C.keep_original_default
              ?coalesce_machine:config.C.coalesce_machine reord seqs table)
      in
      let verify =
        if config.C.verify then begin
          let s =
            span r "check.verify" (fun () ->
                Check.Verify.certify_report ~before:base ~after:reord report)
          in
          if not (Check.Verify.ok s) then
            failwith
              (Printf.sprintf "%s: translation validation failed: %s"
                 j.P.job_name
                 (String.concat "; " (Check.Verify.all_errors s)));
          Some s
        end
        else None
      in
      let unverified =
        if verify = None then Some (Mir.Clone.program reord)
        else None
      in
      let orig = span r "mir.clone" (fun () -> Mir.Clone.program base) in
      let finalize p =
        span r "opt.finalize" (fun () ->
            ignore
              (Mopt.Cleanup.finalize
                 ~steal_delay_slots:config.C.delay_fill_from_target p));
        validate p
      in
      finalize orig;
      finalize reord;
      let bank = Sim.Predictor.bank config.C.predictors in
      let measure p =
        span r "sim.measure" (fun () ->
            P.measure config ~bank p ~input:j.P.job_test_input)
      in
      let original = measure orig in
      let reordered = measure reord in
      {
        job = j;
        base;
        seqs;
        table;
        report;
        verify;
        unverified;
        original;
        reordered;
      })

(* the observables the traced run must reproduce exactly *)
let same_version (a : P.version) (b : P.version) =
  a.P.v_counters = b.P.v_counters
  && a.P.v_mispredicts = b.P.v_mispredicts
  && a.P.v_cycles = b.P.v_cycles
  && String.equal a.P.v_output b.P.v_output
  && a.P.v_exit_code = b.P.v_exit_code
  && a.P.v_static_insns = b.P.v_static_insns

let equivalent c (r : P.result) =
  same_version c.original r.P.r_original && same_version c.reordered r.P.r_reordered

(* --- stage replays for the traced run, outside the composed job --- *)

let events_of compiled ~config ~input =
  let buf = ref (Array.make 65536 0) and n = ref 0 in
  let push ~site ~taken =
    if !n = Array.length !buf then begin
      let b = Array.make (2 * !n) 0 in
      Array.blit !buf 0 b 0 !n;
      buf := b
    end;
    Array.unsafe_set !buf !n ((site lsl 1) lor if taken then 1 else 0);
    incr n
  in
  ignore
    (Sim.Compiled.exec ~config ~sink:(Sim.Predictor.Sink_fun push) compiled ~input);
  (!buf, !n)

type probe = {
  dyn_insns : int;
  branch_events : int;
  tables : int;
  drain_matches : bool;  (* batch drain gives the streamed mispredicts *)
}

(* split one measured version into image build, bare execution and a
   batch drain of its recorded branch events through a fresh bank *)
let probe_version r (config : C.t) (v : P.version) ~input =
  let sc = sim_config config in
  let compiled =
    span r "sim.image" (fun () -> Sim.Compiled.compile (Sim.Image.build v.P.v_program))
  in
  let res = span r "sim.exec" (fun () -> Sim.Compiled.exec ~config:sc compiled ~input) in
  let buf, n = events_of compiled ~config:sc ~input in
  let bank = Sim.Predictor.bank config.C.predictors in
  span r "sim.drain" (fun () -> Sim.Predictor.bank_drain bank buf n);
  ( compiled,
    {
      dyn_insns = res.Sim.Machine.counters.Sim.Counters.insns;
      branch_events = n;
      tables = Sim.Predictor.bank_size bank;
      drain_matches = Sim.Predictor.bank_mispredicts bank = v.P.v_mispredicts;
    } )

(* the serving stages a request can pay, replayed on this job's served
   (reordered) program and its input: the plain execution, the sampled
   profiling shadow on the instrumented clone, and a re-optimization *)
let replay_server_stages r c ~served =
  let config = c.job.P.job_config and input = c.job.P.job_test_input in
  let sc = sim_config config in
  ignore (span r "server.exec" (fun () -> Sim.Compiled.exec ~config:sc served ~input));
  let train, table = P.instrument config c.base c.seqs in
  let train = Sim.Compiled.compile (Sim.Image.build train) in
  let shard = Sim.Profile.copy_shape table in
  let bank = Sim.Predictor.bank config.C.predictors in
  ignore
    (span r "server.shadow" (fun () ->
         Sim.Compiled.exec ~config:sc ~profile:shard
           ~sink:(Sim.Predictor.Sink_bank bank) train ~input));
  ignore
    (span r "server.reopt" (fun () ->
         P.reoptimize config ~name:c.job.P.job_name c.base c.seqs c.table))
