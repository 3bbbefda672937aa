(* bromc: the branch-reordering MiniC compiler driver.

   Subcommands:
     compile   parse, optimize and dump MIR
     run       compile and execute on an input, printing counters
     reorder   the full two-pass pipeline with before/after measurements
     suite     reorder many workloads at once, fanned across domains
     fuzz      random programs through the pipeline: translation
               validation + differential execution (--inject plants
               wrong-target bugs the verifier must catch)
     lint      structured static-analysis diagnostics (interval facts,
               arm subsumption/overlap, not-reorderable explanations)
     dot       Graphviz CFGs, optionally annotated with dataflow facts
     workloads list the built-in benchmark programs
     cache     inspect/prune the native artifact store and caches
     serve     long-running optimization service (line protocol)
     replay    simulated production traffic against a server *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let heuristic_of_string = function
  | "I" | "i" | "1" -> Ok Mopt.Switch_lower.set_i
  | "II" | "ii" | "2" -> Ok Mopt.Switch_lower.set_ii
  | "III" | "iii" | "3" -> Ok Mopt.Switch_lower.set_iii
  | s -> Error (`Msg (Printf.sprintf "unknown heuristic set %S (use I, II or III)" s))

let heuristic_conv =
  Arg.conv
    ( heuristic_of_string,
      fun ppf hs -> Format.pp_print_string ppf hs.Mopt.Switch_lower.hs_name )

let heuristic_arg =
  Arg.(
    value
    & opt heuristic_conv Mopt.Switch_lower.set_i
    & info [ "h-set"; "heuristic" ] ~docv:"SET"
        ~doc:"Switch translation heuristic set: I, II or III (paper Table 2).")

let source_arg kind =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOURCE"
        ~doc:
          (Printf.sprintf
             "MiniC source file to %s, or a built-in workload name prefixed \
              with '@' (e.g. @wc)."
             kind))

let load_source path =
  if String.length path > 1 && path.[0] = '@' then
    let name = String.sub path 1 (String.length path - 1) in
    (Workloads.Registry.find name).Workloads.Spec.source
  else read_file path

let is_mir_file path =
  String.length path > 4 && String.sub path (String.length path - 4) 4 = ".mir"

(* a source path is either MiniC (compiled) or textual MIR (parsed) *)
let load_program path hs =
  if is_mir_file path then begin
    let prog = Mir.Parse.program (read_file path) in
    Mir.Validate.check prog;
    prog
  end
  else begin
    let prog = Minic.Lower.compile (load_source path) in
    Mopt.Switch_lower.lower_program hs prog;
    ignore (Mopt.Cleanup.finalize prog);
    Mir.Validate.check prog;
    prog
  end

let handle_errors f =
  try f () with
  | Minic.Srcloc.Error (loc, msg) ->
    Printf.eprintf "error: %s\n" (Minic.Srcloc.error_to_string loc msg);
    exit 1
  | Driver.Pool.Job_error (i, label, e) ->
    Printf.eprintf "error: job %d (%s) failed: %s\n" i label
      (match e with
      | Sim.Machine.Trap m -> "runtime trap: " ^ m
      | Failure m -> m
      | e -> Printexc.to_string e);
    exit 1
  | Sim.Machine.Trap msg ->
    Printf.eprintf "runtime trap: %s\n" msg;
    exit 1
  | Mir.Parse.Error (line, msg) ->
    Printf.eprintf "error: line %d: %s\n" line msg;
    exit 1
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Not_found ->
    Printf.eprintf "error: no such file or workload\n";
    exit 1

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run source hs raw dot =
    handle_errors (fun () ->
        let prog =
          if is_mir_file source then Mir.Parse.program (read_file source)
          else begin
            let prog = Minic.Lower.compile (load_source source) in
            if not raw then begin
              Mopt.Switch_lower.lower_program hs prog;
              ignore (Mopt.Cleanup.finalize prog);
              Mir.Validate.check prog
            end;
            prog
          end
        in
        if dot then Format.printf "%a" (Mir.Dot.program ?annot:None) prog
        else begin
          print_string (Mir.Program.to_string prog);
          Printf.printf "\n; static instructions: %d\n"
            (Mir.Program.static_insn_count prog)
        end)
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit Graphviz CFGs instead of textual MIR.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ] ~doc:"Dump the front end's output without optimization.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC and dump the optimized MIR.")
    Term.(const run $ source_arg "compile" $ heuristic_arg $ raw $ dot)

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input"; "i" ] ~docv:"FILE"
        ~doc:"Input file fed to the simulated program (default: empty).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Report per-stage wall-clock times on stderr.")

let backend_conv =
  let parse = function
    | "reference" | "ref" -> Ok `Reference
    | "predecoded" | "image" -> Ok `Predecoded
    | "compiled" | "closure" -> Ok `Compiled
    | "native" -> Ok `Native
    | s ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown backend %S (use reference, predecoded, compiled or \
              native)" s))
  in
  let print ppf b =
    Format.pp_print_string ppf
      (match b with
      | `Reference -> "reference"
      | `Predecoded -> "predecoded"
      | `Compiled -> "compiled"
      | `Native -> "native")
  in
  Arg.conv (parse, print)

let backend_arg default =
  Arg.(
    value
    & opt backend_conv default
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution engine: $(b,reference) (MIR-walking oracle), \
           $(b,predecoded) (flat-image interpreter), $(b,compiled) \
           (closure-threaded code) or $(b,native) (runtime OCaml codegen \
           via ocamlfind + Dynlink; falls back to compiled when no \
           toolchain is present).  All four are observably identical.")

let profile_conv =
  let parse s =
    match Driver.Config.profile_of_name s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown profile source %S (use trained, static or both)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Driver.Config.profile_name p)
  in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(
    value
    & opt profile_conv `Trained
    & info [ "profile" ] ~docv:"SOURCE"
        ~doc:
          "Where the profile counts come from: $(b,trained) (a training \
           run over the training input; the paper's baseline), \
           $(b,static) (no training run — heuristic branch probabilities \
           propagated into CFG frequencies, Ball-Larus/Wu-Larus style) or \
           $(b,both) (train, then backfill sequences the training input \
           never exercised with the static prediction).")

(* native artifact-store options, shared by every command that can select
   --backend=native; applied both process-wide (for Sim.Native callers
   that do not thread a Config) and onto the driver Config *)
let native_cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "native-cache" ] ~docv:"DIR"
        ~doc:
          "Directory of the native backend's compiled-artifact store \
           (default: $(b,BROMC_NATIVE_CACHE), else \
           \\$XDG_CACHE_HOME/bromc/native).")

let no_native_cache_arg =
  Arg.(
    value & flag
    & info [ "no-native-cache" ]
        ~doc:
          "Do not read or write the on-disk artifact store; native code is \
           rebuilt in a temporary directory and discarded (the in-process \
           memo still applies).")

let apply_native_opts dir no_cache =
  (match dir with Some _ -> Sim.Native.set_default_cache_dir dir | None -> ());
  if no_cache then Sim.Native.set_default_use_cache false

(* resolve `Native for ungraded commands: warn and degrade to `Compiled
   when the toolchain cannot deliver, instead of dying on Unavailable *)
let resolve_backend backend =
  match backend with
  | `Native when not (Sim.Native.available ()) ->
    Printf.eprintf
      "warning: native backend unavailable (no working ocamlfind/Dynlink \
       toolchain); falling back to compiled\n%!";
    `Compiled
  | b -> b

let report_stage label seconds = Printf.eprintf "[time] %-8s %7.3fs\n" label seconds

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Translation-validate every sequence rewrite (Check.Verify) right \
           after the reordering pass; a rejected rewrite aborts the run.")

let run_cmd =
  let run source hs input trace reference backend timings ncache_dir
      no_ncache =
    handle_errors (fun () ->
        apply_native_opts ncache_dir no_ncache;
        let stage label f =
          if not timings then f ()
          else begin
            let t0 = Unix.gettimeofday () in
            let r = f () in
            report_stage label (Unix.gettimeofday () -. t0);
            r
          end
        in
        let prog = stage "compile" (fun () -> load_program source hs) in
        let input = match input with Some f -> read_file f | None -> "" in
        let on_block =
          if trace then
            Some (fun ~func ~label -> Printf.eprintf "[trace] %s:%s\n" func label)
          else None
        in
        let backend =
          resolve_backend (if reference then `Reference else backend)
        in
        let result =
          stage "measure" (fun () -> Sim.Machine.run ~backend ?on_block prog ~input)
        in
        print_string result.Sim.Machine.output;
        Printf.eprintf "exit code: %d\n" result.Sim.Machine.exit_code;
        Format.eprintf "%a@." Sim.Counters.pp result.Sim.Machine.counters)
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print every basic block executed to stderr (control-flow trace).")
  in
  let reference =
    Arg.(
      value & flag
      & info [ "reference" ]
          ~doc:
            "Interpret the MIR directly instead of the fast backends \
             (shorthand for $(b,--backend=reference)).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a MiniC program on the simulator.")
    Term.(
      const run $ source_arg "run" $ heuristic_arg $ input_arg $ trace
      $ reference $ backend_arg `Compiled $ timings_arg
      $ native_cache_dir_arg $ no_native_cache_arg)

let reorder_cmd =
  let run source hs train test exhaustive common_succ coalesce profile_layout
      profile backend timings verify ncache_dir no_ncache =
    handle_errors (fun () ->
        apply_native_opts ncache_dir no_ncache;
        let backend = resolve_backend backend in
        let name = source in
        let src = load_source source in
        let training_input, test_input =
          match source.[0], train, test with
          | '@', None, None ->
            let w =
              Workloads.Registry.find (String.sub source 1 (String.length source - 1))
            in
            ( Lazy.force w.Workloads.Spec.training_input,
              Lazy.force w.Workloads.Spec.test_input )
          | _, train, test ->
            ( (match train with Some f -> read_file f | None -> ""),
              match test with Some f -> read_file f | None -> "" )
        in
        let config =
          {
            Driver.Config.default with
            Driver.Config.heuristic = hs;
            selector = (if exhaustive then `Exhaustive else `Greedy);
            common_succ;
            profile_layout;
            profile;
            backend;
            native_cache_dir = ncache_dir;
            native_cache = not no_ncache;
            verify;
            coalesce_machine =
              (match coalesce with
              | Some "ipc" -> Some Sim.Cycle_model.sparc_ipc
              | Some "ss20" -> Some Sim.Cycle_model.sparc_20
              | Some "ultra" -> Some Sim.Cycle_model.sparc_ultra1
              | Some other ->
                failwith
                  (Printf.sprintf "unknown machine %S (use ipc, ss20 or ultra)"
                     other)
              | None -> None);
          }
        in
        let on_stage = if timings then Some report_stage else None in
        let r =
          Driver.Pipeline.run ~config ?on_stage ~name ~source:src
            ~training_input ~test_input ()
        in
        (match r.Driver.Pipeline.r_verify with
        | Some summary ->
          print_string (Format.asprintf "%a" Check.Verify.pp_summary summary)
        | None -> ());
        let o = r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters in
        let n = r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters in
        print_string
          (Format.asprintf "%a" Reorder.Pass.pp_report r.Driver.Pipeline.r_report);
        print_string
          (Format.asprintf "%a\n" Reorder.Stats.pp r.Driver.Pipeline.r_stats);
        Printf.printf "instructions: %d -> %d (%+.2f%%)\n"
          o.Sim.Counters.insns n.Sim.Counters.insns
          (Driver.Pipeline.pct o.Sim.Counters.insns n.Sim.Counters.insns);
        Printf.printf "branches:     %d -> %d (%+.2f%%)\n"
          o.Sim.Counters.cond_branches n.Sim.Counters.cond_branches
          (Driver.Pipeline.pct o.Sim.Counters.cond_branches
             n.Sim.Counters.cond_branches);
        Printf.printf "static insns: %d -> %d (%+.2f%%)\n"
          r.Driver.Pipeline.r_original.Driver.Pipeline.v_static_insns
          r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_static_insns
          (Driver.Pipeline.pct
             r.Driver.Pipeline.r_original.Driver.Pipeline.v_static_insns
             r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_static_insns))
  in
  let train =
    Arg.(
      value
      & opt (some string) None
      & info [ "train" ] ~docv:"FILE" ~doc:"Training input (profiling run).")
  in
  let test =
    Arg.(
      value
      & opt (some string) None
      & info [ "test" ] ~docv:"FILE" ~doc:"Test input (measurement runs).")
  in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:"Use the exhaustive ordering search instead of Figure 8's greedy.")
  in
  let common_succ =
    Arg.(
      value & flag
      & info [ "common-succ" ]
          ~doc:"Also reorder common-successor branch runs (paper Section 10).")
  in
  let coalesce =
    Arg.(
      value
      & opt (some string) None
      & info [ "coalesce" ] ~docv:"MACHINE"
          ~doc:
            "Let the profile choose between reordering and an indirect jump \
             under this machine's cost model (ipc, ss20 or ultra).")
  in
  let profile_layout =
    Arg.(
      value & flag
      & info [ "profile-layout" ]
          ~doc:"Also lay blocks out with training-run branch frequencies.")
  in
  Cmd.v
    (Cmd.info "reorder"
       ~doc:"Run the full profile-guided reordering pipeline and report.")
    Term.(
      const run $ source_arg "reorder" $ heuristic_arg $ train $ test
      $ exhaustive $ common_succ $ coalesce $ profile_layout $ profile_arg
      $ backend_arg `Compiled $ timings_arg $ verify_arg
      $ native_cache_dir_arg $ no_native_cache_arg)

(* flags shared by the fault-tolerant commands (suite, fuzz, bench) *)
let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt wall-clock watchdog: a run exceeding $(docv) is \
           cancelled at the next basic block and reported as a timeout.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a crashed job up to $(docv) extra times with seeded \
           exponential backoff before giving up (traps and timeouts are \
           deterministic and never retried).")

let failures_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failures-json" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable manifest (one JSON object per line, \
           flushed incrementally) recording every job's outcome to $(docv).")

let suite_cmd =
  let run hs jobs backend verify profile names fail_fast timeout_ms retries
      failures_json inject_n inject_seed no_degrade ncache_dir no_ncache =
    handle_errors (fun () ->
        apply_native_opts ncache_dir no_ncache;
        let workloads =
          match names with
          | [] -> Workloads.Registry.all
          | names -> List.map Workloads.Registry.find names
        in
        let config =
          {
            Driver.Config.default with
            Driver.Config.heuristic = hs;
            backend;
            native_cache_dir = ncache_dir;
            native_cache = not no_ncache;
            verify;
            profile;
          }
        in
        (* force the lazy inputs in this domain before fanning out *)
        let jobs_list =
          List.map
            (fun (w : Workloads.Spec.t) ->
              Driver.Pipeline.job ~config ~name:w.Workloads.Spec.name
                ~source:w.Workloads.Spec.source
                ~training_input:(Lazy.force w.Workloads.Spec.training_input)
                ~test_input:(Lazy.force w.Workloads.Spec.test_input)
                ())
            workloads
        in
        let domains =
          max 1
            (match jobs with
            | Some j -> j
            | None -> Driver.Pool.default_domains ())
        in
        if fail_fast && inject_n > 0 then
          raise
            (Failure
               "--fail-fast bypasses the guarded runner; it cannot be \
                combined with --inject");
        if fail_fast then begin
          (* legacy abort-on-first-failure path *)
          let t0 = Unix.gettimeofday () in
          let results = Driver.Pipeline.run_jobs ~domains jobs_list in
          let wall = Unix.gettimeofday () -. t0 in
          Printf.printf "%-8s %12s %12s %9s %8s\n" "workload" "orig insns"
            "reord insns" "reduction" "seconds";
          List.iter
            (fun ((r : Driver.Pipeline.result), seconds) ->
              let o = r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters in
              let n =
                r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
              in
              Printf.printf "%-8s %12d %12d %8.2f%% %8.3f\n"
                r.Driver.Pipeline.r_name o.Sim.Counters.insns
                n.Sim.Counters.insns
                (Driver.Pipeline.pct o.Sim.Counters.insns n.Sim.Counters.insns)
                seconds)
            results;
          Printf.printf "total: %.2fs on %d domain(s)\n" wall domains
        end
        else begin
          (* guarded keep-going path: every job runs to a structured
             outcome, failures cannot abort or disturb siblings *)
          let policy =
            {
              Driver.Guard.default with
              Driver.Guard.timeout_ms;
              retries;
              seed = inject_seed;
              degrade = not no_degrade;
            }
          in
          let faults =
            if inject_n > 0 then
              Driver.Inject.plan ~seed:inject_seed
                ~jobs:(List.length jobs_list) ~count:inject_n
            else []
          in
          let t0 = Unix.gettimeofday () in
          let outcomes =
            Driver.Pipeline.run_jobs_guarded ~domains ~policy ~inject:faults
              jobs_list
          in
          let wall = Unix.gettimeofday () -. t0 in
          Printf.printf "%-8s %-8s %12s %12s %9s %5s %-10s %8s\n" "workload"
            "status" "orig insns" "reord insns" "reduction" "tries" "backend"
            "seconds";
          List.iter
            (fun (o : Driver.Pipeline.job_outcome) ->
              let backend =
                o.Driver.Pipeline.o_backend
                ^ if o.Driver.Pipeline.o_degraded then "*" else ""
              in
              match o.Driver.Pipeline.o_outcome with
              | Driver.Pool.Ok r ->
                let c_o =
                  r.Driver.Pipeline.r_original.Driver.Pipeline.v_counters
                in
                let c_n =
                  r.Driver.Pipeline.r_reordered.Driver.Pipeline.v_counters
                in
                Printf.printf "%-8s %-8s %12d %12d %8.2f%% %5d %-10s %8.3f\n"
                  o.Driver.Pipeline.o_name "ok" c_o.Sim.Counters.insns
                  c_n.Sim.Counters.insns
                  (Driver.Pipeline.pct c_o.Sim.Counters.insns
                     c_n.Sim.Counters.insns)
                  o.Driver.Pipeline.o_attempts backend
                  o.Driver.Pipeline.o_seconds
              | out ->
                Printf.printf "%-8s %-8s %12s %12s %9s %5d %-10s %8.3f\n"
                  o.Driver.Pipeline.o_name (Driver.Pool.outcome_status out) "-"
                  "-" "-" o.Driver.Pipeline.o_attempts backend
                  o.Driver.Pipeline.o_seconds;
                Printf.printf "  %s\n" (Driver.Pool.outcome_message out))
            outcomes;
          let count p = List.length (List.filter p outcomes) in
          let is_ok (o : Driver.Pipeline.job_outcome) =
            Driver.Pool.outcome_ok o.Driver.Pipeline.o_outcome
          in
          let failed = count (fun o -> not (is_ok o)) in
          let retried =
            count (fun o -> is_ok o && o.Driver.Pipeline.o_retried > 0)
          in
          let degraded = count (fun o -> o.Driver.Pipeline.o_degraded) in
          Printf.printf
            "total: %.2fs on %d domain(s); %d ok (%d retried, %d degraded), \
             %d failed\n"
            wall domains
            (count is_ok)
            retried degraded failed;
          (match failures_json with
          | Some path ->
            Driver.Manifest.write path
              (List.map Driver.Pipeline.manifest_of_outcome outcomes);
            Printf.eprintf "failure manifest written to %s\n" path
          | None -> ());
          if faults <> [] then begin
            (* containment certification: every planted fault must have
               bitten and been either recovered or attributed; no
               non-victim job may fail *)
            let escapes =
              List.filter_map
                (fun (f : Driver.Inject.fault) ->
                  let o = List.nth outcomes f.Driver.Inject.i_job in
                  if
                    is_ok o
                    && o.Driver.Pipeline.o_retried = 0
                    && not o.Driver.Pipeline.o_degraded
                  then
                    Some
                      (Format.asprintf "%a: fault left no trace (escape)"
                         Driver.Inject.pp_fault f)
                  else None)
                faults
            in
            let collateral =
              List.filter_map
                (fun (o : Driver.Pipeline.job_outcome) ->
                  if o.Driver.Pipeline.o_injected = "" && not (is_ok o) then
                    Some
                      (Printf.sprintf "job %d (%s) failed without a fault: %s"
                         o.Driver.Pipeline.o_index o.Driver.Pipeline.o_name
                         (Driver.Pool.outcome_message
                            o.Driver.Pipeline.o_outcome))
                  else None)
                outcomes
            in
            Printf.printf
              "injection: %d faults planted, %d recovered, %d contained \
               failures, %d escapes, %d collateral\n"
              (List.length faults)
              (List.length
                 (List.filter
                    (fun (f : Driver.Inject.fault) ->
                      is_ok (List.nth outcomes f.Driver.Inject.i_job))
                    faults))
              (List.length
                 (List.filter
                    (fun (f : Driver.Inject.fault) ->
                      not (is_ok (List.nth outcomes f.Driver.Inject.i_job)))
                    faults))
              (List.length escapes) (List.length collateral);
            List.iter (Printf.eprintf "error: %s\n") (escapes @ collateral);
            if escapes <> [] || collateral <> [] then exit 1
          end
          else if failed > 0 then exit 1
        end)
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of domains to fan pipelines across (default: the \
             machine's recommended domain count, or \\$(b,BROMC_DOMAINS)).")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workloads to run (default: all built-ins).")
  in
  let fail_fast =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the whole suite on the first failing workload (legacy \
             behaviour).  The default keeps going: every workload runs to a \
             structured outcome and failures are reported together.")
  in
  let inject_n =
    Arg.(
      value & opt int 0
      & info [ "inject" ] ~docv:"N"
          ~doc:
            "Fault-injection self-test: plant $(docv) seeded faults (worker \
             exceptions, traps, fuel and deadline exhaustion, wrong-result \
             corruption) into distinct jobs and require every one to be \
             contained — recovered by retry/degradation or attributed in the \
             outcome — with all sibling results intact.  Exits nonzero on \
             any escape.")
  in
  let inject_seed =
    Arg.(
      value & opt int 0
      & info [ "inject-seed" ] ~docv:"S"
          ~doc:"Seed for the fault plan and retry backoff jitter.")
  in
  let no_degrade =
    Arg.(
      value & flag
      & info [ "no-degrade" ]
          ~doc:
            "Disable backend graceful degradation (by default a job whose \
             attempts crash on the requested backend is retried down the \
             native > compiled > predecoded > reference ladder; a missing \
             native toolchain counts as a crash of the native rung).")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run the reordering pipeline over many workloads in parallel and \
          print the per-workload instruction reductions.  Jobs are guarded: \
          crashes, traps and timeouts are contained per job and reported \
          together (see $(b,--fail-fast), $(b,--timeout-ms), $(b,--retries), \
          $(b,--inject)).")
    Term.(
      const run $ heuristic_arg $ jobs $ backend_arg `Compiled $ verify_arg
      $ profile_arg $ names $ fail_fast $ timeout_ms_arg $ retries_arg
      $ failures_json_arg $ inject_n $ inject_seed $ no_degrade
      $ native_cache_dir_arg $ no_native_cache_arg)

(* trained/static only: `Both is a pipeline notion (train + backfill);
   the per-case fuzz and corpus harnesses have exactly one counts
   source *)
let profile2_conv =
  let parse = function
    | "trained" -> Ok `Trained
    | "static" -> Ok `Static
    | s ->
      Error
        (`Msg
          (Printf.sprintf "unknown profile source %S (use trained or static)"
             s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with `Trained -> "trained" | `Static -> "static")
  in
  Arg.conv (parse, print)

let profile2_arg =
  Arg.(
    value
    & opt profile2_conv `Trained
    & info [ "profile" ] ~docv:"SOURCE"
        ~doc:
          "Counts source for every case: $(b,trained) (a training run on \
           the case's training input) or $(b,static) (profile-free \
           heuristic prediction; no training run).")

let fuzz_cmd =
  let run cases seed backend native inject profile save_failure corpus_dir
      quiet failures_json resume timeout_ms =
    handle_errors (fun () ->
        let backends =
          match (backend, native) with
          | Some b, _ -> [ (b :> Check.Fuzz.backend) ]
          | None, true -> Check.Fuzz.all_backends ()
          | None, false -> Check.Fuzz.default_backends
        in
        let log = if quiet then ignore else fun m -> Printf.eprintf "%s\n%!" m in
        (* resume: cases already green in a previous (possibly killed)
           run's manifest are skipped, and their entries carried forward *)
        let green =
          match resume with
          | None -> []
          | Some path ->
            List.filter
              (fun (e : Driver.Manifest.entry) ->
                Driver.Manifest.ok e && e.Driver.Manifest.e_id < cases)
              (Driver.Manifest.read path)
        in
        let green_ids = Hashtbl.create 64 in
        List.iter
          (fun (e : Driver.Manifest.entry) ->
            Hashtbl.replace green_ids e.Driver.Manifest.e_id ())
          green;
        let writer = Option.map Driver.Manifest.create failures_json in
        (match writer with
        | Some w -> List.iter (Driver.Manifest.add w) green
        | None -> ());
        let on_case =
          Option.map
            (fun w case status ->
              Driver.Manifest.add w
                (Driver.Manifest.entry
                   ~label:(Printf.sprintf "case-%d" case)
                   ~id:case ~status ()))
            writer
        in
        let skip =
          if Hashtbl.length green_ids = 0 then None
          else Some (Hashtbl.mem green_ids)
        in
        let stats =
          Fun.protect
            ~finally:(fun () ->
              match writer with Some w -> Driver.Manifest.close w | None -> ())
            (fun () ->
              Check.Fuzz.run ~backends ~inject ~log ~profile ?skip ?on_case
                ?deadline_ms:timeout_ms ~cases ~seed ())
        in
        print_string (Format.asprintf "%a" Check.Fuzz.pp_stats stats);
        if inject && stats.Check.Fuzz.st_injected = 0 then begin
          Printf.eprintf
            "error: no case reordered, nothing could be injected — the run is \
             vacuous\n";
          exit 1
        end;
        if inject && stats.Check.Fuzz.st_caught < stats.Check.Fuzz.st_injected
        then begin
          Printf.eprintf "error: the verifier missed %d injected bug(s)\n"
            (stats.Check.Fuzz.st_injected - stats.Check.Fuzz.st_caught);
          exit 1
        end;
        if not (Check.Fuzz.ok stats) then begin
          (match save_failure with
          | Some path ->
            let oc = open_out path in
            List.iter
              (fun f ->
                output_string oc
                  (Format.asprintf "%a\n" Check.Fuzz.pp_failure f))
              stats.Check.Fuzz.st_failures;
            close_out oc;
            Printf.eprintf "shrunk counterexamples written to %s\n" path
          | None -> ());
          (match corpus_dir with
          | Some dir ->
            (* freeze each shrunk counterexample as a replayable repro *)
            List.iter
              (fun f ->
                let r = Bench_db.Corpus.mint_from_failure ~seed f in
                Printf.eprintf "repro written to %s\n"
                  (Bench_db.Corpus.save ~dir r))
              stats.Check.Fuzz.st_failures
          | None -> ());
          exit 1
        end)
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"N" ~doc:"Number of random programs to fuzz.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"PRNG seed; runs are deterministic in the seed.")
  in
  let backend_opt =
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Restrict differential execution to one engine (default: race \
             reference, predecoded and compiled against each other).")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also race the native backend in every differential (slow: one \
             out-of-process compile per generated program; skipped with a \
             note when no toolchain is available).")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject" ]
          ~doc:
            "Plant a wrong-default-target bug into every reordered result and \
             require Check.Verify to reject each one (self-test of the \
             verifier; fails if any planted bug goes unnoticed).")
  in
  let save_failure =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-failure" ] ~docv:"FILE"
          ~doc:"Write shrunk counterexamples of failing cases to $(docv).")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:
            "Freeze each shrunk counterexample as a $(b,.mir) repro under \
             $(docv), ready for $(b,bromc bench corpus) to replay — the \
             flywheel's minimization loop.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress progress lines on stderr.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint manifest written by a previous \
             $(b,--failures-json) run (killed or complete): cases it already \
             proved green are skipped, and their entries carried forward into \
             this run's manifest.  Sound because the corpus is deterministic \
             in $(b,--seed).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the reordering pipeline: random programs through generate → \
          train → reorder → translation-validate (Check.Verify) → \
          differential execution across backends, with shrunk \
          counterexamples on failure.  $(b,--failures-json) checkpoints one \
          manifest line per case as it completes; $(b,--resume) skips cases \
          an earlier manifest already proved green; $(b,--timeout-ms) arms a \
          per-case watchdog.")
    Term.(
      const run $ cases $ seed $ backend_opt $ native $ inject $ profile2_arg
      $ save_failure $ corpus_dir $ quiet $ failures_json_arg $ resume
      $ timeout_ms_arg)

let lint_cmd =
  let run source hs json no_explain facts divergence input =
    (* exit-code contract: 0 = clean, 1 = diagnostics, 2 = error.  The
       shared [handle_errors] exits 1, which here means "diagnostics
       found", so lint handles its own failures. *)
    let fail msg =
      Printf.eprintf "error: %s\n" msg;
      exit 2
    in
    let prog =
      try load_program source hs with
      | Minic.Srcloc.Error (loc, msg) ->
        fail (Minic.Srcloc.error_to_string loc msg)
      | Mir.Parse.Error (line, msg) ->
        fail (Printf.sprintf "line %d: %s" line msg)
      | Failure msg -> fail msg
      | Sys_error msg -> fail msg
      | Not_found -> fail "no such file or workload"
    in
    let diags =
      try
        Analysis.Lint.check_program prog
        @ (if no_explain then []
           else Reorder.Explain.explain_program ~facts prog)
        @
        if not divergence then []
        else begin
          (* measure the branches on a reference run, then flag the ones
             where the static prediction sits on the wrong side of 0.5 *)
          let run_input =
            match input with
            | Some f -> read_file f
            | None ->
              if String.length source > 0 && source.[0] = '@' then
                Lazy.force
                  (Workloads.Registry.find
                     (String.sub source 1 (String.length source - 1)))
                    .Workloads.Spec.training_input
              else ""
          in
          let sites = Sim.Machine.sites prog in
          let measured = Hashtbl.create 64 in
          let on_branch ~site ~taken =
            let key = sites.(site) in
            let t, f =
              Option.value ~default:(0, 0) (Hashtbl.find_opt measured key)
            in
            Hashtbl.replace measured key
              (if taken then (t + 1, f) else (t, f + 1))
          in
          (try
             ignore
               (Sim.Machine.run ~backend:`Reference ~on_branch prog
                  ~input:run_input)
           with Sim.Machine.Trap _ -> ()
             (* branch counts up to a trap still count *));
          Analysis.Lint.divergence prog ~observed:(fun ~func ~label ->
              Hashtbl.find_opt measured (func, label))
        end
      with Failure msg -> fail msg
    in
    if json then print_string (Analysis.Lint.to_json diags)
    else
      List.iter
        (fun d -> Format.printf "%a@\n" Analysis.Lint.pp_diag d)
        diags;
    exit (if diags = [] then 0 else 1)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the diagnostics as a JSON array on stdout.")
  in
  let no_explain =
    Arg.(
      value & flag
      & info [ "no-explain" ]
          ~doc:
            "Suppress the not-reorderable explanations for lone range \
             tests; report only the interval-fact diagnostics.")
  in
  let facts =
    Arg.(
      value
      & opt bool true
      & info [ "facts" ] ~docv:"BOOL"
          ~doc:
            "Run the not-reorderable walk with interval-facts detection \
             (default true), so the reasons reflect what even the \
             strengthened detection cannot admit.")
  in
  let divergence =
    Arg.(
      value & flag
      & info [ "divergence" ]
          ~doc:
            "Also run the program on the reference interpreter and report \
             every branch whose static heuristic prediction and measured \
             behaviour sit on opposite sides of 50% — where \
             $(b,--profile=static) and $(b,--profile=trained) would \
             reorder differently.  Advisory: predictions are heuristic, \
             not proved.")
  in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ; "i" ] ~docv:"FILE"
          ~doc:
            "Input for the $(b,--divergence) measurement run (default: the \
             workload's training input for $(b,@)-sources, else empty).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a program and report proved diagnostics: \
          unreachable blocks, branches decidable from interval facts, \
          subsumed and overlapping range-test arms, and why lone range \
          tests are not reorderable.  Exit code 0 = clean, 1 = \
          diagnostics reported, 2 = error.")
    Term.(
      const run $ source_arg "lint" $ heuristic_arg $ json $ no_explain
      $ facts $ divergence $ input)

let dot_cmd =
  let run source hs facts =
    handle_errors (fun () ->
        let prog = load_program source hs in
        let annot =
          match facts with
          | None -> None
          | Some `Intervals ->
            Some
              (fun (fn : Mir.Func.t) ->
                let fx = Analysis.Intervals.analyze fn in
                let regs =
                  List.sort_uniq Mir.Reg.compare
                    (fn.Mir.Func.params
                    @ List.concat_map
                        (fun (b : Mir.Block.t) ->
                          List.concat_map
                            (fun i -> Mir.Insn.defs i @ Mir.Insn.uses i)
                            b.Mir.Block.insns)
                        fn.Mir.Func.blocks)
                in
                fun (b : Mir.Block.t) ->
                  if not (Analysis.Intervals.reachable fx b.Mir.Block.label)
                  then Some "unreachable"
                  else
                    let facts =
                      List.filter_map
                        (fun r ->
                          let iv =
                            Analysis.Intervals.reg_in fx b.Mir.Block.label r
                          in
                          if Analysis.Iv.equal iv Analysis.Iv.top then None
                          else
                            Some
                              (Format.asprintf "%a:%a" Mir.Reg.pp r
                                 Analysis.Iv.pp iv))
                        regs
                    in
                    if facts = [] then None
                    else Some (String.concat " " facts))
          | Some `Live ->
            Some
              (fun (fn : Mir.Func.t) ->
                let lv = Mir.Liveness.compute fn in
                fun (b : Mir.Block.t) ->
                  let set = Mir.Liveness.live_in lv b.Mir.Block.label in
                  if Mir.Reg.Set.is_empty set then None
                  else
                    Some
                      (Format.asprintf "live: %a"
                         (Format.pp_print_list ~pp_sep:Format.pp_print_space
                            Mir.Reg.pp)
                         (Mir.Reg.Set.elements set)))
          | Some `Freq ->
            Some
              (fun (fn : Mir.Func.t) ->
                let loops = Mir.Loops.analyze fn in
                let heur = Analysis.Heur.analyze ~loops fn in
                let freq = Analysis.Freq.analyze ~heur ~loops fn in
                fun (b : Mir.Block.t) ->
                  let label = b.Mir.Block.label in
                  if not (Analysis.Freq.reached freq label) then
                    Some "freq: unreached"
                  else
                    let parts =
                      Printf.sprintf "freq %.3g"
                        (Analysis.Freq.block_freq freq label)
                      :: List.filter_map
                           (fun (s, p) ->
                             (* annotate real splits only; jumps are 1 *)
                             if p >= 1. then None
                             else Some (Printf.sprintf "->%s %.2f" s p))
                           (Analysis.Freq.succ_probs freq label)
                    in
                    Some (String.concat " " parts))
        in
        Format.printf "%a" (Mir.Dot.program ?annot) prog)
  in
  let facts =
    let facts_conv =
      Arg.conv
        ( (function
          | "intervals" -> Ok `Intervals
          | "live" -> Ok `Live
          | "freq" -> Ok `Freq
          | s ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown facts %S (use intervals, live or freq)" s))),
          fun ppf f ->
            Format.pp_print_string ppf
              (match f with
              | `Intervals -> "intervals"
              | `Live -> "live"
              | `Freq -> "freq") )
    in
    Arg.(
      value
      & opt (some facts_conv) None
      & info [ "facts" ] ~docv:"KIND"
          ~doc:
            "Annotate each block with dataflow facts: $(b,intervals) \
             (value ranges at block entry), $(b,live) (registers live \
             at block entry) or $(b,freq) (predicted execution frequency \
             and heuristic branch probabilities — what \
             $(b,--profile=static) feeds the reorderer).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit Graphviz CFGs for a program, optionally annotated with \
          dataflow analysis facts.")
    Term.(const run $ source_arg "render" $ heuristic_arg $ facts)

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Spec.t) ->
        Printf.printf "%-8s %s\n" w.Workloads.Spec.name
          w.Workloads.Spec.description)
      Workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the built-in Table 3 benchmark programs.")
    Term.(const run $ const ())

let cache_cmd =
  let run dir clear evict_stale verify =
    handle_errors (fun () ->
        let dir =
          match dir with Some d -> d | None -> Sim.Native.Cache.default_dir ()
        in
        if verify then begin
          let r = Sim.Native.Cache.verify ~dir () in
          Printf.printf
            "verified %d artifact(s) in %s: %d ok, %d adopted (checksum \
             written), %d quarantined\n"
            r.Sim.Native.Cache.v_checked dir r.Sim.Native.Cache.v_ok
            r.Sim.Native.Cache.v_healed r.Sim.Native.Cache.v_quarantined;
          if r.Sim.Native.Cache.v_quarantined > 0 then begin
            (* corrupted artifacts were moved aside; the next request
               for them rebuilds from source.  Non-zero exit so CI
               sweeps notice the store was unhealthy *)
            Printf.printf
              "quarantined artifacts moved to %s; they will be rebuilt on \
               next use\n"
              (Filename.concat dir "quarantine");
            exit 1
          end
        end
        else if clear then begin
          let n = Sim.Native.Cache.clear ~dir () in
          Sim.Native.clear_memo ();
          let dropped = Sim.Artifact.clear_registered () in
          Printf.printf "cleared %d file(s) from %s" n dir;
          if dropped > 0 then
            Printf.printf " and %d in-process artifact(s)" dropped;
          print_newline ()
        end
        else if evict_stale then begin
          match Sim.Native.Cache.fingerprint () with
          | None ->
            Printf.eprintf
              "error: no working native toolchain, cannot tell which \
               fingerprint is current (use --clear to drop everything)\n";
            exit 1
          | Some fp ->
            let n = Sim.Native.Cache.evict_stale ~dir () in
            Printf.printf "evicted %d stale file(s) from %s (kept %s)\n" n dir
              fp
        end
        else begin
          (* default: --stats *)
          Printf.printf "store:       %s\n" dir;
          (match Sim.Native.Cache.fingerprint () with
          | Some fp -> Printf.printf "fingerprint: %s\n" fp
          | None -> Printf.printf "fingerprint: (no native toolchain)\n");
          let entries = Sim.Native.Cache.list ~dir () in
          if entries = [] then print_string "empty\n"
          else
            List.iter
              (fun (e : Sim.Native.Cache.entry) ->
                Printf.printf "%-32s %4d artifact(s) %10d bytes%s\n"
                  e.Sim.Native.Cache.e_fingerprint e.Sim.Native.Cache.e_files
                  e.Sim.Native.Cache.e_bytes
                  (if e.Sim.Native.Cache.e_current then "  (current)" else ""))
              entries;
          let ns = Sim.Native.stats () in
          Printf.printf
            "memo:        %d entry(ies), cap %d, %d hit(s), %d eviction(s)\n"
            ns.Sim.Native.memo_entries ns.Sim.Native.memo_capacity
            ns.Sim.Native.memo_hits ns.Sim.Native.memo_evictions;
          (* the MIR / image / closure artifact caches are in-process
             state of a serving daemon; a fresh CLI invocation has none.
             the serve protocol's [stats] request reports the live
             numbers *)
          match Sim.Artifact.registered_stats () with
          | [] ->
            print_string
              "artifacts:   (none in this process; query a running \
               `bromc serve` with its `stats` request)\n"
          | regs ->
            List.iter
              (fun (s : Sim.Artifact.stats) ->
                Printf.printf
                  "artifacts:   %-8s %4d entry(ies) cap %d, %d hit(s), %d \
                   miss(es), %d build(s), %d eviction(s)\n"
                  s.Sim.Artifact.a_name s.Sim.Artifact.a_entries
                  s.Sim.Artifact.a_capacity s.Sim.Artifact.a_hits
                  s.Sim.Artifact.a_misses s.Sim.Artifact.a_builds
                  s.Sim.Artifact.a_evictions)
              regs
        end)
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Operate on this store instead of the default one.")
  in
  let clear =
    Arg.(
      value & flag
      & info [ "clear" ] ~doc:"Remove every cached artifact in the store.")
  in
  let evict_stale =
    Arg.(
      value & flag
      & info [ "evict-stale" ]
          ~doc:
            "Remove artifacts built by a different compiler/ABI fingerprint \
             than the current toolchain's (left behind by switches or \
             upgrades); the current fingerprint's artifacts are kept.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Digest every cached artifact against its $(b,.sum) checksum \
             sidecar; mismatches are quarantined (rebuilt on next use) and \
             reported with a non-zero exit, artifacts predating checksums \
             get a sidecar written.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect, verify or prune the native backend's on-disk $(b,.cmxs) \
          artifact store (default action: print per-fingerprint statistics).")
    Term.(const run $ dir $ clear $ evict_stale $ verify)

(* ------------------------------------------------------------------ *)
(* serve: the long-running optimization service                        *)
(* ------------------------------------------------------------------ *)

let server_stats_json (st : Driver.Server.stats) =
  let ns = st.Driver.Server.st_native and int n = Json.Int n in
  Json.to_string
    (Json.Obj
       [
         ("requests", int st.Driver.Server.st_requests);
         ("cold", int st.Driver.Server.st_cold);
         ("shadow_runs", int st.Driver.Server.st_shadow_runs);
         ("merges", int st.Driver.Server.st_merges);
         ("reopts", int st.Driver.Server.st_reopts);
         ("domains", int st.Driver.Server.st_domains);
         ( "caches",
           Json.Arr
             (List.map
                (fun (s : Sim.Artifact.stats) ->
                  Json.Obj
                    [
                      ("name", Json.Str s.Sim.Artifact.a_name);
                      ("entries", int s.Sim.Artifact.a_entries);
                      ("hits", int s.Sim.Artifact.a_hits);
                      ("misses", int s.Sim.Artifact.a_misses);
                      ("builds", int s.Sim.Artifact.a_builds);
                      ("evictions", int s.Sim.Artifact.a_evictions);
                    ])
                st.Driver.Server.st_caches) );
         ( "native",
           Json.Obj
             [
               ("memo_hits", int ns.Sim.Native.memo_hits);
               ("disk_hits", int ns.Sim.Native.disk_hits);
               ("compiles", int ns.Sim.Native.compiles);
               ("memo_entries", int ns.Sim.Native.memo_entries);
               ("memo_evictions", int ns.Sim.Native.memo_evictions);
               ("quarantined", int ns.Sim.Native.quarantined);
             ] );
         ("overloaded", int st.Driver.Server.st_overloaded);
         ("restored", int st.Driver.Server.st_restored);
         ( "programs",
           Json.Arr
             (List.map
                (fun (name, gen, execs) ->
                  Json.Obj
                    [
                      ("name", Json.Str name);
                      ("generation", int gen);
                      ("executions", int execs);
                    ])
                st.Driver.Server.st_programs) );
       ])

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains (default: the machine's recommended count).")

let sample_every_arg =
  Arg.(
    value & opt int 4
    & info [ "sample-every" ] ~docv:"N"
        ~doc:
          "Run the instrumented profiling shadow on every N-th request per \
           worker (the served artifact is never instrumented).")

let merge_every_arg =
  Arg.(
    value & opt int 8
    & info [ "merge-every" ] ~docv:"N"
        ~doc:
          "Shadow runs accumulated across workers before an opportunistic \
           shard merge into the global profile.")

let drift_min_execs_arg default =
  Arg.(
    value & opt int default
    & info [ "drift-min-execs" ] ~docv:"N"
        ~doc:
          "New profile executions required after the last (re-)optimization \
           before the drift check may re-optimize — damping against \
           artifact thrash.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Durable state directory: journal + snapshots of merged profiles, \
           predictor tallies and drift generations.  Existing state found \
           there is restored on startup (crash-safe warm start).")

let queue_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Admission control: shed requests with an $(b,overloaded) \
           response once N tasks are waiting (default: unbounded).")

let snapshot_every_arg =
  Arg.(
    value & opt int 64
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Journal records between snapshot compactions (with \
           $(b,--state-dir)).")

let serve_cmd =
  let run domains sample_every merge_every drift_min_execs backend profile
      ncache_dir no_ncache state_dir queue_cap snapshot_every =
    handle_errors (fun () ->
        apply_native_opts ncache_dir no_ncache;
        let backend = resolve_backend backend in
        let config =
          {
            Driver.Config.default with
            Driver.Config.backend;
            profile;
            native_cache_dir = ncache_dir;
            native_cache = not no_ncache;
          }
        in
        let srv =
          Driver.Server.create ~config ?domains ~sample_every ~merge_every
            ~drift_min_execs ?state_dir ?queue_cap ~snapshot_every ()
        in
        let out_lock = Mutex.create () in
        let print_line s =
          Mutex.lock out_lock;
          print_string s;
          print_newline ();
          flush stdout;
          Mutex.unlock out_lock
        in
        let pend_lock = Mutex.create () in
        let pend_cond = Condition.create () in
        let pending = ref 0 in
        let drain () =
          Mutex.lock pend_lock;
          while !pending > 0 do
            Condition.wait pend_cond pend_lock
          done;
          Mutex.unlock pend_lock
        in
        let request_for name seed =
          if String.equal name Driver.Replay.drift_name then
            ( Driver.Replay.drift_source,
              Driver.Replay.drift_input ~phase:(abs seed land 1) ~seed )
          else
            let w = Workloads.Registry.find name in
            ( w.Workloads.Spec.source,
              Driver.Replay.input_slice ~seed
                (Lazy.force w.Workloads.Spec.test_input) )
        in
        let render id (r : Driver.Server.response) =
          if String.equal r.Driver.Server.rs_status "ok" then
            Printf.sprintf
              "resp %d ok program=%s gen=%d cold=%b backend=%s exit=%d \
               ms=%.3f bytes=%d md5=%s"
              id r.Driver.Server.rs_program r.Driver.Server.rs_generation
              r.Driver.Server.rs_cold r.Driver.Server.rs_backend
              r.Driver.Server.rs_exit_code r.Driver.Server.rs_wall_ms
              (String.length r.Driver.Server.rs_output)
              (Digest.to_hex (Digest.string r.Driver.Server.rs_output))
          else
            Printf.sprintf "resp %d %s program=%s msg=%S" id
              r.Driver.Server.rs_status r.Driver.Server.rs_program
              r.Driver.Server.rs_message
        in
        let restored =
          (Driver.Server.stats srv).Driver.Server.st_restored
        in
        print_line
          (Printf.sprintf "ready domains=%d backend=%s restored=%d"
             (Driver.Server.domains srv)
             (Driver.Config.backend_name backend)
             restored);
        let next_id = ref 0 in
        let quit = ref false in
        while not !quit do
          match input_line stdin with
          | exception End_of_file -> quit := true
          | line -> (
            let words =
              String.split_on_char ' ' (String.trim line)
              |> List.filter (fun s -> not (String.equal s ""))
            in
            match words with
            | [] -> ()
            | [ "quit" ] | [ "exit" ] -> quit := true
            | [ "sync" ] ->
              drain ();
              Driver.Server.sync srv;
              print_line "synced"
            | [ "stats" ] ->
              print_line ("stats " ^ server_stats_json (Driver.Server.stats srv))
            | "run" :: name :: rest -> (
              let seed =
                match rest with
                | [] -> 0
                | s :: _ -> ( try int_of_string s with _ -> 0)
              in
              (* optional third word: a per-request deadline in ms *)
              let deadline_ms =
                match rest with
                | _ :: d :: _ -> (
                  match int_of_string_opt d with
                  | Some ms when ms > 0 -> Some ms
                  | _ -> None)
                | _ -> None
              in
              incr next_id;
              let id = !next_id in
              match request_for name seed with
              | exception Not_found ->
                print_line
                  (Printf.sprintf "resp %d err unknown workload %S" id name)
              | source, input ->
                Mutex.lock pend_lock;
                incr pending;
                Mutex.unlock pend_lock;
                Driver.Server.post ?deadline_ms srv ~name ~source ~input
                  (fun r ->
                    print_line (render id r);
                    Mutex.lock pend_lock;
                    decr pending;
                    if !pending = 0 then Condition.broadcast pend_cond;
                    Mutex.unlock pend_lock))
            | _ -> print_line (Printf.sprintf "err unknown command %S" line))
        done;
        drain ();
        Driver.Server.shutdown srv;
        print_line "bye")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running optimization service: a line protocol on \
          stdin/stdout over a worker-domain pool with content-hash \
          artifact caches, sharded online profiles and drift-triggered \
          re-optimization.  Requests: $(b,run WORKLOAD [SEED]) (responses \
          arrive as they finish, tagged $(b,resp ID ...); the built-in \
          $(b,drift) workload maps even seeds to phase-0 and odd seeds to \
          phase-1 inputs), $(b,sync) (drain, merge shards, run the drift \
          check), $(b,stats) (one JSON line), $(b,quit).  With \
          $(b,--profile=static) cold requests skip the first-request \
          training run and serve on the static prediction; the online \
          shard profiles and the drift check re-optimize as real counts \
          diverge from it.  With $(b,--state-dir) the daemon is crash-safe: \
          learned profiles, predictor tallies and drift generations are \
          journaled and snapshotted there, and a restart warm-starts every \
          persisted program at its learned generation.  $(b,run) accepts an \
          optional third argument, a per-request deadline in milliseconds.")
    Term.(
      const run $ domains_arg $ sample_every_arg $ merge_every_arg
      $ drift_min_execs_arg 32 $ backend_arg `Compiled $ profile_arg
      $ native_cache_dir_arg $ no_native_cache_arg $ state_dir_arg
      $ queue_cap_arg $ snapshot_every_arg)

(* ------------------------------------------------------------------ *)
(* replay: simulated production traffic against a server               *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let run requests concurrency workloads seed no_drift sample_every
      merge_every drift_min_execs check_every json_path quiet backend
      ncache_dir no_ncache chaos chaos_seed state_dir =
    handle_errors (fun () ->
        apply_native_opts ncache_dir no_ncache;
        let backend = resolve_backend backend in
        let config =
          {
            Driver.Config.default with
            Driver.Config.backend;
            native_cache_dir = ncache_dir;
            native_cache = not no_ncache;
          }
        in
        let workloads =
          Option.map
            (fun s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun w -> not (String.equal w "")))
            workloads
        in
        let progress = if quiet then None else Some prerr_endline in
        let o =
          Driver.Replay.run ~config ?workloads ~requests ?concurrency ~seed
            ~drift:(not no_drift) ~sample_every ~merge_every ~drift_min_execs
            ~check_every ~chaos ~chaos_seed ?state_dir ?progress ()
        in
        Printf.printf "requests:    %d ok, %d failed (%d domains)\n"
          o.Driver.Replay.ro_ok o.Driver.Replay.ro_failed
          o.Driver.Replay.ro_stats.Driver.Server.st_domains;
        Printf.printf "throughput:  %.1f req/s over %.2fs\n"
          o.Driver.Replay.ro_throughput_rps o.Driver.Replay.ro_elapsed_s;
        Printf.printf "latency:     p50 %.3f ms, p99 %.3f ms\n"
          o.Driver.Replay.ro_p50_ms o.Driver.Replay.ro_p99_ms;
        Printf.printf "cold:        %.2f ms/request (%.1f req/s)\n"
          o.Driver.Replay.ro_cold_ms o.Driver.Replay.ro_cold_rps;
        Printf.printf "warm/cold:   %.1fx\n" o.Driver.Replay.ro_warm_ratio;
        List.iter
          (fun (s : Sim.Artifact.stats) ->
            let total = s.Sim.Artifact.a_hits + s.Sim.Artifact.a_misses in
            Printf.printf
              "cache %-9s %d hit(s) / %d request(s) (%.1f%%), %d build(s)\n"
              (s.Sim.Artifact.a_name ^ ":")
              s.Sim.Artifact.a_hits total
              (if total = 0 then 0.
               else 100. *. float_of_int s.Sim.Artifact.a_hits /. float_of_int total)
              s.Sim.Artifact.a_builds)
          o.Driver.Replay.ro_stats.Driver.Server.st_caches;
        Printf.printf "profiles:    %d shadow run(s), %d merge(s)\n"
          o.Driver.Replay.ro_stats.Driver.Server.st_shadow_runs
          o.Driver.Replay.ro_stats.Driver.Server.st_merges;
        Printf.printf "re-opts:     %d\n" o.Driver.Replay.ro_reopts;
        List.iter
          (fun (e : Driver.Server.reopt_event) ->
            Printf.printf
              "  %s: generation %d at %d profiled execution(s)\n"
              e.Driver.Server.re_program e.Driver.Server.re_generation
              e.Driver.Server.re_executions)
          o.Driver.Replay.ro_events;
        Printf.printf "checked:     %d against the reference oracle, %d \
                       mismatch(es)\n"
          o.Driver.Replay.ro_checked o.Driver.Replay.ro_mismatches;
        if o.Driver.Replay.ro_chaos_planned > 0 then begin
          Printf.printf
            "chaos:       %d fault(s): %d ok, %d failed cleanly, %d \
             vacuous, %d escape(s)\n"
            o.Driver.Replay.ro_chaos_planned o.Driver.Replay.ro_chaos_ok
            o.Driver.Replay.ro_chaos_failed o.Driver.Replay.ro_chaos_vacuous
            o.Driver.Replay.ro_chaos_escapes;
          List.iter
            (fun (f : Driver.Replay.fault_report) ->
              Printf.printf "  request %d: %s -> %s\n"
                f.Driver.Replay.rf_request f.Driver.Replay.rf_kind
                f.Driver.Replay.rf_outcome)
            o.Driver.Replay.ro_chaos_faults
        end;
        if o.Driver.Replay.ro_crash_restarts > 0 then
          Printf.printf
            "durability:  %d crash-restart(s), %d program(s) restored, \
             restore %s\n"
            o.Driver.Replay.ro_crash_restarts o.Driver.Replay.ro_restored
            (if o.Driver.Replay.ro_restore_exact then "exact"
             else "NOT exact");
        (match json_path with
        | Some path ->
          Driver.Replay.write_json ~path o;
          Printf.printf "wrote %s\n" path
        | None -> ());
        if
          o.Driver.Replay.ro_mismatches > 0
          || o.Driver.Replay.ro_failed > o.Driver.Replay.ro_chaos_failed
          || o.Driver.Replay.ro_chaos_escapes > 0
          || (o.Driver.Replay.ro_crash_restarts > 0
             && not o.Driver.Replay.ro_restore_exact)
        then exit 1)
  in
  let requests =
    Arg.(
      value & opt int 1000
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Timed requests to fire.")
  in
  let concurrency =
    Arg.(
      value
      & opt (some int) None
      & info [ "concurrency"; "j" ] ~docv:"N"
          ~doc:"Worker domains / requests in flight (default: recommended).")
  in
  let workloads =
    Arg.(
      value
      & opt (some string) None
      & info [ "workloads" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated workload subset for the request mix (default: \
             all 17 built-ins).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Deterministic input-slice seed.")
  in
  let no_drift =
    Arg.(
      value & flag
      & info [ "no-drift" ]
          ~doc:
            "Leave the synthetic drifting workload out of the mix (no \
             mid-stream re-optimization demo).")
  in
  let check_every =
    Arg.(
      value & opt int 16
      & info [ "check-every" ] ~docv:"N"
          ~doc:
            "Differentially check every N-th response against the \
             reference-interpreter oracle (0 disables).")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable benchmark record here.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress phase progress on stderr.")
  in
  let chaos =
    Arg.(
      value & opt int 0
      & info [ "chaos" ] ~docv:"N"
          ~doc:
            "Plant N seeded faults across the request stream (worker \
             kills, stalls, artifact corruption/truncation, journal \
             tears) and certify containment: every victim is checked \
             against the oracle and any escape fails the run.")
  in
  let chaos_seed =
    Arg.(
      value & opt int 7
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:"Deterministic seed for the chaos fault plan.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Fire a mixed stream of workload requests at an in-process \
          optimization server and report throughput, p50/p99 latency, \
          cache hit rates and drift re-optimizations (exits nonzero on \
          any unplanned failure, oracle mismatch, chaos escape or \
          inexact restore).  With $(b,--state-dir) the server is \
          durable and a crash-restart cycle is certified between the \
          waves; with $(b,--chaos) seeded faults strike mid-stream.")
    Term.(
      const run $ requests $ concurrency $ workloads $ seed $ no_drift
      $ sample_every_arg $ merge_every_arg $ drift_min_execs_arg 64
      $ check_every $ json_path $ quiet $ backend_arg `Compiled
      $ native_cache_dir_arg $ no_native_cache_arg $ chaos $ chaos_seed
      $ state_dir_arg)

(* ------------------------------------------------------------------ *)
(* bench: the continuous benchmarking flywheel                          *)
(* ------------------------------------------------------------------ *)

let history_arg =
  Arg.(
    value
    & opt string "bench/history.jsonl"
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "The normalized benchmark time series (JSONL, one schema-versioned \
           record per line).")

let load_history path =
  match Bench_db.History.load path with
  | Ok records -> records
  | Error msg -> failwith msg

let bench_import_cmd =
  let run files history gate_wall seq label commit =
    handle_errors (fun () ->
        let outcomes =
          match files with
          | [ file ] when seq <> None || label <> None || commit <> None ->
            (* single-snapshot import with explicit identity overrides *)
            (match
               Bench_db.Import.of_file ?seq ?label ?commit ~gate_wall file
             with
            | Error m -> [ (file, Bench_db.History.Failed m) ]
            | Ok r ->
              let existing = load_history history in
              if Bench_db.History.mem existing ~label:r.Bench_db.Record.r_label
              then
                [ (file, Bench_db.History.Skipped r.Bench_db.Record.r_label) ]
              else begin
                Bench_db.History.append history r;
                [ (file, Bench_db.History.Added r) ]
              end)
          | _ -> Bench_db.History.import_files ~gate_wall ~history files
        in
        let failed = ref 0 in
        List.iter
          (fun (path, outcome) ->
            match outcome with
            | Bench_db.History.Added r ->
              Printf.printf "added   %s (%s, context %s, %d metrics)\n" path
                r.Bench_db.Record.r_label r.Bench_db.Record.r_context
                (List.length r.Bench_db.Record.r_metrics)
            | Bench_db.History.Skipped label ->
              Printf.printf "skipped %s (label %s already in history)\n" path
                label
            | Bench_db.History.Failed m ->
              incr failed;
              Printf.printf "FAILED  %s: %s\n" path m)
          outcomes;
        if !failed > 0 then exit 1)
  in
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Benchmark snapshot files: suite matrices ($(b,bromc suite \
             --json)), serve replays ($(b,bromc replay --json)) or fuzz \
             summaries.  The historical $(b,BENCH_PR)$(i,N)$(b,.json) shapes \
             are all understood.")
  in
  let gate_wall =
    Arg.(
      value & flag
      & info [ "gate-wall" ]
          ~doc:
            "Also gate wall-clock metrics.  Off by default: checked-in \
             snapshots come from different machines and workload scales, so \
             only ratios and deterministic counts are comparable; turn this \
             on for records produced and compared on one machine.")
  in
  let seq =
    Arg.(
      value
      & opt (some int) None
      & info [ "seq" ] ~docv:"N"
          ~doc:
            "Sequence number override (defaults to the $(b,pr) field or the \
             $(b,BENCH_PR)$(i,N) filename).  Single-file imports only.")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"NAME"
          ~doc:"Record label override (defaults to $(b,PR)$(i,seq)).")
  in
  let commit =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ] ~docv:"SHA" ~doc:"Commit hash to stamp the record.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Lift benchmark snapshots into the normalized time series.  \
          Idempotent: labels already in the history are skipped, never \
          rewritten.")
    Term.(const run $ files $ history_arg $ gate_wall $ seq $ label $ commit)

let bench_report_cmd =
  let run history out =
    handle_errors (fun () ->
        let records = load_history history in
        match out with
        | None -> print_string (Bench_db.Report.to_markdown records)
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let write name data =
            let path = Filename.concat dir name in
            let oc = open_out path in
            output_string oc data;
            close_out oc;
            Printf.printf "wrote %s\n" path
          in
          write "report.md" (Bench_db.Report.to_markdown records);
          write "report.html" (Bench_db.Report.to_html records))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write $(b,report.md) and $(b,report.html) under $(docv) instead \
             of printing markdown to stdout.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the history as a static trend report: per-context \
          sparktables with one row per metric, one column per record, and \
          the delta between the last two observations.  Deterministic in the \
          history, so the output is diffable and CI-archivable.")
    Term.(const run $ history_arg $ out)

let bench_gate_cmd =
  let run history against max_regress head_label quiet =
    handle_errors (fun () ->
        let records = load_history history in
        if records = [] then failwith ("empty history: " ^ history);
        let heads =
          match head_label with
          | Some l -> (
            match
              List.filter
                (fun (r : Bench_db.Record.t) -> r.Bench_db.Record.r_label = l)
                records
            with
            | [] -> failwith ("no record labelled " ^ l)
            | rs -> rs)
          | None ->
            (* the latest record of every context; [records] is sorted by
               seq, so replace keeps the newest *)
            let by_ctx = Hashtbl.create 8 in
            List.iter
              (fun (r : Bench_db.Record.t) ->
                Hashtbl.replace by_ctx r.Bench_db.Record.r_context r)
              records;
            Hashtbl.fold (fun _ r acc -> r :: acc) by_ctx []
            |> List.sort (fun (a : Bench_db.Record.t) b ->
                   compare a.Bench_db.Record.r_seq b.Bench_db.Record.r_seq)
        in
        let all =
          List.concat_map
            (fun (head : Bench_db.Record.t) ->
              let verdicts =
                Bench_db.Gate.check ?max_regress ?against ~head
                  ~history:records ()
              in
              if not quiet then begin
                Printf.printf "head %s (context %s, %d gated metrics):\n"
                  head.Bench_db.Record.r_label head.Bench_db.Record.r_context
                  (List.length verdicts);
                Format.printf "%a" Bench_db.Gate.pp verdicts
              end;
              verdicts)
            heads
        in
        match Bench_db.Gate.failures all with
        | [] ->
          Printf.printf "gate: OK (%d metrics within tolerance)\n"
            (List.length all)
        | fails ->
          List.iter
            (fun v -> Format.eprintf "gate: %a@." Bench_db.Gate.pp_verdict v)
            fails;
          Printf.eprintf "gate: %d metric(s) regressed beyond tolerance\n"
            (List.length fails);
          exit 1)
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"LABEL"
          ~doc:
            "Compare against this record instead of the latest same-context \
             predecessor of each metric.")
  in
  let max_regress =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Default regression tolerance in percent for metrics without \
             their own (default 10).  Per-metric tolerances and noise floors \
             from the records always win.")
  in
  let head_label =
    Arg.(
      value
      & opt (some string) None
      & info [ "head" ] ~docv:"LABEL"
          ~doc:
            "Gate only this record (default: the latest record of every \
             context).")
  in
  let quiet =
    Arg.(
      value & flag & info [ "quiet"; "q" ] ~doc:"Only print the verdict line.")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "The regression gate: direction-aware comparison of the latest \
          record(s) against their history, with per-metric tolerances and \
          absolute noise floors.  Exits 0 when every gated metric is within \
          tolerance, 1 naming each regressed metric otherwise — wire it \
          straight into CI.")
    Term.(
      const run $ history_arg $ against $ max_regress $ head_label $ quiet)

let bench_corpus_cmd =
  let run dir backend native profile mint_inject seed cases quiet =
    handle_errors (fun () ->
        let backends =
          match (backend, native) with
          | Some b, _ -> [ (b :> Check.Fuzz.backend) ]
          | None, true -> Check.Fuzz.all_backends ()
          | None, false -> Check.Fuzz.default_backends
        in
        (match mint_inject with
        | Some n ->
          let repros =
            Bench_db.Corpus.mint_from_inject ~seed ~cases ~max:n ()
          in
          List.iter
            (fun r ->
              Printf.printf "minted %s\n" (Bench_db.Corpus.save ~dir r))
            repros
        | None -> ());
        let repros =
          match Bench_db.Corpus.load_dir dir with
          | Ok rs -> rs
          | Error m -> failwith m
        in
        if repros = [] then Printf.printf "corpus: no repros under %s\n" dir
        else begin
          let failed = ref 0 in
          List.iter
            (fun (r : Bench_db.Corpus.repro) ->
              let out = Bench_db.Corpus.replay ~backends ~profile r in
              if out.Check.Fuzz.co_errors <> [] then begin
                incr failed;
                Printf.printf "FAIL %s (%s)\n" r.Bench_db.Corpus.rp_name
                  r.Bench_db.Corpus.rp_origin;
                List.iter (Printf.printf "  %s\n") out.Check.Fuzz.co_errors
              end
              else if not quiet then
                Printf.printf "ok   %s (%d reordered, %d pieces certified)\n"
                  r.Bench_db.Corpus.rp_name out.Check.Fuzz.co_reordered
                  out.Check.Fuzz.co_pieces)
            repros;
          Printf.printf "corpus: %d repros, %d failed (%d backends)\n"
            (List.length repros) !failed (List.length backends);
          if !failed > 0 then exit 1
        end)
  in
  let dir =
    Arg.(
      value & opt string "corpus"
      & info [ "dir" ] ~docv:"DIR" ~doc:"The repro corpus directory.")
  in
  let backend_opt =
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"Replay under one engine only (default: race the three \
                in-process engines).")
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also race the native backend (skipped when no toolchain is \
             available).")
  in
  let mint_inject =
    Arg.(
      value
      & opt (some int) None
      & info [ "mint-inject" ] ~docv:"N"
          ~doc:
            "Before replaying, recreate inject-mode fuzz cases, shrink the \
             first $(docv) caught counterexamples and save them into the \
             corpus (the seeding path).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for $(b,--mint-inject).")
  in
  let cases =
    Arg.(
      value & opt int 50
      & info [ "cases" ] ~docv:"N"
          ~doc:"Case budget for $(b,--mint-inject).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Only print failures and the summary.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Replay every minimized $(b,.mir) repro in the corpus through the \
          full pipeline — validate, lower under the recorded heuristic set, \
          train, reorder, certify, lint cross-check, backend differential — \
          and fail on any error.  The corpus is the regression suite the \
          flywheel mints from caught counterexamples.  With \
          $(b,--profile=static) the repros replay under the profile-free \
          prediction instead of their recorded training runs.")
    Term.(
      const run $ dir $ backend_opt $ native $ profile2_arg $ mint_inject
      $ seed $ cases $ quiet)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "The continuous benchmarking flywheel: import snapshots into a \
          normalized time series, render trend reports, gate regressions, \
          and replay the minimized-repro corpus.")
    [ bench_import_cmd; bench_report_cmd; bench_gate_cmd; bench_corpus_cmd ]

let main =
  Cmd.group
    (Cmd.info "bromc" ~version:"1.0.0"
       ~doc:
         "Branch-reordering MiniC compiler (PLDI 1998 reproduction: Yang, Uh \
          & Whalley).")
    [ compile_cmd; run_cmd; reorder_cmd; suite_cmd; fuzz_cmd; lint_cmd;
      dot_cmd; workloads_cmd; cache_cmd; serve_cmd; replay_cmd; bench_cmd ]

let () = exit (Cmd.eval main)
