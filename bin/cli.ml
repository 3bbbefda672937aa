open Cmdliner

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let heuristic =
  let parse = function
    | "I" | "i" | "1" -> Ok Mopt.Switch_lower.set_i
    | "II" | "ii" | "2" -> Ok Mopt.Switch_lower.set_ii
    | "III" | "iii" | "3" -> Ok Mopt.Switch_lower.set_iii
    | s ->
      Error
        (`Msg (Printf.sprintf "unknown heuristic set %S (use I, II or III)" s))
  in
  let print ppf hs = Format.pp_print_string ppf hs.Mopt.Switch_lower.hs_name in
  Arg.(
    value
    & opt (conv (parse, print)) Mopt.Switch_lower.set_i
    & info [ "h-set"; "heuristic" ] ~docv:"SET"
        ~doc:"Switch translation heuristic set: I, II or III (paper Table 2).")

let backend ?absent ~doc () =
  let parse s =
    match Sim.Machine.backend_of_name s with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown backend %S (use reference, compiled or native)" s))
  in
  let print ppf b = Format.pp_print_string ppf (Sim.Machine.backend_name b) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "backend" ] ?absent ~docv:"BACKEND" ~doc)

let engine ?(degrade = false) () =
  let backend =
    backend ~absent:"compiled"
      ~doc:
        "Execution engine: $(b,reference) (MIR-walking oracle), \
         $(b,compiled) (closure-threaded code) or $(b,native) (runtime OCaml \
         codegen via ocamlfind + Dynlink; falls back to compiled when no \
         toolchain is present).  All three are observably identical."
      ()
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "native-cache" ] ~docv:"DIR"
          ~doc:
            "Directory of the native backend's compiled-artifact store \
             (default: $(b,BROMC_NATIVE_CACHE), else \
             \\$XDG_CACHE_HOME/bromc/native).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-native-cache" ]
          ~doc:
            "Do not read or write the on-disk artifact store; native code \
             is rebuilt in a temporary directory and discarded (the \
             in-process memo still applies).")
  in
  let make backend native_cache_dir no_cache =
    (match native_cache_dir with
    | Some _ -> Sim.Native.set_default_cache_dir native_cache_dir
    | None -> ());
    if no_cache then Sim.Native.set_default_use_cache false;
    let backend =
      match Option.value ~default:`Compiled backend with
      | `Native when (not degrade) && not (Sim.Native.available ()) ->
        Printf.eprintf
          "warning: native backend unavailable (no working ocamlfind/Dynlink \
           toolchain); falling back to compiled\n%!";
        `Compiled
      | b -> b
    in
    {
      Driver.Config.default with
      Driver.Config.backend;
      native_cache_dir;
      native_cache = not no_cache;
    }
  in
  Term.(const make $ backend $ cache_dir $ no_cache)

let engines =
  let backend =
    backend
      ~doc:
        "Run the differential under this one engine only (default: race \
         reference and compiled against each other)."
      ()
  in
  let native =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also race the native backend (slow: one out-of-process compile \
             per program; skipped with a note when no toolchain is \
             available).")
  in
  let make backend native =
    match (backend, native) with
    | Some b, _ -> [ b ]
    | None, true -> Check.Fuzz.all_backends ()
    | None, false -> Check.Fuzz.default_backends
  in
  Term.(const make $ backend $ native)

let verify
    ?(doc =
      "Translation-validate every sequence rewrite (Check.Verify) right after \
       the reordering pass; a rejected rewrite fails the run.") () =
  Arg.(value & flag & info [ "verify" ] ~doc)

let jobs =
  let jobs =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of domains to fan jobs across (default: \
             $(b,BROMC_DOMAINS), else the machine's recommended domain \
             count).")
  in
  Term.(
    const (function Some n -> n | None -> Driver.Pool.default_domains ())
    $ jobs)

let timeout_ms =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt wall-clock watchdog: a run exceeding $(docv) is \
           cancelled at the next basic block and reported as a timeout.")

let policy =
  let retries =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a crashed job up to $(docv) extra times with seeded \
             exponential backoff before giving up (traps and timeouts are \
             deterministic and never retried).")
  in
  let make timeout_ms retries =
    {
      Driver.Guard.default with
      Driver.Guard.timeout_ms;
      retries;
      degrade = true;
    }
  in
  Term.(const make $ timeout_ms $ retries)

let failures_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "failures-json" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable manifest (one JSON object per line, \
           flushed incrementally) recording every job's outcome to $(docv).")

let workload_jobs ?(trim = Fun.id) ~config workloads =
  List.map
    (fun (w : Workloads.Spec.t) ->
      Driver.Pipeline.job ~config ~name:w.Workloads.Spec.name
        ~source:w.Workloads.Spec.source
        ~training_input:(trim (Lazy.force w.Workloads.Spec.training_input))
        ~test_input:(trim (Lazy.force w.Workloads.Spec.test_input))
        ())
    workloads
