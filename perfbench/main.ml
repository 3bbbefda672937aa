(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (paper-matrix, static-compile or serve-steady) and
   prints human-readable lines followed by one JSON object as the last
   line of standard output.  --trace 0 is the timed run and reports the
   end-to-end metrics; --trace 1 is the separate traced run and reports
   the per-layer metrics.  Outputs are checked for correctness in both;
   any failure is counted and makes the exit code 1.  Scratch files
   (server state, the span dump) go under .perfbench/ in the current
   directory. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 30.0
let trace = ref 0
let commit = ref "unknown"
let setup_only = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME paper-matrix | static-compile | serve-steady");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measuring time");
    ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
    ("--commit", Arg.Set_string commit, "ID source revision, recorded with the run");
    ("--setup-only", Arg.Set setup_only, " build the workload's inputs and exit");
  ]

let scratch_root = ".perfbench"

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* set-up time of a batch workload: a fresh process that builds the
   job list (workload inputs and seeded programs), timed from outside *)
let batch_setup_once () =
  let args =
    [| Sys.executable_name; "--setup-only"; "--workload"; !workload; "--seed";
       string_of_int !seed |]
  in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  if status <> Unix.WEXITED 0 then failwith "set-up process failed";
  Unix.gettimeofday () -. t0

let host_line w =
  let d = Driver.Pool.default_domains () in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \"nproc\": %d, \
     \"pool_domains\": %d, \"worker_domains\": %d, \"ocaml\": %s, \"native\": %b, \
     \"commit\": %s, \"os\": %s}"
    (Report.json_string w) !seed (Report.number !seconds) !trace
    (Domain.recommended_domain_count ()) d
    (if !workload = "serve-steady" then Runs.workers () else d)
    (Report.json_string Sys.ocaml_version) (Sim.Native.available ())
    (Report.json_string !commit) (Report.json_string Sys.os_type)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME ...";
  let w =
    match List.assoc_opt !workload Runs.workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !setup_only then ignore (Runs.jobs w ~seed:!seed)
  else begin
    mkdir_p scratch_root;
    let scratch = Filename.concat scratch_root "tmp" in
    mkdir_p scratch;
    let host = host_line !workload in
    Report.say "# perfbench %s" host;
    let o =
      if !trace = 1 then
        Runs.traced w ~seed:!seed ~scratch ~host
          ~trace_file:
            (Filename.concat scratch_root
               (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
      else
        match w with
        | Runs.Serve_steady -> Runs.timed_serve ~seed:!seed ~seconds:!seconds ~scratch
        | Runs.Paper_matrix | Runs.Static_compile ->
          Runs.timed_batch w ~seed:!seed ~seconds:!seconds ~setup_once:batch_setup_once
    in
    let metrics =
      if !trace = 1 then o.Report.metrics
      else o.Report.metrics @ [ Report.metric "peak_rss_mb" "MB" (peak_rss_mb ()) ~note:"VmHWM" ]
    in
    Report.say "metrics:";
    Report.print_metrics metrics;
    let failed = List.length o.Report.problems in
    let error_rate = float_of_int failed /. float_of_int (max 1 o.Report.attempted) in
    Report.say "  %-28s %16s %-6s %d of %d attempted" "error_rate" (Report.number error_rate)
      "ratio" failed o.Report.attempted;
    (* one line per distinct failure, with how often it occurred *)
    let counts = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun p ->
        let p = if String.length p > 240 then String.sub p 0 240 ^ "..." else p in
        match Hashtbl.find_opt counts p with
        | Some k -> Hashtbl.replace counts p (k + 1)
        | None ->
          Hashtbl.replace counts p 1;
          order := p :: !order)
      o.Report.problems;
    List.iter
      (fun p ->
        let k = Hashtbl.find counts p in
        Report.say "FAIL %s%s" p (if k > 1 then Printf.sprintf " (x%d)" k else ""))
      (List.rev !order);
    let correct = failed = 0 in
    print_endline (Report.json_line ~correct ~attempted:o.Report.attempted ~failed metrics);
    exit (if correct then 0 else 1)
  end
