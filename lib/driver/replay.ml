type fault_report = {
  rf_request : int;
  rf_kind : string;
  rf_outcome : string;  (* "ok" | "failed:STATUS" | "vacuous" | "escape" *)
}

type outcome = {
  ro_requests : int;
  ro_ok : int;
  ro_failed : int;
  ro_elapsed_s : float;
  ro_throughput_rps : float;
  ro_p50_ms : float;
  ro_p99_ms : float;
  ro_cold_ms : float;
  ro_cold_rps : float;
  ro_warm_ratio : float;
  ro_checked : int;
  ro_mismatches : int;
  ro_reopts : int;
  ro_events : Server.reopt_event list;
  ro_stats : Server.stats;
  ro_chaos_planned : int;
  ro_chaos_ok : int;
  ro_chaos_failed : int;
  ro_chaos_vacuous : int;
  ro_chaos_escapes : int;
  ro_chaos_faults : fault_report list;
  ro_crash_restarts : int;
  ro_restored : int;
  ro_restore_exact : bool;
}

(* ------------------------------------------------------------------ *)
(* The synthetic drift workload                                        *)
(* ------------------------------------------------------------------ *)

let drift_name = "drift"

(* a char-class dispatch chain over mutually exclusive equality tests
   (so every arm order is cc-compatible and Eq. 1-4 alone picks the
   layout): the hot arm is whatever class the input stream is made of —
   shifting the input mix shifts the optimal ordering *)
let drift_body =
  {|
int digits;
int uppers;
int lowers;
int others;

int main() {
  int c;
  digits = 0;
  uppers = 0;
  lowers = 0;
  others = 0;
  while ((c = getchar()) != EOF) {
    if (c == '5')
      digits++;
    else if (c == 'Z')
      uppers++;
    else if (c == 'l')
      lowers++;
    else
      others++;
  }
  print_num(digits);
  putchar(' ');
  print_num(uppers);
  putchar(' ');
  print_num(lowers);
  putchar(' ');
  print_num(others);
  putchar('\n');
  return 0;
}
|}

let drift_spec =
  Workloads.Spec.make ~name:drift_name
    ~description:"synthetic char-class dispatch whose input bias flips"
    ~source:drift_body
    ~training_input:(lazy "")
    ~test_input:(lazy "")

let drift_source = drift_spec.Workloads.Spec.source

let drift_input ~phase ~seed =
  let state = ref (((seed * 2654435761) lxor 0x5bf03635) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  (* phase 1 is digit-heavy and longer, so the accumulated global
     profile overtakes phase 0's lowercase majority; the cold classes
     appear a little so every arm has nonzero counts *)
  let len, hot, alts =
    if phase = 0 then (600, 'l', [| '5'; 'Z'; 'x' |])
    else (2400, '5', [| 'l'; 'Z'; 'x' |])
  in
  String.init len (fun _ ->
      let n = next () in
      if n mod 10 < 9 then hot else alts.(n mod 3))

(* ------------------------------------------------------------------ *)
(* Request inputs                                                      *)
(* ------------------------------------------------------------------ *)

let input_slice ?(max_bytes = 2048) ~seed text =
  let len = String.length text in
  if len = 0 then ""
  else begin
    let window = min len max_bytes in
    let target = max 1 (window * (1 + (abs seed mod 4)) / 4) in
    let cut =
      match String.rindex_from_opt text (target - 1) '\n' with
      | Some i when i > 0 -> i + 1
      | _ -> target
    in
    String.sub text 0 cut
  end

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

type req = { q_name : string; q_source : string; q_input : string }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (n * p / 100))

(* ------------------------------------------------------------------ *)
(* Chaos: environment fault application                                 *)
(* ------------------------------------------------------------------ *)

(* where the server's native rung keeps its .cmxs artifacts *)
let native_store_dir (config : Config.t) =
  let root =
    match config.Config.native_cache_dir with
    | Some d -> d
    | None -> Sim.Native.Cache.default_dir ()
  in
  match Sim.Native.Cache.fingerprint () with
  | None -> None
  | Some fpr -> Some (Filename.concat root fpr)

let list_artifacts config =
  match native_store_dir config with
  | None -> []
  | Some dir -> (
    match Sys.readdir dir with
    | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
      |> List.sort compare
      |> List.map (Filename.concat dir)
    | exception Sys_error _ -> [])

(* Damage an artifact by writing the damaged bytes to a sibling file
   and renaming it over the original — never in place: the original
   inode may be dlopen-mmapped by this very process (a loaded plugin),
   and truncating or rewriting a mapped file raises SIGBUS.  The
   rename leaves live mappings on the old inode and puts the damage
   where it belongs: on the store the next load reads. *)
let replace_with path bytes =
  let tmp = path ^ ".chaos" in
  match
    let oc = open_out_bin tmp in
    output_string oc bytes;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> true
  | exception Sys_error _ -> false

let read_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  with
  | b -> Some b
  | exception Sys_error _ -> None

(* flip one byte mid-file, leaving the .sum sidecar stale: the next
   disk load must fail its checksum and quarantine the artifact *)
let corrupt_file path =
  match read_file path with
  | None | Some "" -> false
  | Some s ->
    let b = Bytes.of_string s in
    let mid = Bytes.length b / 2 in
    Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
    replace_with path (Bytes.to_string b)

let truncate_file path =
  match read_file path with
  | None | Some "" -> false
  | Some s -> replace_with path (String.sub s 0 (max 1 (String.length s / 2)))

(* pick the victim artifact deterministically, damage it, and drop the
   in-process memo so the next native request must reload from disk
   and trip over the damage *)
let apply_artifact_fault config ~request kind =
  match list_artifacts config with
  | [] -> false
  | artifacts ->
    let victim = List.nth artifacts (request mod List.length artifacts) in
    let applied =
      match kind with
      | Inject.S_corrupt_artifact -> corrupt_file victim
      | _ -> truncate_file victim
    in
    if applied then Sim.Native.clear_memo ();
    applied

let run ?(config = Config.default) ?(workloads = []) ?(requests = 1000)
    ?concurrency ?(seed = 42) ?(drift = true) ?(sample_every = 2)
    ?(merge_every = 8) ?(drift_min_execs = 64) ?(check_every = 16)
    ?(chaos = 0) ?(chaos_seed = 7) ?state_dir
    ?(progress = fun _ -> ()) () =
  let names =
    match workloads with [] -> Workloads.Registry.names | ns -> ns
  in
  let specs =
    List.map
      (fun n ->
        match Workloads.Registry.find n with
        | s -> s
        | exception Not_found -> failwith ("replay: unknown workload " ^ n))
      names
  in
  (* force lazies on this domain before any fan-out *)
  let mix =
    List.map
      (fun (s : Workloads.Spec.t) ->
        (s.Workloads.Spec.name, s.Workloads.Spec.source,
         Lazy.force s.Workloads.Spec.test_input))
      specs
  in
  let mix = Array.of_list mix in
  let n_mix = Array.length mix + if drift then 1 else 0 in
  let half = requests / 2 in
  let request i =
    let slot = i mod n_mix in
    if drift && slot = n_mix - 1 then
      let phase = if i < half then 0 else 1 in
      {
        q_name = drift_name;
        q_source = drift_source;
        q_input = drift_input ~phase ~seed:(seed + i);
      }
    else
      let name, source, test_input = mix.(slot) in
      { q_name = name; q_source = source;
        q_input = input_slice ~seed:(seed + i) test_input }
  in
  let reqs = Array.init requests request in

  (* cold baseline: one request per distinct program against a fresh
     single-domain server with empty caches — every request pays
     parse + detect + train + reorder + predecode + compile *)
  progress "cold baseline (fresh server per program)";
  let distinct =
    Array.to_list (Array.map (fun (n, s, t) -> (n, s, input_slice ~seed t)) mix)
    @ (if drift then
         [ (drift_name, drift_source, drift_input ~phase:0 ~seed) ]
       else [])
  in
  let cold_total = ref 0.0 in
  List.iter
    (fun (name, source, input) ->
      let srv = Server.create ~config ~domains:1 ~sample_every:1_000_000 () in
      let t0 = Unix.gettimeofday () in
      let r = Server.submit srv ~name ~source ~input in
      cold_total := !cold_total +. (Unix.gettimeofday () -. t0);
      if r.Server.rs_status <> "ok" then
        failwith
          (Printf.sprintf "replay: cold request for %s failed: %s %s" name
             r.Server.rs_status r.Server.rs_message);
      Server.shutdown srv)
    distinct;
  let cold_ms = !cold_total /. float_of_int (List.length distinct) *. 1000.0 in

  (* warm service: one long-lived server; warm every program up
     (untimed), then fire the two timed waves with a sync between.
     With [state_dir] the server is durable, and a crash-restart cycle
     is certified between the waves. *)
  let make_server () =
    Server.create ~config ?domains:concurrency ~sample_every ~merge_every
      ~drift_min_execs ?state_dir ()
  in
  let server = ref (make_server ()) in
  progress
    (Printf.sprintf "warmup (%d programs, %d domains)" (List.length distinct)
       (Server.domains !server));
  List.iter
    (fun (name, source, input) ->
      ignore (Server.submit !server ~name ~source ~input))
    distinct;

  let faults =
    if chaos > 0 then
      Inject.server_plan ~seed:chaos_seed ~requests ~count:chaos
    else []
  in
  if faults <> [] then
    progress
      (Printf.sprintf "chaos: %d faults planned (%s)" (List.length faults)
         (String.concat ", "
            (List.map
               (fun (f : Inject.server_fault) ->
                 Printf.sprintf "%d:%s" f.Inject.sv_request
                   (Inject.server_kind_name f.Inject.sv_kind))
               faults)));
  (* environment faults that found nothing to damage (no artifact on
     disk, no state dir) — reported, never silently counted as ok *)
  let vacuous : (int, unit) Hashtbl.t = Hashtbl.create 8 in

  let responses : Server.response option array = Array.make requests None in
  let fire lo hi =
    let srv = !server in
    let m = Mutex.create () in
    let c = Condition.create () in
    let pending = ref (hi - lo) in
    for i = lo to hi - 1 do
      let q = reqs.(i) in
      let fault = Inject.server_find faults ~request:i in
      (* environment faults strike from the driver thread, just before
         the victim request is posted *)
      (match fault with
      | Some { Inject.sv_kind = (Inject.S_corrupt_artifact
                                | Inject.S_truncate_artifact) as k; _ } ->
        if not (apply_artifact_fault config ~request:i k) then
          Hashtbl.replace vacuous i ()
      | Some { Inject.sv_kind = Inject.S_tear_journal; _ } ->
        let torn =
          match state_dir with
          | Some dir -> State.tear_journal ~dir
          | None -> false
        in
        if not torn then Hashtbl.replace vacuous i ()
      | _ -> ());
      let deadline_ms, inject =
        match fault with
        | Some { Inject.sv_kind = Inject.S_kill_worker; _ } ->
          (None, Some (fun () -> raise (Inject.Injected i)))
        | Some { Inject.sv_kind = Inject.S_stall; _ } ->
          (* the stall outlives the request deadline, so the watchdog
             must fire; the retry (the stall fires once) recovers *)
          (Some 100, Some (fun () -> Unix.sleepf 0.25))
        | _ -> (None, None)
      in
      Server.post ?deadline_ms ?inject srv ~name:q.q_name ~source:q.q_source
        ~input:q.q_input
        (fun r ->
          responses.(i) <- Some r;
          Mutex.lock m;
          decr pending;
          if !pending = 0 then Condition.signal c;
          Mutex.unlock m)
    done;
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  progress (Printf.sprintf "wave 1: requests 0..%d" (half - 1));
  let t0 = Unix.gettimeofday () in
  fire 0 half;
  Server.sync !server;

  (* crash-restart-resume: kill the durable server without any final
     flush (power-loss semantics), restart on the same state dir, and
     certify the restore against the pre-crash learned state — [sync]
     journaled an absolute record per program, so the match must be
     exact even if a tear fault struck the journal earlier *)
  let crash_restarts = ref 0 and restored = ref 0 in
  let restore_exact = ref true in
  let restart_s = ref 0.0 in
  let pre_crash_events = ref [] in
  let pre_crash_reopts = ref 0 in
  (match state_dir with
  | Some _ ->
    progress "crash (no final snapshot) and restart from the state dir";
    let r0 = Unix.gettimeofday () in
    let pre_stats = Server.stats !server in
    let pre = List.sort compare pre_stats.Server.st_programs in
    pre_crash_events := Server.reopt_events !server;
    pre_crash_reopts := pre_stats.Server.st_reopts;
    Server.shutdown ~crash:true !server;
    (* a real restart is a fresh process: drop the in-memory plugin memo *)
    Sim.Native.clear_memo ();
    server := make_server ();
    incr crash_restarts;
    let st = Server.stats !server in
    restored := st.Server.st_restored;
    restore_exact := List.sort compare st.Server.st_programs = pre;
    restart_s := Unix.gettimeofday () -. r0
  | None -> ());

  progress (Printf.sprintf "wave 2: requests %d..%d" half (requests - 1));
  fire half requests;
  Server.sync !server;
  let elapsed = Unix.gettimeofday () -. t0 -. !restart_s in

  (* differential check against the reference oracle: the usual every
     [check_every]-th sample, plus every chaos victim (a fault must
     never produce a wrong result) *)
  let checked = ref 0 and mismatches = ref 0 in
  let mis = Array.make requests false in
  let victim = Array.make requests false in
  List.iter (fun (f : Inject.server_fault) -> victim.(f.Inject.sv_request) <- true) faults;
  if check_every > 0 || faults <> [] then begin
    progress "differential check against the reference interpreter";
    for i = 0 to requests - 1 do
      if (check_every > 0 && i mod check_every = 0) || victim.(i) then
        match responses.(i) with
        | Some r when r.Server.rs_status = "ok" ->
          let q = reqs.(i) in
          let out, code =
            Server.oracle !server ~name:q.q_name ~source:q.q_source
              ~input:q.q_input
          in
          incr checked;
          if
            (not (String.equal out r.Server.rs_output))
            || code <> r.Server.rs_exit_code
          then begin
            mis.(i) <- true;
            incr mismatches
          end
        | _ -> ()
    done
  end;

  (* chaos verdicts *)
  let fault_reports =
    List.map
      (fun (f : Inject.server_fault) ->
        let i = f.Inject.sv_request in
        let verdict =
          if Hashtbl.mem vacuous i then "vacuous"
          else
            match responses.(i) with
            | None -> "escape"  (* response lost: the fault leaked *)
            | Some r ->
              if r.Server.rs_status = "ok" then
                if mis.(i) then "escape" (* wrong result: worst case *)
                else "ok"
              else "failed:" ^ r.Server.rs_status
        in
        {
          rf_request = i;
          rf_kind = Inject.server_kind_name f.Inject.sv_kind;
          rf_outcome = verdict;
        })
      faults
  in
  let tally p = List.length (List.filter p fault_reports) in
  let chaos_ok = tally (fun r -> r.rf_outcome = "ok") in
  let chaos_vacuous = tally (fun r -> r.rf_outcome = "vacuous") in
  let chaos_escapes = tally (fun r -> r.rf_outcome = "escape") in
  let chaos_failed =
    tally (fun r -> String.length r.rf_outcome > 7
                    && String.sub r.rf_outcome 0 7 = "failed:")
  in

  let stats = Server.stats !server in
  (* events and reopt counts span the crash: pre-crash history survives
     in the outcome even though the counters restart from zero *)
  let events = !pre_crash_events @ Server.reopt_events !server in
  let reopts = !pre_crash_reopts + stats.Server.st_reopts in
  Server.shutdown !server;

  let ok = ref 0 and failed = ref 0 in
  let lats = ref [] in
  Array.iter
    (function
      | Some (r : Server.response) ->
        if r.Server.rs_status = "ok" then begin
          incr ok;
          lats := r.Server.rs_wall_ms :: !lats
        end
        else incr failed
      | None -> incr failed)
    responses;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let throughput =
    if elapsed > 0.0 then float_of_int !ok /. elapsed else 0.0
  in
  let cold_rps = if cold_ms > 0.0 then 1000.0 /. cold_ms else 0.0 in
  {
    ro_requests = requests;
    ro_ok = !ok;
    ro_failed = !failed;
    ro_elapsed_s = elapsed;
    ro_throughput_rps = throughput;
    ro_p50_ms = percentile sorted 50;
    ro_p99_ms = percentile sorted 99;
    ro_cold_ms = cold_ms;
    ro_cold_rps = cold_rps;
    ro_warm_ratio = (if cold_rps > 0.0 then throughput /. cold_rps else 0.0);
    ro_checked = !checked;
    ro_mismatches = !mismatches;
    ro_reopts = reopts;
    ro_events = events;
    ro_stats = stats;
    ro_chaos_planned = List.length faults;
    ro_chaos_ok = chaos_ok;
    ro_chaos_failed = chaos_failed;
    ro_chaos_vacuous = chaos_vacuous;
    ro_chaos_escapes = chaos_escapes;
    ro_chaos_faults = fault_reports;
    ro_crash_restarts = !crash_restarts;
    ro_restored = !restored;
    ro_restore_exact = !restore_exact;
  }

(* ------------------------------------------------------------------ *)
(* BENCH_PR7.json                                                      *)
(* ------------------------------------------------------------------ *)

let write_json ~path (o : outcome) =
  let st = o.ro_stats and ns = o.ro_stats.Server.st_native in
  let obj fields = Json.Obj fields and int n = Json.Int n in
  let json =
    obj
      [
        ("bench", Json.Str "serve_replay");
        ("requests", int o.ro_requests);
        ("ok", int o.ro_ok);
        ("failed", int o.ro_failed);
        ("domains", int st.Server.st_domains);
        ("elapsed_s", Json.Float o.ro_elapsed_s);
        ("throughput_rps", Json.Float o.ro_throughput_rps);
        ("p50_ms", Json.Float o.ro_p50_ms);
        ("p99_ms", Json.Float o.ro_p99_ms);
        ("cold_ms_per_request", Json.Float o.ro_cold_ms);
        ("cold_rps", Json.Float o.ro_cold_rps);
        ("warm_vs_cold_ratio", Json.Float o.ro_warm_ratio);
        ("checked", int o.ro_checked);
        ("mismatches", int o.ro_mismatches);
        ( "server",
          obj
            [
              ("requests", int st.Server.st_requests);
              ("cold", int st.Server.st_cold);
              ("shadow_runs", int st.Server.st_shadow_runs);
              ("merges", int st.Server.st_merges);
              ("reopts", int st.Server.st_reopts);
            ] );
        ( "caches",
          Json.Arr
            (List.map
               (fun (s : Sim.Artifact.stats) ->
                 obj
                   [
                     ("name", Json.Str s.Sim.Artifact.a_name);
                     ("entries", int s.Sim.Artifact.a_entries);
                     ("capacity", int s.Sim.Artifact.a_capacity);
                     ("hits", int s.Sim.Artifact.a_hits);
                     ("misses", int s.Sim.Artifact.a_misses);
                     ("builds", int s.Sim.Artifact.a_builds);
                     ("evictions", int s.Sim.Artifact.a_evictions);
                     ("failures", int s.Sim.Artifact.a_failures);
                   ])
               st.Server.st_caches) );
        ( "native",
          obj
            [
              ("memo_hits", int ns.Sim.Native.memo_hits);
              ("disk_hits", int ns.Sim.Native.disk_hits);
              ("misses", int ns.Sim.Native.misses);
              ("compiles", int ns.Sim.Native.compiles);
              ("memo_evictions", int ns.Sim.Native.memo_evictions);
              ("memo_entries", int ns.Sim.Native.memo_entries);
              ("memo_capacity", int ns.Sim.Native.memo_capacity);
              ("quarantined", int ns.Sim.Native.quarantined);
            ] );
        ( "chaos",
          obj
            [
              ("planned", int o.ro_chaos_planned);
              ("ok", int o.ro_chaos_ok);
              ("failed", int o.ro_chaos_failed);
              ("vacuous", int o.ro_chaos_vacuous);
              ("escapes", int o.ro_chaos_escapes);
              ( "faults",
                Json.Arr
                  (List.map
                     (fun f ->
                       obj
                         [
                           ("request", int f.rf_request);
                           ("kind", Json.Str f.rf_kind);
                           ("outcome", Json.Str f.rf_outcome);
                         ])
                     o.ro_chaos_faults) );
            ] );
        ( "durability",
          obj
            [
              ("crash_restarts", int o.ro_crash_restarts);
              ("restored", int o.ro_restored);
              ("restore_exact", Json.Bool o.ro_restore_exact);
            ] );
        ( "reopt_events",
          Json.Arr
            (List.map
               (fun (e : Server.reopt_event) ->
                 obj
                   [
                     ("program", Json.Str e.Server.re_program);
                     ("generation", int e.Server.re_generation);
                     ("executions", int e.Server.re_executions);
                     ("signature", Json.Str e.Server.re_signature);
                   ])
               o.ro_events) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string ~compact:false json);
  output_char oc '\n';
  close_out oc
