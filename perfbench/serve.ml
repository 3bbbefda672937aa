(* serve-steady: a durable server under open-loop Poisson traffic over
   the 17 registry programs and the drift program, timed from the
   client. *)

module S = Driver.Server
module P = Driver.Pipeline

type program = { name : string; source : string; test_input : string }

let programs () =
  Array.of_list
    (List.map
       (fun (w : Workloads.Spec.t) ->
         {
           name = w.Workloads.Spec.name;
           source = w.Workloads.Spec.source;
           test_input = Lazy.force w.Workloads.Spec.test_input;
         })
       Workloads.Registry.all
    @ [ { name = Driver.Replay.drift_name; source = Driver.Replay.drift_source;
          test_input = "" } ])

let is_drift p = String.equal p.name Driver.Replay.drift_name

(* the first, cold request of each program gets a fixed input, so the
   cold start and the code it builds do not depend on the seed *)
let cold_input p =
  if is_drift p then Driver.Replay.drift_input ~phase:0 ~seed:0
  else Driver.Replay.input_slice ~seed:3 p.test_input

(* the drift program's input bias flips halfway through every step, so
   each step sees merges, drift checks and re-optimizations *)
let request_input p ~variant ~phase =
  if is_drift p then Driver.Replay.drift_input ~phase ~seed:variant
  else Driver.Replay.input_slice ~seed:variant p.test_input

let cold_jobs config progs =
  Array.to_list
    (Array.map
       (fun p ->
         let input = cold_input p in
         P.job ~config ~name:p.name ~source:p.source ~training_input:input
           ~test_input:input ())
       progs)

(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type server = { srv : S.t; dir : string }

let fresh_dir =
  let k = ref 0 in
  fun ~scratch ->
    incr k;
    let d = Filename.concat scratch (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !k) in
    remove_tree d;
    d

(* [bromc serve] defaults for sampling, merging, drift and snapshots;
   the queue is unbounded, as there *)
let create ~config ~workers ~scratch =
  let dir = fresh_dir ~scratch in
  { srv = S.create ~config ~domains:workers ~state_dir:dir (); dir }

let close s =
  S.shutdown s.srv;
  remove_tree s.dir

(* server creation plus one cold request per program; [expect] holds the
   reference output of each cold input *)
let setup_once ~config ~workers ~scratch progs ~expect =
  let t0 = now () in
  let s = create ~config ~workers ~scratch in
  let problems =
    Array.to_list
      (Array.mapi
         (fun i p ->
           let r = S.submit s.srv ~name:p.name ~source:p.source ~input:(cold_input p) in
           if r.S.rs_status <> "ok" then
             Some (Printf.sprintf "cold %s: %s %s" p.name r.S.rs_status r.S.rs_message)
           else if (r.S.rs_output, r.S.rs_exit_code) <> expect.(i) then
             Some (Printf.sprintf "cold %s: output differs from the reference" p.name)
           else None)
         progs)
    |> List.filter_map Fun.id
  in
  (s, now () -. t0, problems)

(* ------------------------------------------------------------------ *)

type step = {
  rate : int;  (* 0 for a burst *)
  load : Load.step;
  reqs : (int * int) array;  (* program, input variant *)
  inputs : string array;
  responses : S.response option array;
}

let send s progs ~inputs ~reqs ~due =
  let n = Array.length due in
  let responses = Array.make n None in
  let post i k =
    let p = progs.(fst reqs.(i)) in
    S.post s.srv ~name:p.name ~source:p.source ~input:inputs.(i) (fun r ->
        responses.(i) <- Some r;
        k (r.S.rs_status = "ok"))
  in
  let load = Load.drive ~now ~sleep_until:(Load.real_sleep_until now) ~post due in
  (load, responses)

(* The seed drives the arrival times and the oracle sample, not which
   program and input each request carries: with one worker the serving
   decisions (merges, drift re-optimizations, generations) are then a
   function of the fixed request order, the same on every seed, and a
   re-optimization stall lands on the same requests in every run. *)
let stream_seed = 0

let prepare progs ~salt ~n =
  let reqs = Load.stream ~seed:stream_seed ~salt ~programs:(Array.length progs) ~n in
  let inputs =
    Array.mapi
      (fun i (p, variant) ->
        request_input progs.(p) ~variant ~phase:(if i < n / 2 then 0 else 1))
      reqs
  in
  (reqs, inputs)

(* The latency limit on each rate's p99.  Once converged, the server
   with one worker answers 100-600 req/s with a p99 of 10-75 ms on a
   2-core host, the spread coming from shadow runs and merges queued in
   front of requests; a 50 ms limit cuts through that spread, so the
   passing rate would change from run to run. *)
let slo_ms = 100.0

(* [n] Poisson arrivals at [rate] per second; the request stream is
   drawn with [salt] (by default the rate) *)
let step ?salt s progs ~seed ~rate ~n =
  let salt = Option.value salt ~default:rate in
  let reqs, inputs = prepare progs ~salt ~n in
  let start = now () +. 0.02 in
  let due = Array.map (fun t -> start +. t) (Load.arrivals ~seed ~rate ~n) in
  let load, responses = send s progs ~inputs ~reqs ~due in
  { rate; load; reqs; inputs; responses }

(* every request due at once: the time to drain it is the server's
   saturated throughput *)
let burst s progs ~salt ~n =
  let reqs, inputs = prepare progs ~salt ~n in
  let start = now () in
  let load, responses = send s progs ~inputs ~reqs ~due:(Array.make n start) in
  { rate = 0; load; reqs; inputs; responses }

let verdict steps = Load.judge ~slo_ms (List.map (fun st -> st.load) steps)

(* Steady state: the cold profile each program was first optimized
   under is replaced by the traffic's own.  Until then drift
   re-optimizations (80-140 ms each on lex, cpp or nroff; with one
   worker every queued request waits) set the measured tail.  On the
   fixed request stream they stop after about 3000 requests; the
   warm-up is neither set-up nor measured. *)
let warm_up_n = 4000

let warm_up s progs =
  let st = burst s progs ~salt:1 ~n:warm_up_n in
  S.sync s.srv;
  Report.say "warm-up: %d requests in %.3f s, %d re-optimizations" warm_up_n st.load.Load.wall_s
    (List.length (S.reopt_events s.srv));
  st

(* The nominal rate keeps the one worker about 15% busy: at 200 req/s
   (30-50% busy on a 2-core host) queueing behind shadow runs and
   merges multiplies every slowdown of the host, and the client p50 of
   one run was up to nine times that of another. *)
let nominal = 100
let burst_n = 500

(* requests per window of the nominal rate, and the share of the run's
   time the nominal windows get *)
let nominal_window = 500
let nominal_share = 0.7

type ladder = {
  windows : step list;  (* the nominal rate's windows *)
  rungs : (int * step * bool) list;  (* rate, its window, passed *)
  bursts : step list;
  best : int;  (* highest passing rate, 0 if none *)
  capacity : float;  (* saturated rate of the median burst *)
}

(* The search for the highest rate within the latency limit: rates at
   these shares of the saturated rate, highest first *)
let search_shares = [ 0.9; 0.85; 0.8; 0.75; 0.7; 0.6; 0.5 ]

(* The nominal rate gets [nominal_share] of the run's time as windows of
   [nominal_window] requests (four at 30 s, 2000 requests), each
   followed by a burst of [burst_n] requests; spreading the windows over
   the run keeps a slowdown of the host from landing on all of one
   measurement.  The median burst gives the saturated rate [capacity].
   Then rates at falling shares of it are tried, one window of
   [Load.window] requests each, until one meets the latency limit with
   a steady backlog: [best] is that rate.  Rates are fractions of a
   measured rate rather than steps of a fixed ladder, so [best] moves
   with the server's speed instead of jumping a whole step when a run
   lands on either side of one.  If no share passes, [best] is the
   nominal rate when its windows passed, otherwise 0.  [on_step] sees
   every step as soon as it is answered. *)
let ladder s progs ~seed ~seconds ~on_step =
  let seen st =
    on_step st;
    st
  in
  let k =
    max 1
      (int_of_float
         (Float.round
            (float_of_int nominal *. seconds *. nominal_share /. float_of_int nominal_window)))
  in
  let windows = ref [] and bursts = ref [] in
  for i = 0 to k - 1 do
    windows :=
      seen (step s progs ~seed:(seed + (7919 * i)) ~rate:nominal ~n:nominal_window) :: !windows;
    bursts := seen (burst s progs ~salt:(-i) ~n:burst_n) :: !bursts
  done;
  let windows = List.rev !windows and bursts = List.rev !bursts in
  let capacity =
    float_of_int burst_n
    /. Stats.median (Stats.sorted (List.map (fun b -> b.load.Load.wall_s) bursts))
  in
  let rec search j rungs = function
    | [] -> (List.rev rungs, if (verdict windows).Load.v_pass then nominal else 0)
    | f :: rest ->
      let rate = int_of_float (f *. capacity) in
      if rate <= nominal then search j rungs []
      else
        let a = seen (step s progs ~salt:(1000 + j) ~seed:(seed + j) ~rate ~n:Load.window) in
        let ok = (verdict [ a ]).Load.v_pass in
        let rungs = (rate, a, ok) :: rungs in
        if ok then (List.rev rungs, rate) else search (j + 1) rungs rest
  in
  let rungs, best = search 0 [] search_shares in
  { windows; rungs; bursts; best; capacity }

(* Check a seeded sample (one in eight) of ok responses against the
   reference interpreter on the unreordered base; every non-ok response
   is a failure. *)
let check s progs ~seed (st : step) =
  let st_rng = Load.rng ~seed ~salt:(7919 + st.rate) in
  let cache = Hashtbl.create 64 in
  let checked = ref 0 and problems = ref [] in
  let where = if st.rate = 0 then "burst" else Printf.sprintf "%d/s" st.rate in
  Array.iteri
    (fun i r ->
      let sampled = Random.State.int st_rng 8 = 0 in
      match r with
      | None ->
        problems := Printf.sprintf "request %d at %s: no response" i where :: !problems
      | Some r when r.S.rs_status <> "ok" ->
        problems :=
          Printf.sprintf "request %d at %s (%s): %s %s" i where r.S.rs_program
            r.S.rs_status r.S.rs_message
          :: !problems
      | Some r when sampled ->
        let p = progs.(fst st.reqs.(i)) in
        let key = (fst st.reqs.(i), Digest.string st.inputs.(i)) in
        let expect =
          match Hashtbl.find_opt cache key with
          | Some e -> e
          | None ->
            let e = S.oracle s.srv ~name:p.name ~source:p.source ~input:st.inputs.(i) in
            Hashtbl.replace cache key e;
            e
        in
        incr checked;
        if expect <> (r.S.rs_output, r.S.rs_exit_code) then
          problems :=
            Printf.sprintf "request %d at %s (%s): differs from the oracle" i where
              p.name
            :: !problems
      | Some _ -> ())
    st.responses;
  (!checked, List.rev !problems)

(* Drop the outputs of a checked step, so the responses a run keeps do
   not grow the heap, and with it the peak RSS, by the length of the
   run *)
let drop_outputs (st : step) =
  Array.iteri
    (fun i r ->
      match r with
      | Some r -> st.responses.(i) <- Some { r with S.rs_output = "" }
      | None -> ())
    st.responses

(* ------------------------------------------------------------------ *)
(* Per-layer view of a step: service time inside the worker against the
   client's latency, and the server's own counters                      *)

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let step_metrics s (st : step) ~(before : S.stats) ~sync_s =
  let svc = ref [] and out = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Some r when r.S.rs_status = "ok" ->
        svc := r.S.rs_wall_ms :: !svc;
        out := (st.load.Load.latency_ms.(i) -. r.S.rs_wall_ms) :: !out
      | _ -> ())
    st.responses;
  let svc = Stats.sorted !svc and out = Stats.sorted !out in
  let after = S.stats s.srv in
  (* counters over the measured step only *)
  let delta f = float_of_int (f after - f before) in
  let cache name =
    let find (x : S.stats) =
      List.find (fun (c : Sim.Artifact.stats) -> c.Sim.Artifact.a_name = name) x.S.st_caches
    in
    let a = find after and b = find before in
    ratio (a.Sim.Artifact.a_hits - b.Sim.Artifact.a_hits)
      (a.Sim.Artifact.a_misses - b.Sim.Artifact.a_misses)
  in
  let m = Report.metric in
  let t_svc = Stats.tail svc and t_out = Stats.tail out in
  let pnote (t : Stats.tail) = Printf.sprintf "p%d of %d" t.Stats.t_pct t.Stats.t_samples in
  [
    m "server.service_ms.p50" "ms" (Stats.median svc);
    m "server.service_ms.p99" "ms" t_svc.Stats.t_value ~note:(pnote t_svc);
    m "server.outside_ms.p50" "ms" (Stats.median out);
    m "server.outside_ms.p99" "ms" t_out.Stats.t_value ~note:(pnote t_out);
    m "server.sync_s" "s" sync_s;
    m "server.shadow_runs" "count" (delta (fun x -> x.S.st_shadow_runs));
    m "server.merges" "count" (delta (fun x -> x.S.st_merges));
    m "server.reopts" "count" (delta (fun x -> x.S.st_reopts));
    m "server.cold" "count" (float_of_int after.S.st_cold) ~note:"since creation";
    m "server.overloaded" "count" (delta (fun x -> x.S.st_overloaded));
    m "server.late_ms_max" "ms" st.load.Load.late_ms_max;
    m "artifact.programs.hit_ratio" "ratio" (cache "programs");
    m "artifact.mir.hit_ratio" "ratio" (cache "mir");
    m "artifact.image.hit_ratio" "ratio" (cache "image");
    m "artifact.closure.hit_ratio" "ratio" (cache "closure");
  ]
