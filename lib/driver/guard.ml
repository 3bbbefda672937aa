(* Per-job resilience: wall-clock watchdogs, bounded seeded retries with
   backoff, and classification of every way a job can end into a
   structured {!Pool.outcome}.  The guard never lets a job's failure
   escape as an exception — containment is the whole point. *)

type policy = {
  timeout_ms : int option;
  retries : int;
  backoff_ms : int;
  seed : int;
  degrade : bool;
}

let default =
  { timeout_ms = None; retries = 0; backoff_ms = 10; seed = 0; degrade = false }

type meta = {
  m_attempts : int;
  m_errors : string list;
}

(* deterministic backoff jitter: the same (seed, index, attempt) always
   sleeps the same duration, so retry schedules are reproducible *)
let mix a b c =
  let h = ref 0x9E3779B9 in
  List.iter
    (fun x -> h := ((!h lxor x) * 1_103_515_245) land 0x3FFF_FFFF)
    [ a; b; c ];
  !h

let backoff_ms policy ~index ~attempt =
  if policy.backoff_ms <= 0 then 0
  else begin
    (* exponential base doubling per attempt, plus seeded jitter of up
       to one base unit *)
    let base = policy.backoff_ms * (1 lsl min 6 (attempt - 1)) in
    base + (mix policy.seed index attempt mod max 1 policy.backoff_ms)
  end

let cancel_of policy =
  Option.map (fun ms -> Sim.Runtime.watchdog ~ms) policy.timeout_ms

let protect ?(index = 0) policy job =
  let rec go attempt errors =
    let finish outcome errors =
      (outcome, { m_attempts = attempt; m_errors = List.rev errors })
    in
    match job ~attempt ~cancel:(cancel_of policy) with
    | v -> finish (Pool.Ok v) errors
    | exception Sim.Runtime.Cancelled ->
      let ms = Option.value ~default:0 policy.timeout_ms in
      let what =
        if ms > 0 then Printf.sprintf "deadline of %d ms exceeded" ms
        else "run cancelled by watchdog"
      in
      finish (Pool.Timeout ms)
        (Printf.sprintf "attempt %d: %s" attempt what :: errors)
    | exception Sim.Native.Unavailable m ->
      (* the native toolchain is missing or broke for this process:
         deterministic, so retrying this rung cannot help — fail it
         immediately as a crash and let the caller's degradation
         ladder serve the job from the closure backend *)
      finish
        (Pool.Crash (Pool.exn_info (Sim.Native.Unavailable m)))
        (Printf.sprintf "attempt %d: native backend unavailable: %s" attempt m
        :: errors)
    | exception Sim.Runtime.Trap m ->
      (* a trap is a deterministic property of the simulated program:
         retrying cannot help, so it is final *)
      finish (Pool.Trap m) (Printf.sprintf "attempt %d: trap: %s" attempt m :: errors)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let info = Pool.exn_info ~backtrace:(Printexc.raw_backtrace_to_string bt) e in
      let errors =
        Printf.sprintf "attempt %d: %s" attempt info.Pool.exn_message :: errors
      in
      if attempt > policy.retries then
        if attempt = 1 then finish (Pool.Crash info) errors
        else finish (Pool.Gave_up { attempts = attempt; last = info }) errors
      else begin
        let ms = backoff_ms policy ~index ~attempt in
        if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0);
        go (attempt + 1) errors
      end
  in
  go 1 []

type 'a landing = {
  l_backend : Sim.Machine.backend;
  l_outcome : 'a Pool.outcome;
  l_degraded : bool;
  l_attempts : int;
  l_errors : string list;
}

let walk_ladder ~index policy requested job =
  let rec walk rungs attempts errors =
    match rungs with
    | [] -> assert false
    | backend :: rest -> (
      let outcome, meta = protect ~index policy (job backend) in
      let attempts = attempts + meta.m_attempts in
      let errors = errors @ meta.m_errors in
      match outcome with
      | (Pool.Crash _ | Pool.Gave_up _) when rest <> [] ->
        walk rest attempts errors
      | _ ->
        (* traps and timeouts are properties of the simulated program
           and the deadline, identical on every backend: degrading
           cannot help, so they are final *)
        {
          l_backend = backend;
          l_outcome = outcome;
          l_degraded = backend <> requested;
          l_attempts = attempts;
          l_errors = errors;
        })
  in
  walk
    (if policy.degrade then Sim.Machine.ladder requested else [ requested ])
    0 []
