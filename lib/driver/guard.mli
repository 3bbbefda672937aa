(** Per-job resilience: watchdog deadlines, bounded seeded retries, and
    structured failure classification.

    {!protect} runs one job under a {!policy} and always returns — every
    exception the job can raise is folded into a {!Pool.outcome}:

    - normal return               → [Ok]
    - {!Sim.Runtime.Cancelled}    → [Timeout] (the watchdog fired)
    - {!Sim.Runtime.Trap}         → [Trap] (deterministic; never retried)
    - any other exception         → retried up to [retries] times with
      seeded exponential backoff, then [Crash] (no retries configured)
      or [Gave_up] (retries exhausted)

    Backend degradation (the [degrade] field) is {!walk_ladder}: it
    walks the execution backends from the requested one down to the
    reference interpreter and calls {!protect} once per rung.  It is the
    one ladder walk, serving both batch jobs
    ({!Pipeline.run_guarded_job}) and daemon requests ({!Server}). *)

type policy = {
  timeout_ms : int option;
      (** per-attempt wall-clock budget; [None] = no watchdog *)
  retries : int;      (** extra attempts after a crashed one (not traps) *)
  backoff_ms : int;   (** base backoff unit; doubles per attempt, with
                          seeded jitter of up to one unit; [0] = none *)
  seed : int;         (** jitter seed — retry schedules are reproducible *)
  degrade : bool;     (** walk the backend ladder on failure
                          ({!walk_ladder}) *)
}

val default : policy
(** No timeout, no retries, 10 ms backoff base, no degradation. *)

type meta = {
  m_attempts : int;        (** attempts performed, >= 1 *)
  m_errors : string list;  (** one line per failed attempt, oldest first *)
}

val backoff_ms : policy -> index:int -> attempt:int -> int
(** The deterministic backoff before retrying [attempt] of job [index]. *)

val cancel_of : policy -> (unit -> bool) option
(** A fresh watchdog flag for one attempt under [policy]'s deadline
    ([None] when the policy has no timeout). *)

val protect :
  ?index:int ->
  policy ->
  (attempt:int -> cancel:(unit -> bool) option -> 'a) ->
  'a Pool.outcome * meta
(** Run a job to a structured outcome; never raises from the job's own
    failures.  The job receives the attempt number (1-based) and a fresh
    cancellation flag to thread into {!Sim.Runtime.config.cancel};
    [index] only seeds the backoff jitter. *)

type 'a landing = {
  l_backend : Sim.Machine.backend;  (** the rung that gave [l_outcome] *)
  l_outcome : 'a Pool.outcome;
  l_degraded : bool;  (** [l_backend] is below the requested rung *)
  l_attempts : int;  (** attempts summed over every rung tried *)
  l_errors : string list;  (** every rung's failed attempts, oldest first *)
}

val walk_ladder :
  index:int ->
  policy ->
  Sim.Machine.backend ->
  (Sim.Machine.backend -> attempt:int -> cancel:(unit -> bool) option -> 'a) ->
  'a landing
(** [walk_ladder ~index policy requested job] runs [job backend] under
    {!protect} on each rung of {!Sim.Machine.ladder}[ requested] in
    turn ([requested] alone when [policy.degrade] is off).  [Ok], [Trap]
    and [Timeout] are final; [Crash] and [Gave_up] step down one rung
    until the ladder runs out.  The job closure sees the rung it runs
    on, so callers arm faults or pick artifacts per rung there. *)
