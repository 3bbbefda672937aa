(** Command-line terms shared by [bromc] and the bench harness.

    Every flag the two front ends have in common is declared here once,
    so both parse, validate and document it the same way: a malformed
    value (an unknown heuristic set or engine, [-j 0], a negative
    retry budget) is a usage error in either program. *)

val heuristic : Mopt.Switch_lower.heuristic_set Cmdliner.Term.t
(** [--heuristic] (alias [--h-set]): switch translation heuristic set
    I, II or III (paper Table 2); default I. *)

val engine : ?degrade:bool -> unit -> Driver.Config.t Cmdliner.Term.t
(** [--backend], [--native-cache] and [--no-native-cache] as one term,
    yielding {!Driver.Config.default} with its three engine fields set
    (backend default: compiled).  The store options are also applied
    process-wide, for {!Sim.Native} callers that do not thread a
    config.  Unless [degrade] (commands that walk their own degradation
    ladder), an unavailable native engine warns and resolves to
    compiled instead of dying on [Unavailable]. *)

val engines : Sim.Machine.backend list Cmdliner.Term.t
(** [--backend] and [--native] as the engine list of a differential
    run: the one engine named by [--backend], else
    {!Check.Fuzz.all_backends} under [--native], else
    {!Check.Fuzz.default_backends}. *)

val verify : ?doc:string -> unit -> bool Cmdliner.Term.t
(** The [--verify] flag.  Its default meaning is translation validation
    of every rewrite; [doc] gives it another one. *)

val jobs : int Cmdliner.Term.t
(** [-j]/[--jobs N], N >= 1: domains to fan jobs across; default
    {!Driver.Pool.default_domains}. *)

val timeout_ms : int option Cmdliner.Term.t
(** [--timeout-ms MS], MS >= 1: per-attempt watchdog. *)

val policy : Driver.Guard.policy Cmdliner.Term.t
(** [--timeout-ms] and [--retries N] (N >= 0, default 0) as a
    {!Driver.Guard.policy} that also walks the degradation ladder. *)

val failures_json : string option Cmdliner.Term.t
(** [--failures-json FILE]: the JSON-lines outcome manifest. *)

val workload_jobs :
  ?trim:(string -> string) ->
  config:Driver.Config.t ->
  Workloads.Spec.t list ->
  Driver.Pipeline.job list
(** One pipeline job per workload, its inputs forced here (so lazy
    inputs are forced once, before any domain fan-out) and passed
    through [trim] (default: unchanged). *)
