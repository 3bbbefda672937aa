(** Block and edge frequency propagation (Wu–Larus).

    From the heuristic branch probabilities of {!Heur}, every block gets
    an expected execution frequency per function invocation: loops are
    processed innermost-first, each header's {e cyclic probability}
    (mass its back edges return per entry) becomes a loop multiplier
    capped at {!loop_cap}, and a final pass from the entry
    ([bfreq(entry) = 1]) makes the frequencies absolute.

    Guarantees, property-tested in [test_static]: all frequencies are
    finite and non-negative, every successor distribution sums to 1,
    and at every block the final pass reached (other than a loop
    header's re-entry mass) inflow equals frequency. *)

type t

val analyze : ?heur:Heur.t -> ?loops:Mir.Loops.t -> Mir.Func.t -> t
(** [heur] / [loops] are computed when not supplied. *)

val loop_cap : float
(** Saturation of a header's multiplier [1/(1 - cyclic_prob)] (64). *)

val block_freq : t -> string -> float
(** Expected executions per invocation; [0.] for blocks the propagation
    never reached (unreachable, or stranded in an irreducible region). *)

val edge_freq : t -> src:string -> dst:string -> float
(** [block_freq src * P(src -> dst)]. *)

val succ_probs : t -> string -> (string * float) list
(** The successor probability distribution of a block: heuristic split
    for two-way branches, uniform per table slot for [Jtab]/[Switch]
    (duplicate targets summed), [1.] for jumps; sums to 1 (or is empty,
    for returns). *)

val reached : t -> string -> bool
(** The final propagation pass assigned this block a frequency. *)
