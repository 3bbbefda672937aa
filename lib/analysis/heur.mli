(** Static branch-probability heuristics (Ball–Larus / Wu–Larus).

    For every two-way [Br] of a function this collects the applicable
    heuristic {e evidence} — loop branch, loop exit, compare opcode,
    trap guard, call, store, return, each with its literature hit rate
    as the taken-edge probability — and fuses the pieces by
    Dempster–Shafer combination.  A branch with no applicable evidence
    is a coin flip (0.5).

    Adapted to MIR's condition-code machine: the opcode heuristic reads
    the block's own last [Cmp] (normalizing swapped operand order) and
    abstains on cc-reuse blocks that inherit the codes from a
    predecessor; the successor-property heuristics abstain when the
    successor postdominates the branch, or when both successors trigger
    (Ball–Larus applicability). *)

type evidence = {
  ev_heur : string;
      (** stable name: ["loop-branch"], ["loop-exit"], ["opcode"],
          ["guard"], ["call"], ["store"], ["return"] *)
  ev_taken : float;  (** P(taken edge) under this heuristic alone *)
}

type t

val analyze : ?loops:Mir.Loops.t -> ?post:Mir.Dom.t -> Mir.Func.t -> t
(** [loops] and [post] (postdominators) are computed when not
    supplied. *)

val evidence : t -> string -> evidence list
(** The applicable evidence at a [Br] block, in a fixed order; [[]] for
    non-branch labels and undecidable branches. *)

val taken_prob : t -> string -> float
(** Fused probability that the block's branch takes its taken edge;
    [0.5] without evidence. *)

val combine : float -> float -> float
(** Dempster–Shafer combination of two probabilities over a
    two-hypothesis frame: [p1*p2 / (p1*p2 + (1-p1)*(1-p2))].  [0.5] is
    the identity; exposed for the golden heuristic tests. *)
