(** Whole-function constant propagation: one forward pass on
    {!Mir.Dataflow} over a flat per-register lattice
    ([Const c | Nac], with "unreached" as bottom).

    At function entry every register holds 0 (the simulator
    zero-initialises register files) except the parameters, which are
    not a constant.  Only [Mov r, #c] makes a constant that crosses a
    block boundary; every other definition is not a constant there.  A
    delay slot defines on the edge: a plain slot on every edge, an
    annulled one only on the taken edge of a two-way branch.

    Within a block, moves, unary and binary operations fold locally on
    top of the block's entry facts, and uses whose register is a known
    constant are rewritten to immediates.  Compares are left untouched:
    the sequence detector wants registers there, and the interval facts
    already see through them. *)

val run_func : Mir.Func.t -> bool
(** Returns true when something changed. *)
