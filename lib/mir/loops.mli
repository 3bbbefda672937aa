(** Natural loop nests.

    A back edge is an edge [tail -> head] where [head] dominates [tail]
    (via {!Dom}); its header's natural loop is the predecessor closure of
    the back-edge tails, restricted to reachable blocks.  Loops sharing a
    header are merged.  On top of the bare loops this records the nesting
    structure — depth, parent, innermost loop of a block — which the
    static-profile heuristics and frequency propagation consume, and
    {!preheader} gives loop-invariant code motion its landing block. *)

type loop = {
  header : string;
  body : string list;        (** layout order, header included *)
  back_edges : string list;  (** tails of the back edges into the header *)
  depth : int;               (** 1 = outermost *)
  parent : string option;    (** header of the directly enclosing loop *)
}

type t

val analyze : Func.t -> t

val loops : t -> loop list
(** Layout order of the headers. *)

val innermost_first : t -> loop list
(** Deepest first, stable within a depth (layout order). *)

val is_header : t -> string -> bool
val is_back_edge : t -> src:string -> dst:string -> bool

val innermost : t -> string -> loop option
(** Smallest loop containing the label. *)

val in_body : loop -> string -> bool

val preheader : Func.t -> loop -> string
(** The unique block outside the loop that falls into the header,
    creating one if needed (all non-back-edge predecessors of the header
    are retargeted to the new block).  Returns its label. *)
