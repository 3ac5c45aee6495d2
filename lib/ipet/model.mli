(** IPET flow model (Li & Malik): one integer variable per CFG edge plus
    one virtual exit edge per exit node, flow conservation at every
    reachable node, a unit source at the entry, a unit sink across the
    exits, and the loop-bound constraints
    [sum(back edges) <= bound * sum(entry edges)].

    Unreachable nodes are excluded so that disconnected circulation
    cannot inflate the objective. Objectives are added on top by
    {!Wcet} and {!Delta}. *)

type t

val build : Cfg.Graph.t -> Cfg.Loop.loop list -> t

val lp : t -> Ilp.Lp.t

val graph : t -> Cfg.Graph.t

val reachable : t -> int -> bool

val execution_terms : t -> int -> (Ilp.Lp.var * int) list * int
(** [execution_terms t u] is the execution count of node [u] as (linear
    terms, constant): the sum of incoming edge variables, plus 1 when
    [u] is the entry node. *)

val entry_terms_of_loop : t -> Cfg.Loop.loop -> (Ilp.Lp.var * int) list * int
(** Loop-entry count (used to bound first-miss variables). *)

val add_capped_counter : t -> name:string -> node:int -> cap:(Ilp.Lp.var * int) list * int -> Ilp.Lp.var
(** A fresh variable [y] with [0 <= y <= execution count of node] and
    [y <= cap] — the shape of every first-miss counter. *)

val execution_count_bound : Cfg.Loop.loop list -> int -> int
(** Structural (LP-free) bound on the execution count of a node: the
    product of [(bound + 1)] over its enclosing loops ([1] outside any
    loop). Always dominates every feasible IPET execution count — the
    basis of the [Structural] degradation rung. Saturates at [max_int]
    instead of overflowing. *)

val sat_add : int -> int -> int
val sat_mul : int -> int -> int
(** Saturating non-negative arithmetic used by the structural bounds. *)
