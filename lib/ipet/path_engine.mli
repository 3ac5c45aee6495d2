(** Tree-based (loop-collapse) longest-path engine — the combinatorial
    alternative to the ILP for IPET-shaped objectives, in the style of
    Heptane's tree method (Colin & Puaut).

    Loops are collapsed innermost-first: a loop with bound [b] becomes a
    super-node costing [b * C_iter + C_exit + one_shots], where [C_iter]
    is the heaviest header-to-back-edge path through the (already
    collapsed) body DAG, [C_exit] the heaviest header-to-exit path, and
    [one_shots] the first-miss-style charges scoped to this loop (paid
    once per loop entry). The result over the final DAG is a sound upper
    bound of the maximum path cost: every complete iteration costs at
    most [C_iter], there are at most [b] of them per entry, and the
    final partial traversal costs at most [C_exit].

    Compared to the LP relaxation this engine is typically equal or
    tighter on flow costs, charges scoped one-shots unconditionally
    (slightly more conservative), and runs in near-linear time — which
    is what makes the per-set, per-fault-count FMM computation cheap. *)

type scope =
  | Whole_program
  | Loop_scope of int  (** loop header node id *)

type plan
(** The cost-independent half of the collapse for one CFG and its
    loops: the innermost-first loop order and, per loop and for the
    final DAG, the members in topological order with their member-only
    successors, the back-edge sources, the members that leave the loop
    (or the program exits) and the loop bound — all as flat [int]
    arrays. Immutable once built, so one plan may be evaluated from
    several domains at once. *)

val plan : graph:Cfg.Graph.t -> loops:Cfg.Loop.loop list -> plan
(** Runs the collapse once; every later {!eval} reuses it. *)

val eval : plan -> node_cost:(int -> int) -> one_shots:(scope * int) list -> int
(** Maximum cost over entry-to-exit paths: one forward max-plus pass
    over the plan's arrays, with scratch arrays of its own.
    [node_cost] is asked about every reachable node and charged per
    execution of it; each [one_shot] is charged once per entry of its
    scope (once per run for [Whole_program]; once per entry of every
    loop headed by [h] for [Loop_scope h], nothing if [h] heads no
    loop).
    @raise Invalid_argument on a negative node cost or one-shot. *)

val longest :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  node_cost:(int -> int) ->
  one_shots:(scope * int) list ->
  int
(** [eval (plan ~graph ~loops) ~node_cost ~one_shots], for a single
    query on a CFG. *)
