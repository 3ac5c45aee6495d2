(** Generic forward data-flow fixpoint over a control-flow graph.

    Worklist iteration in reverse-postorder. The in-state of a node is
    the join of its predecessors' out-states; unreachable nodes keep no
    state ([None]). The worklist is a binary min-heap of node ids
    ordered by (priority, node id), with a queued flag per node so a
    node waits at most once: pops come smallest priority first, in the
    order a set of (priority, node) pairs would give them.

    Both entry points accept an optional iteration cap [max_iters]
    (worklist pops). The cache lattices are finite and the transfer
    functions monotone, so the analyses always terminate — the cap
    exists so a budgeted pipeline can turn a hypothetical divergence
    (e.g. a buggy custom transfer passed to {!run_custom}) into the
    typed error {!Robust.Pwcet_error.Fixpoint_divergence} instead of a
    hang. *)

val run :
  graph:Cfg.Graph.t ->
  entry_state:'a ->
  transfer:(int -> 'a -> 'a) ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  ?max_iters:int ->
  unit ->
  'a option array
(** [run ~graph ~entry_state ~transfer ~join ~equal] returns the
    stabilised {e in}-state of every node (indexed by node id). The
    entry node's in-state additionally joins [entry_state] (the state
    on the virtual entry edge).
    @raise Robust.Pwcet_error.Error with [Fixpoint_divergence] when
    [max_iters] worklist pops pass without stabilisation. *)

val run_custom :
  n:int ->
  entry:int ->
  succ:(int -> int list) ->
  priority:int array ->
  entry_state:'a ->
  transfer:(int -> 'a -> 'a) ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  ?max_iters:int ->
  unit ->
  'a option array
(** Same iteration on an arbitrary graph given by [succ] over node ids
    [0..n-1]. [priority] orders worklist pops (smaller first, unique per
    node — e.g. reverse-postorder positions); the condensed per-set
    projections of {!Slice} run their fixpoints through this entry
    point. A node's out-state may be shared as the in-state of several
    successors, so [transfer] and [join] must not modify their
    arguments. *)
