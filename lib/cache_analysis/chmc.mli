(** Cache Hit/Miss Classification (CHMC) of every instruction fetch.

    Combines three analyses (paper Section II-B.1):
    - {b Must} (abstract interpretation): proves always-hit;
    - {b Persistence} (conflict-set based, per loop scope and globally):
      proves first-miss — at most one miss per entry of the scope;
    - {b May}: proves always-miss (absence from the may-cache).

    Everything else is not-classified, which the paper costs exactly
    like always-miss.

    The per-set associativity override [assoc] is how faulty blocks
    enter the picture: a set with [f] disabled ways is analysed with
    associativity [W - f] (paper Section II-C); [0] means the set
    caches nothing. The conflict-set persistence criterion (a block is
    persistent in a scope when the number of distinct blocks mapping to
    its set within that scope does not exceed the set's associativity)
    is a sound simplification of Ferdinand's persistence that avoids
    its known unsoundness (Cullmann 2013). *)

type scope =
  | Global  (** at most one miss over the whole execution *)
  | Loop of int  (** at most one miss per entry of the loop with this header node *)

type classification =
  | Always_hit
  | First_miss of scope
  | Always_miss
  | Not_classified

type t

val analyze :
  ?ctx:Context.t ->
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  ?assoc:(int -> int) ->
  ?only_sets:int list ->
  unit ->
  t
(** [assoc] maps a cache set to its effective associativity (default:
    [config.ways] everywhere). [only_sets] restricts the analysis to
    references mapping to the given cache sets (others stay
    [Not_classified]). [ctx] supplies a precomputed {!Context.t} for
    [(graph, loops, config)]; without it one is derived internally on
    every call.

    Each analysed set runs one {!Slice.ages} (a Must and a May fixpoint
    over the set's condensed slice, at [config.ways]) and classifies at
    [assoc set] by thresholds on the ages. The result keeps the ages, so
    {!degraded} classifies the same set at any smaller associativity
    without another fixpoint.
    @raise Invalid_argument when [assoc s > config.ways] for an analysed
    set. *)

val degraded : t -> set:int -> assoc:int -> node:int -> offset:int -> classification
(** [degraded t ~set ~assoc] is the classification of [set]'s references
    when that set alone has associativity [assoc] (the Fault Miss Map's
    [W - f] for [f] faulty ways, Section II-C), read off the ages [t]
    already holds: the same value {!analyze} with
    [~assoc:(fun s -> if s = set then assoc else ways) ~only_sets:[set]]
    returns, at no fixpoint cost. Why a threshold suffices: the Must and
    May updates and joins commute with truncation to [assoc], so the
    least fixpoint at [assoc] is the one at [config.ways] with every age
    [>= assoc] dropped. References of other sets, and of unreachable
    nodes, are [Not_classified].
    @raise Invalid_argument when [assoc > config.ways], or when [set] is
    referenced but [t] was restricted by [only_sets] to exclude it. *)

val classify_ref :
  Context.t ->
  set:int ->
  assoc:int ->
  node:int ->
  must_hit:bool ->
  may_present:bool ->
  classification
(** Classification of one reference of [set] at [node] from its
    stabilised Must/May presence: must-hit, else global persistence,
    else outermost fitting loop persistence, else always-miss when
    absent from the May cache. Shared with the test oracle's whole-CFG
    analysis, so the two differ only in how presence is found. *)

val set_signature :
  Context.t ->
  set:int ->
  degraded:(node:int -> offset:int -> classification) ->
  classification list
(** The classifications of every reference mapping to [set], folded
    over the context's touching-node index only (node then offset
    order). The FMM row memoises its per-fault-count delta bounds on
    this signature. *)

val classification : t -> node:int -> offset:int -> classification
(** Classification of the [offset]-th instruction of node [node]. *)

val block : t -> node:int -> offset:int -> int
(** Memory-block number fetched by that instruction. *)

val cache_set : t -> node:int -> offset:int -> int

val fold_refs : (node:int -> offset:int -> classification -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all reachable references in node/offset order. *)

val miss_cost_per_execution : classification -> bool
(** True when the reference must be costed as a miss on {e every}
    execution (always-miss / not-classified). *)

val pp_classification : Format.formatter -> classification -> unit
