(** Condensed per-cache-set Must/May analysis — the only cache fixpoints
    the pipeline runs.

    The analysis of one cache set runs a Must and a May fixpoint whose
    transfer function is the identity on every node that does not
    reference the set. [make] projects the CFG onto the touching nodes
    (plus the entry) once per set: a condensed edge [a -> b] stands for
    every CFG path from [a] to [b] whose interior nodes miss the set.
    Because interior transfers are the identity and the joins are
    associative, commutative and idempotent, the fixpoint over the
    condensed graph stabilises to exactly the in-states of the
    full-CFG fixpoint at the touching nodes, in O(touching nodes)
    instead of O(CFG) per set.

    [ages] runs both fixpoints once, at the configured associativity
    [W], and records every reference's abstract age. The fixpoints run
    on {!State}, a flat bitset encoding of {!Acs} over the set's
    slice-local blocks, and each slice position visits only its own
    references ([Context.refs]). One run serves
    every associativity [A <= W]: {!Acs}'s updates and joins commute
    with truncation to [A] (dropping every age [>= A]), so the fixpoint
    at [A] is the one at [W] truncated, and a reference is must-hit
    (may-present) at [A] iff its Must (May) age is [< A]. {!Chmc} turns
    these ages into the baseline classification and into every
    degraded one the Fault Miss Map needs. *)

type t
(** The per-set projection. Immutable and safe to share across
    domains. *)

val make : Context.t -> set:int -> t

val absent : int
(** The age [ages] records for a block the abstract state does not
    hold ([max_int]): never below any associativity. *)

(** The abstract state both fixpoints run on: an {!Acs} state of one
    LRU set at [ways] ways over the blocks [0..blocks-1], as [ways]
    cumulative bitsets in one [int array]. Level [t] holds the blocks
    whose age is [<= t], which is the state truncated to [t + 1] ways;
    a block's age is the first level holding it. The Must join
    (intersection, larger age) is a word-wise AND of the levels, the May
    join (union, smaller age) a word-wise OR, and an access moves every
    level below the accessed block's old age (Must) or up to it (May)
    one level up and puts the block in level 0. Every operation
    gives the ages {!Acs} gives (pinned by [test_cache_analysis.ml]). *)
module State : sig
  type shape
  type t

  val shape : ways:int -> blocks:int -> shape
  val empty : shape -> t
  val age : shape -> t -> int -> int
  (** The block's abstract age, or {!absent}. *)

  val must_update : shape -> t -> int -> t
  (** {!Acs.must_update} at [ways]; the argument is not modified. *)

  val may_update : shape -> t -> int -> t
  (** {!Acs.may_update} at [ways]; the argument is not modified. *)

  val must_join : t -> t -> t
  val may_join : t -> t -> t
  val equal : t -> t -> bool
end

val ages : t -> must:int array array -> may:int array array -> unit
(** [ages sl ~must ~may] runs the slice set's Must and May fixpoints at
    [config.ways] and writes, for every reference of the set at a
    reachable node, the age of its block in the state just before the
    fetch: [must.(node).(offset)] and [may.(node).(offset)], or
    {!absent}. Both arrays are indexed like [Context.blocks]; entries of
    other sets are left untouched. *)
