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
    [W], and records every reference's abstract age. One run serves
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

val ages : t -> must:int array array -> may:int array array -> unit
(** [ages sl ~must ~may] runs the slice set's Must and May fixpoints at
    [config.ways] and writes, for every reference of the set at a
    reachable node, the age of its block in the state just before the
    fetch: [must.(node).(offset)] and [may.(node).(offset)], or
    {!absent}. Both arrays are indexed like [Context.blocks]; entries of
    other sets are left untouched. *)
