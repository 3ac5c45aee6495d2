(** Abstract cache states for one cache set under LRU (Ferdinand-style
    abstract interpretation).

    A state maps memory-block numbers to abstract ages in
    [0, assoc - 1]. For the Must analysis an age is an {e upper} bound
    on the block's LRU age over all represented concrete states (so
    presence proves a hit); for the May analysis it is a {e lower}
    bound (so absence proves a miss). *)

type t

val empty : t
(** The cold cache (also the correct entry state for both analyses on a
    cache that is invalidated at boot). *)

val equal : t -> t -> bool
val age : t -> int -> int option
val mem : t -> int -> bool
val blocks : t -> int list

val must_update : assoc:int -> t -> int -> t
(** Access a block: it moves to age 0; blocks with a strictly smaller
    upper-bound age (all blocks when the accessed one is absent) age by
    one and fall out at [assoc]. With [assoc <= 0] the state is empty. *)

val must_join : t -> t -> t
(** Intersection with maximal ages. *)

val may_update : assoc:int -> t -> int -> t
(** Access a block: blocks with a lower-bound age [<=] that of the
    accessed one (all blocks when it is absent) age by one. *)

val may_join : t -> t -> t
(** Union with minimal ages. *)

val pp : Format.formatter -> t -> unit
