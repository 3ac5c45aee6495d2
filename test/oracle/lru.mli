(** Concrete LRU instruction-cache simulator with disabled (faulty)
    blocks.

    A set with [k] working ways behaves as an LRU stack of depth [k]
    (paper Section II-A: "the size of the LRU stack of a set is reduced
    by its number of faulty blocks"); a fully-faulty set caches
    nothing. *)

type t

val create : ?fault_map:Fault_map.t -> Cache.Config.t -> t
(** Empty (cold) cache; default fault map is fault-free. *)

val access : t -> int -> bool
(** [access t addr] — true on hit; updates LRU state and loads the
    block on a miss (if the set has any working way). *)

val access_block : t -> int -> bool
(** Same, taking a memory-block number instead of an address. *)

val latency : Cache.Config.t -> hit:bool -> int
(** The fetch latency of a hit or a miss under a configuration. *)

val latency_oracle : t -> int -> int
(** [access] wrapped into a fetch-latency function for
    {!Machine.run}. *)

val reset : t -> unit
val contents : t -> int -> int list
(** Blocks of a set, MRU first (for tests). *)

val config : t -> Cache.Config.t
val hits : t -> int
val misses : t -> int
