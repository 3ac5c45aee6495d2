(** Concrete permanent-fault maps: which physical cache block (set, way)
    is faulty. The paper's fault model (Section II-A): each SRAM bit
    fails independently with probability [pfail]; a block with any
    faulty bit is disabled; LRU makes the position of faulty ways in a
    set irrelevant — only the count matters. The concrete caches
    ({!Lru}, {!Reliable}) take one as their fault pattern. *)

type t

val fault_free : Cache.Config.t -> t

val of_faulty_counts : Cache.Config.t -> int array -> t
(** [of_faulty_counts cfg counts] marks the first [counts.(s)] ways of
    each set faulty (position is immaterial under LRU).
    @raise Invalid_argument on bad array length or counts outside
    [0, ways]. *)

val sample : Cache.Config.t -> pbf:float -> Random.State.t -> t
(** Independent Bernoulli([pbf]) per physical block — the concrete
    counterpart of paper eq. 2. *)

val is_faulty : t -> set:int -> way:int -> bool
val working_in_set : t -> int -> int
val total_faulty : t -> int
val faulty_counts : t -> int array

val mask_way : t -> way:int -> t
(** [mask_way t ~way] returns a map where faults in the given way are
    masked (repaired) in every set — the RW mechanism's effect. *)
