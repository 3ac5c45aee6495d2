(** Concrete simulators for the paper's two reliability mechanisms.

    - {b RW} (reliable way): one fixed way per set is resilient, so at
      most [W-1] ways of a set can effectively fail. Simulated as an
      ordinary faulty LRU cache whose fault map has the reliable way
      masked.
    - {b SRB} (shared reliable buffer): a single fault-resilient buffer
      of one block, shared by all sets, consulted {e only} when every
      block of the referenced set is faulty (paper Section III-A.2). *)

val rw_cache : fault_map:Fault_map.t -> ?reliable_way:int -> Cache.Config.t -> Lru.t
(** The faulty LRU cache of an RW-protected architecture (default
    reliable way: 0). *)

(** SRB-protected cache. *)
module Srb : sig
  type t

  val create : fault_map:Fault_map.t -> Cache.Config.t -> t
  val access : t -> int -> bool
  val access_block : t -> int -> bool
  val latency_oracle : t -> int -> int
  val reset : t -> unit

  val srb_contents : t -> int option
  (** Block currently held by the buffer. *)

  val srb_accesses : t -> int
  (** How many references were served through the buffer path. *)

  val hits : t -> int
  val misses : t -> int
end
