(** Cache geometry and timing parameters.

    A configuration is [S] sets x [W] ways of [line_bytes]-byte blocks
    with LRU replacement (the only policy the analysis supports), plus
    the hit/miss latencies used both by the simulators and by the WCET
    costing. The paper's experimental configuration — 1 KB, 4-way,
    16-byte lines, 1-cycle hit, 100-cycle miss — is {!paper_default}. *)

type t = private {
  sets : int;       (** power of two *)
  ways : int;
  line_bytes : int; (** power of two *)
  hit_latency : int;
  miss_latency : int;
}

val make :
  sets:int -> ways:int -> line_bytes:int -> ?hit_latency:int -> ?miss_latency:int -> unit -> t
(** Defaults: hit 1, miss 100.
    @raise Invalid_argument on non-positive or non-power-of-two
    geometry, or [miss_latency < hit_latency]. *)

val paper_default : t
(** 16 sets, 4 ways, 16-byte lines, hit 1, miss 100 (1 KB total). *)

val of_geometry : sets:int -> ways:int -> line_bytes:int -> (t, string) result
(** {!make} at the default latencies, with its [Invalid_argument]
    turned into an [Error] message. *)

val of_string : string -> (t, string) result
(** Parses a geometry written [SETSxWAYS] or [SETSxWAYSxLINE_BYTES]
    (16-byte lines when omitted), e.g. ["16x4"] or ["8x2x32"], and
    validates it through {!of_geometry}. The one geometry syntax of the
    command line and the daemon protocol. *)

val to_string : t -> string
(** ["SETSxWAYSxLINE_BYTES"]; {!of_string} reads it back. *)

val size_bytes : t -> int

val block_bits : t -> int
(** [K] of paper eq. 1: bits per cache block, [8 * line_bytes]. *)

val block_of_address : t -> int -> int
(** Memory-block number of a byte address ([addr / line_bytes]). *)

val set_of_block : t -> int -> int
(** Cache set a memory block maps to ([block mod sets]). *)

val set_of_address : t -> int -> int

val miss_penalty : t -> int
(** Extra cycles a miss costs over a hit ([miss - hit]); the unit of the
    fault-miss-map penalties. *)

val latency : t -> hit:bool -> int
val pp : Format.formatter -> t -> unit
