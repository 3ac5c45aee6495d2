(** Deterministic, seeded fault injection.

    An injector binds a {!Plan.t} to a seed. Every fault decision is a
    pure function of [(seed, site, occurrence)] — the same counter-based
    construction, over the same {!Numeric.Splitmix} mixer, as
    [Sim.Rng] — so a fault schedule is reproducible from the
    seed alone: re-running the same operations in the same per-site
    order re-injects exactly the same faults, in any process, at any
    parallelism. Sites whose occurrence numbering is owned by the
    caller ({!tap_at}, e.g. DAG nodes keyed by node index) are
    deterministic even across execution orders.

    Injectors are safe to share across domains and threads: the site
    table is immutable after {!create} and the per-site occurrence and
    hit counters are atomics.

    Every tap takes [t option] and is a no-op returning instantly on
    [None] — production call sites pay one pattern match when chaos is
    off. *)

type t

exception Killed of string
(** Simulated death of the executing worker, raised at the named site.
    The worker layers catch it {e outside} job containment, so it kills
    the domain (which must requeue its job and respawn), unlike a job
    exception (which is contained per-item). *)

type outcome = Pass | Fail of Unix.error | Short | Flip | Sleep of float | Die

val create : seed:int -> Plan.t -> t
val seed : t -> int
val plan : t -> Plan.t

val decide : t -> site:string -> outcome
(** Decision for the next occurrence (in program order) at [site];
    bumps the site's occurrence counter. *)

val decide_at : t -> site:string -> occurrence:int -> outcome
(** Decision for an explicitly numbered occurrence; does not touch the
    site counter. Use when the caller owns a stable numbering (node or
    item index), making the schedule independent of execution order. *)

val injected : t -> (string * int) list
(** Non-[Pass] decisions recorded per site, sorted by site name. *)

val total_injected : t -> int

(** {1 Taps} *)

val tap : t option -> site:string -> unit
(** [Fail] raises [Unix.Unix_error (err, site, "chaos")]; [Sleep]
    sleeps; [Die] raises {!Killed}; everything else passes. *)

val tap_at : t option -> site:string -> occurrence:int -> unit
(** {!tap} with caller-owned occurrence numbering ({!decide_at}). *)

val tap_io : t option -> site:string -> len:int -> [ `Full | `Partial of int ]
(** Length injection for a transfer of [len] bytes: [`Partial n] asks
    the call site to move only [n] bytes (0 <= n < [len]) this once.
    Whether that partial transfer is then retried (a short socket
    write) or aborted torn (ENOSPC mid-append) is the call site's
    semantics. [Fail]/[Die] raise as in {!tap}. *)

val tap_data : t option -> site:string -> string -> string
(** Readback corruption: on [Flip], returns the data with one
    deterministically chosen bit flipped — the integrity layer above
    must catch it. Otherwise the data, unchanged. *)

val tap_worker : t option -> site:string -> [ `Pass | `Die | `Sleep of float ]
(** Non-raising variant for worker loops, which must run their own
    requeue/respawn protocol around a simulated death. *)
