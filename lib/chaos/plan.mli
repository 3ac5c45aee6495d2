(** Named fault plans: which faults may fire at which injection sites,
    and how often.

    A plan is pure data — probabilities per (site, fault) pair. The
    {!Injector} turns a plan plus a seed into a deterministic fault
    schedule: whether occurrence [k] at a site faults is a pure
    function of [(seed, site, k)], never of wall clock or scheduling.

    The built-in plans mirror the fault model of DESIGN.md §14: [store]
    (EIO/ENOSPC/short writes/failed fsync and rename/readback
    bit-flips), [workers] (worker-domain deaths and stalls), [pool]
    (DAG-node deaths and stalls, keyed by node index), [service]
    (EAGAIN, partial and reset transfers, refused connects), [all]
    (their union) and [none]. *)

type fault =
  | Io_error of Unix.error  (** the operation raises this errno *)
  | Short_io  (** the transfer moves only part of its bytes *)
  | Bit_flip  (** one bit of the data read back is flipped *)
  | Stall of float  (** the operation sleeps this many seconds first *)
  | Kill  (** the executing worker dies ({!Injector.Killed}) *)

type rule = { site : string; p : float; fault : fault }
type t = { name : string; rules : rule list }

val rule : string -> float -> fault -> rule
(** @raise Invalid_argument if [p] lies outside [0, 1]. *)

val none : t
val store_plan : t
val workers_plan : t
val pool_plan : t
val service_plan : t
val all_plan : t

val builtin : t list
val all_names : string list

val named : string -> (t, string) result
(** Look a built-in plan up by name; the error lists the valid names. *)

val sites : t -> string list
(** The distinct sites the plan mentions, sorted. *)
