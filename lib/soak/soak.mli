(** The deterministic fault-injection soak behind [pwcet_tool chaos].

    Seeded campaigns cycle through the analyze / sweep / grid / sched
    workloads on fibcall at 8x2x16, each under its own injector (seeded
    purely from (seed, campaign index)) and against its own throwaway
    store; the sweep campaigns also fuzz a resume journal with torn
    appends. Each campaign is classified against its workload's
    fault-free reference: [Match] (bit-identical: the self-healing
    layers masked every fault), [Typed] (a typed error, such as a killed
    DAG node's [Worker_crash] cells: visible and sound), [Corrupt] (a
    different result with no typed error: silent corruption, the one
    outcome the architecture promises never happens) or [Escape] (an
    exception leaked out of the workload).

    The soak digest folds every campaign's (workload, verdict, result
    digest) triple; it is a pure function of (seed, plan, campaigns) —
    the same at any [jobs] — because pool-node faults are keyed by node
    index and store faults are fully masked. *)

type verdict = Match | Typed | Corrupt | Escape

val verdict_name : verdict -> string
(** ["match"], ["typed"], ["corrupt"] or ["escape"]. *)

val workloads : string list
(** ["analyze"; "sweep"; "grid"; "sched"]: campaign [i] runs the [i mod 4]th. *)

type campaign = {
  index : int;
  workload : string;
  verdict : verdict;
  digest : string;  (** the result digest, ["-"] for an escape *)
  detail : string option;  (** why a campaign is corrupt or escaped *)
}

type report = {
  campaigns : campaign list;  (** in campaign order *)
  injected : int;  (** faults the injectors fired, over every campaign *)
  digest : string;  (** the soak digest *)
}

val run : campaigns:int -> seed:int -> plan:Chaos.Plan.t -> jobs:int -> dir:string -> report
(** Runs the soak in the scratch directory [dir] (created if missing,
    emptied as the soak goes and then removed). [jobs] is the worker
    count of the grid and sched campaigns. Never prints.
    @raise Invalid_argument if [campaigns < 1]. *)

val count : ?workload:string -> report -> verdict -> int
(** The soak's tallies: campaigns with this verdict (of [workload] only). *)

val remove_tree : string -> unit
(** Removes a file or directory tree, skipping what cannot be removed. *)
