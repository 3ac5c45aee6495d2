(** Schedulability campaigns: many task sets, one pool of per-benchmark
    pWCET laws.

    The expensive work — static analysis and fault-penalty estimation
    per benchmark — depends only on (benchmark, geometry, mechanism,
    pfail), not on the task set, so a campaign computes each distinct
    benchmark's law exactly once ({!laws}, store-backed via
    {!Pwcet.Estimator}'s artifact keys) and fans the cheap per-set
    analysis out over domains. Task sets are pure functions of
    [(spec, index)] ({!Taskset.generate}), and unbudgeted analyses are
    pure functions of their inputs, so the campaign digest is
    bit-identical for every [jobs] value; budgeted runs trade that for
    wall-clock degradation (like the estimator's store bypass) and are
    deliberately excluded from the determinism contract. *)

type spec = {
  count : int;  (** task sets in the campaign *)
  n_tasks : int;
  utilisation : float;  (** total, in (0, n_tasks] *)
  seed : int;
  policy : Analysis.policy;
  reexec_budget : int;  (** k read by the headline verdict *)
  k_max : int;  (** top of the minimal-budget scan *)
  targets : float list;
  pfail : float;  (** per-bit permanent failure probability *)
  mechanism : Pwcet.Mechanism.t;
  sets : int;
  ways : int;
  line : int;  (** cache geometry, as the estimator takes it *)
  fault_rate : float;  (** transient (detected) faults per hour, in [0,1) *)
  clock_mhz : float;
  rep_target : float;  (** quantile provisioning each task's budget *)
  max_points : int;  (** convolution cap for the sched layer *)
  benchmarks : string list;
}

val default : spec
(** The campaign defaults, read by {!make}, the CLI's sched options and
    the daemon's sched decoder: a small RM campaign over the whole
    registry (100 sets of 4 tasks at total utilisation 0.6, budget 1,
    scan to 3, {!Analysis.default_targets}, pfail {!Pwcet.Param.pfail},
    SRB, the paper's 16x4x16 geometry, fault rate 1e-4/hour at
    100 MHz, rep target 1e-9, 512-point cap). *)

val make :
  ?count:int ->
  ?n_tasks:int ->
  ?utilisation:float ->
  ?seed:int ->
  ?policy:Analysis.policy ->
  ?reexec_budget:int ->
  ?k_max:int ->
  ?targets:float list ->
  ?pfail:float ->
  ?mechanism:Pwcet.Mechanism.t ->
  ?sets:int ->
  ?ways:int ->
  ?line:int ->
  ?fault_rate:float ->
  ?clock_mhz:float ->
  ?rep_target:float ->
  ?max_points:int ->
  ?benchmarks:string list ->
  unit ->
  (spec, string) result
(** Validated construction ({!validate}); an omitted field takes its
    {!default}, and an empty [benchmarks] means the whole registry. *)

val validate : spec -> (unit, string) result
(** Every field in its range: probabilities ([pfail], [rep_target],
    each target) by {!Pwcet.Param.probability}, [fault_rate] by
    {!Pwcet.Param.rate}, [clock_mhz] by {!Pwcet.Param.positive}, the
    geometry by {!Cache.Config.of_geometry}; registry benchmarks only,
    and [k_max] at least [reexec_budget]. *)

val cycles_per_hour : spec -> float

val taskset_spec : spec -> Taskset.spec
(** The generation-relevant projection of the spec. *)

val distinct_benchmarks : spec -> string list
(** [spec.benchmarks] with duplicates dropped, first occurrence kept —
    the order {!laws} computes (and callers must supply) laws in. *)

val identity : spec -> (string * string) list
(** Labelled key components pinning everything a campaign result
    depends on — every spec field plus {!Pwcet.Estimator.code_version}
    (floats by IEEE bit pattern) — the journal/run key for resumable
    CLI runs and the dedup key for service requests. *)

(** {2 Per-benchmark laws} *)

type bench_law = {
  bench : string;
  law : Prob.Dist.t;
      (** single-execution pWCET law [wcet_ff + penalty], re-capped to
          the spec's [max_points] *)
  wcet_ff : int;
  law_rung : Robust.Rung.t;
}

val law_of_estimate : spec -> bench:string -> Pwcet.Estimator.estimate -> bench_law
(** Shift the estimate's penalty by its fault-free WCET and re-cap to
    the sched layer's [max_points] — the adapter the service layer
    uses to feed its own deduplicated estimates into
    {!run_with_laws}. *)

val laws :
  ?store:Store.Artifact.t ->
  ?budget:Robust.Budget.t ->
  ?jobs:int ->
  spec ->
  bench_law list
(** One law per distinct benchmark in [spec.benchmarks], in that
    order, computed across [jobs] domains. [store] caches the
    underlying artifacts under the estimator's PR-5 keys; budgeted
    runs bypass it (estimator contract).
    @raise Invalid_argument when {!validate} rejects the spec. *)

(** {2 Results} *)

type task_row = {
  bench : string;
  utilisation : float;
  period : int;
  p_exec : float;
  p_job : float;
  p_hour : float;
  jobs_per_hour : float;
  task_rung : Robust.Rung.t;
  capped : bool;
  error : Robust.Pwcet_error.t option;
}

type set_result = {
  set_index : int;
  rows : task_row list;
  p_system_hour : float;
  rung : Robust.Rung.t;
  capped : bool;
  degraded : bool;
  passes : (float * bool) list;
  min_budget : (float * int option) list;
}

val result_of_verdict : Analysis.verdict -> set_result

val result_to_wire : set_result -> string
(** Canonical bytes (deterministic {!Store.Wire} encoding) — the unit
    of journal resume and of the campaign digest. *)

val result_of_wire : string -> (set_result, string) result

val digest_of_results : set_result list -> string
(** MD5 hex over the concatenated canonical encodings, in list order —
    equal digests mean equal reported campaigns, bit for bit. *)

val analyze_set :
  ?budget:Robust.Budget.t ->
  ?mc_samples:int ->
  ?mc_seed:int ->
  spec ->
  bench_law list ->
  index:int ->
  set_result * Montecarlo.t option
(** Generate and analyse the [index]-th task set. [mc_samples > 0]
    additionally cross-validates against {!Montecarlo} (seeded
    per-set from [mc_seed], default the spec seed). *)

type t = {
  spec : spec;
  results : set_result list;  (** in set order *)
  mc : (int * Montecarlo.t) list;  (** per set index, when requested *)
  digest : string;
}

val run_with_laws :
  ?budget:Robust.Budget.t ->
  ?jobs:int ->
  ?mc_samples:int ->
  ?mc_seed:int ->
  ?skip:(int -> set_result option) ->
  ?on_result:(set_result -> unit) ->
  spec ->
  bench_law list ->
  t
(** Analyses the campaign's sets across [jobs] domains. [skip index]
    short-circuits a set whose result is already known (journal
    replay): it is neither analysed nor Monte-Carlo-validated.
    [on_result] observes each {e freshly computed} set as it completes,
    possibly from a worker domain and in completion (not set) order —
    callers that append to a journal must serialise themselves.
    [results], [mc] and [digest] are in set order either way. *)

val run :
  ?store:Store.Artifact.t ->
  ?budget:Robust.Budget.t ->
  ?jobs:int ->
  ?mc_samples:int ->
  ?mc_seed:int ->
  spec ->
  t
(** {!laws} followed by {!run_with_laws}. *)
