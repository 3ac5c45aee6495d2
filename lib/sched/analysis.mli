(** Deadline-failure-probability analysis under RM and EDF.

    Each task contributes a single-execution pWCET law (fault-free WCET
    plus fault penalty, from {!Pwcet.Estimator}); a job is that law
    under bounded re-execution ({!Reexec}). For one job of task [i]
    with implicit deadline [D_i = T_i], the analysis convolves the
    interference of every other task's jobs released inside the window
    with the job's own executed demand and reads the exceedance at the
    deadline:

    [p_job_i = p^(k+1) + sum_j p^(j-1)(1-p) * P(I_i + j-fold C_i > D_i)]

    where the first term is the budget-exhaustion residual (certain
    failure) and [I_i] convolves, per interfering task [j], the
    full-mass {!Reexec.interference_demand} to the power of the number
    of interfering jobs — [ceil(D_i/T_j)] for higher-priority tasks
    under RM, [floor(D_i/T_j)] under EDF (the demand-bound count for
    implicit deadlines). Every convolution is capped at [max_points]
    with the engine's upward-conservative fold, so a capped analysis
    over-approximates the uncapped one; capping is recorded as
    provenance ([capped], rung at least [Relaxed]) rather than changing
    any verdict semantics.

    Degradation: when the optional {!Robust.Budget.t} deadline expires,
    the remaining tasks are not analysed — they report the sound upper
    bound [p_job = 1] with rung [Structural] and a
    [Budget_exhausted] error, and the set-level verdict carries
    [degraded = true]. The analysis never aborts. *)

type policy = Rm | Edf

val policy_name : policy -> string
val policy_of_string : string -> (policy, string) result
(** ["rm"] or ["edf"]; the error names both. *)

type model = {
  bench : string;  (** benchmark label, for reports *)
  utilisation : float;  (** in (0, 1] *)
  exec : Prob.Dist.t;  (** single-execution pWCET law, cycles *)
  period : int;  (** cycles; implicit deadline *)
  p_exec : float;  (** per-execution fault-detection probability *)
  rung : Robust.Rung.t;  (** provenance inherited from the estimate *)
}

val model_of_law :
  bench:string ->
  utilisation:float ->
  law:Prob.Dist.t ->
  rep_target:float ->
  fault_rate_per_hour:float ->
  cycles_per_hour:float ->
  rung:Robust.Rung.t ->
  model
(** Derives the period from the law's [rep_target] quantile [rep]
    (the provisioned per-execution budget): [T = ceil(rep / u)], and
    the per-execution fault probability from [rep] cycles of exposure
    at the given per-hour rate ({!Reexec.p_exec}).
    @raise Invalid_argument on a utilisation outside (0, 1] or a law
    with an empty support. *)

type params = {
  policy : policy;
  budget : int;  (** re-execution budget [k] the verdict is read at *)
  k_max : int;  (** top of the minimal-budget scan, at least [budget] *)
  max_points : int;  (** convolution cap, with provenance when it binds *)
  cycles_per_hour : float;
  targets : float list;  (** per-hour failure-rate targets, e.g. 1e-3..1e-9 *)
}

val default_targets : float list
(** [1e-3; 1e-5; 1e-7; 1e-9] — snippet 1's target ladder. *)

type task_verdict = {
  model : model;
  p_job : float;  (** deadline-failure probability per job *)
  p_hour : float;  (** per hour, composed over [jobs_per_hour] *)
  jobs_per_hour : float;
  task_rung : Robust.Rung.t;  (** worst of the model's rung and capping *)
  capped : bool;  (** some convolution hit [max_points] *)
  error : Robust.Pwcet_error.t option;  (** budget exhaustion, if any *)
}

type verdict = {
  set_index : int;
  tasks : task_verdict list;
  p_system_hour : float;  (** any-task deadline failure per hour *)
  rung : Robust.Rung.t;  (** worst task rung *)
  capped : bool;
  degraded : bool;  (** some task carries a budget-exhaustion bound *)
  passes : (float * bool) list;  (** per target, at budget [params.budget] *)
  min_budget : (float * int option) list;
      (** per target, the smallest [k <= k_max] whose system failure
          rate meets it; [None] when none does *)
}

val interference_jobs : policy:policy -> model array -> int -> int -> int
(** [interference_jobs ~policy models i j] — jobs of task [j] that can
    execute inside one job window of task [i]: [ceil(D_i/T_j)] for
    RM-higher-priority tasks (shorter period, ties by index),
    [floor(D_i/T_j)] under EDF (demand-bound count for implicit
    deadlines), 0 otherwise. Shared with {!Montecarlo} so sampler and
    integrator agree on the interference population. *)

val analyze : ?budget:Robust.Budget.t -> params:params -> set_index:int -> model array -> verdict
(** Deterministic in everything but the wall clock a [budget] deadline
    reads; an unbudgeted call is a pure function of its inputs.
    @raise Invalid_argument on an empty model array or invalid params. *)
