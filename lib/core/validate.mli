(** Emulator-scale statistical validation of the analytic pWCET.

    Bridges the analytic pipeline ({!Estimator}) and the batched
    fault-injection engine ([Sim.Campaign]): runs a Monte-Carlo
    campaign under an estimate's fault law, then holds the empirical
    execution-time exceedance against the analytic curve at every
    observed value, and every individual sample against its own
    per-pattern FMM bound. Shared by [pwcet_tool validate] and the CI
    gate so both report the same numbers. *)

type campaign_check = {
  mechanism : Mechanism.t;
  samples : int;
  seed : int;
  jobs : int;
  engine : [ `Replay | `Emulate ];
  wcet_ff : int;
  result : Sim.Campaign.result;
  elapsed_s : float;
  samples_per_sec : float;
  curve_points : int;  (** observed values compared against the curve *)
  max_gap : float;
      (** max over observed values of empirical - analytic exceedance
          (negative when the analytic curve dominates outright) *)
  curve_ok : bool;
      (** empirical <= analytic + binomial sampling noise everywhere *)
  bound_ok : bool;  (** no sample exceeded its per-pattern FMM bound *)
  digest : string;
}

val ok : campaign_check -> bool

val sim_mechanism : Mechanism.t -> Sim.Campaign.mechanism

val check :
  program:Isa.Program.t ->
  data:(int * int) list ->
  est:Estimator.estimate ->
  samples:int ->
  seed:int ->
  jobs:int ->
  ?engine:[ `Replay | `Emulate ] ->
  unit ->
  campaign_check
(** Runs one campaign (default engine [`Replay]) with the estimate's
    FMM table as per-sample bound, and compares curves. The empirical
    frequency at an observed value may exceed the analytic bound by
    binomial sampling noise (the [Audit.monte_carlo] 5-sigma
    convention); anything beyond that fails [curve_ok]. *)

type speedup = {
  benchmark : string;
  sp_sets : int;
  sp_samples : int;
  baseline_s : float;
  batched_s : float;
  baseline_samples_per_sec : float;
  batched_samples_per_sec : float;
  factor : float;
  crosscheck_samples : int;
  cycles_identical : bool;
      (** baseline [Isa.Machine.run]+oracle cycles == batched replay
          cycles on every cross-checked sample *)
  engines_identical : bool;
      (** [`Replay] and [`Emulate] campaign digests match *)
}

val measure_speedup :
  program:Isa.Program.t ->
  data:(int * int) list ->
  est:Estimator.estimate ->
  benchmark:string ->
  samples:int ->
  ?crosscheck:int ->
  unit ->
  speedup
(** Times a baseline loop — one {!Isa.Machine.run} with a fresh
    concrete cache simulator per sampled fault pattern — against the
    batched engine (prepare + run, jobs 1) at the same sample count and
    the same per-sample fault law, and cross-checks the first
    [crosscheck] (default 100, capped at [samples]) samples cycle by
    cycle. *)

val write_json :
  path:string ->
  git_commit:string ->
  config:Cache.Config.t ->
  pfail:float ->
  speedup:speedup option ->
  rows:(string * campaign_check) list ->
  unit
(** Emits the BENCH_sim.json document: schema, geometry, the optional
    speedup block and one record per (benchmark, mechanism) campaign. *)
