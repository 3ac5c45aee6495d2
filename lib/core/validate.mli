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
  trace:Sim.Campaign.trace ->
  est:Estimator.estimate ->
  samples:int ->
  seed:int ->
  jobs:int ->
  campaign_check
(** Runs one campaign on [trace] with the estimate's FMM table as
    per-sample bound, and compares curves with the estimate's whole law.
    [trace] is {!Sim.Campaign.trace} of the program the estimate's task
    was prepared from, its initial data and the estimate's geometry; a
    caller that checks several mechanisms of one program builds it once
    and passes it to each. The empirical frequency at an observed
    value may exceed the analytic bound by binomial sampling noise
    ([Sim.Campaign.noise_allowance]); anything beyond that fails
    [curve_ok]. [Audit.check_campaign] turns the result into an audit
    report. *)

val write_json :
  path:string ->
  git_commit:string ->
  config:Cache.Config.t ->
  pfail:float ->
  rows:(string * campaign_check) list ->
  unit
(** Emits the BENCH_sim.json document: schema, geometry and one record
    per (benchmark, mechanism) campaign. *)
