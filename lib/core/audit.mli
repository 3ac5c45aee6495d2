(** Runtime invariant auditor for the pWCET pipeline.

    Each check replays an invariant the pipeline's soundness argument
    relies on, against the {e concrete} artefacts of a run — so a bug
    anywhere upstream (analysis, solver, convolution, degradation
    fallback) surfaces as a named violation instead of a silently wrong
    bound. Audited invariants:

    - {b FMM shape}: column 0 zero, entries non-negative, rows monotone
      in the fault count.
    - {b Mass conservation}: penalty distributions sum to 1 (within
      tolerance), probabilities in [0, 1], support strictly ascending.
    - {b Exceedance monotonicity}: curves are complementary CDFs —
      values ascending, probabilities non-increasing.
    - {b Mechanism dominance}: RW/SRB exceedance curves lie on or below
      the unprotected baseline at every value (mitigation can only
      remove misses).
    - {b Support ceiling}: the penalty law's largest point is at most
      every set's worst FMM row at once, times the miss penalty.
    - {b Fault injection}: fault patterns sampled from the model,
      timed by trace replay against their own FMM bound ({!Validate}),
      must each stay under that bound, and their empirical exceedance
      must stay under the analytic curve within sampling noise.

    All float comparisons carry small tolerances for compensated-sum
    noise; a reported violation is a real defect, not float wobble. *)

type violation = { check : string; detail : string }
type report = { checks : int; violations : violation list }

val empty : report
val ok : report -> bool
(** No violations. *)

val merge : report list -> report

val check_fmm : ?what:string -> Fmm.t -> report
val check_distribution : ?what:string -> ?mass_tol:float -> Prob.Dist.t -> report
val check_exceedance_curve : ?what:string -> (int * float) list -> report

val check_dominance : baseline:Estimator.estimate -> other:Estimator.estimate -> report
(** Both estimates must come from the same task (same program and
    cache configuration); the baseline is normally [No_protection]. *)

val check_estimate : ?label:string -> Estimator.estimate -> report
(** {!check_fmm} + {!check_distribution} + {!check_exceedance_curve}
    + the support ceiling on one estimate's artefacts. *)

val check_campaign :
  ?label:string ->
  trace:Sim.Campaign.trace ->
  samples:int ->
  seed:int ->
  jobs:int ->
  Estimator.estimate ->
  report
(** {!Validate.check} on [trace] (of the estimate's program with its
    initial data, at the estimate's geometry) as two checks: no sample
    above its per-pattern FMM bound, and the empirical curve under the
    analytic one. Deterministic for fixed arguments and the same for
    every [jobs]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
