(** Fault-induced penalty distributions (paper Fig. 1b).

    The per-set distribution has at most [W+1] points: penalty
    [FMM[s][w] * miss_penalty] cycles with probability [pwf(w)]
    (eq. 2, or eq. 3 under RW, where the all-faulty point disappears).
    Sets fail independently, so the program-level distribution is the
    convolution across sets. *)

val way_pmf : fmm:Fmm.t -> pbf:float -> float array
(** The per-set faulty-way PMF (eq. 2, or eq. 3 under RW). Depends only
    on the configuration's associativity, [pbf] and the mechanism —
    never on the set — so batch callers compute it once and pass it to
    {!set_distribution}. *)

val set_distribution :
  ?pmf:float array -> fmm:Fmm.t -> pbf:float -> set:int -> unit -> Prob.Dist.t
(** The penalty distribution of one cache set. [pmf] (defaults to
    {!way_pmf}[ ~fmm ~pbf]) lets callers share one PMF across sets. *)

val total_distribution :
  ?max_points:int ->
  ?jobs:int ->
  fmm:Fmm.t ->
  pbf:float ->
  unit ->
  Prob.Dist.t
(** Convolution over all sets. All-zero FMM rows (never-referenced
    sets) contribute the identity distribution and are skipped — the
    result is unchanged. [jobs] (default 1) fans the independent
    per-group builds and each reduction layer's convolutions out across
    that many domains; the result is bit-identical for every value.

    The way PMF is computed once, sets with equal FMM rows are grouped
    (equal rows imply equal distributions), each group's distribution
    is raised to its multiplicity with {!Prob.Dist.convolve_pow}, and
    the per-group results are reduced through a balanced pairwise tree
    with per-layer parallel fan-out. The result is conservative; its
    pWCET quantiles agree on every registry benchmark with the test
    oracle's one-distribution-per-set reduction over
    {!Prob.Dist.convolve_reference} (pinned by
    test/test_dist_engine.ml). *)

val quantile_bound : fmm:Fmm.t -> pbf:float -> target:float -> int
(** A Chernoff bound on the quantile at [target] of the exact (never
    capped) law {!total_distribution} approximates:
    [min over theta > 0 of (sum_s log M_s(theta) - log target) / theta],
    rounded up and clamped to the largest sum, where [M_s] is set [s]'s
    moment generating function, evaluated by log-sum-exp over its at
    most [W+1] points. Markov's inequality on [e^(theta X)] and the
    sets' independence give [P(X > q) <= target] in exact arithmetic,
    so [q] is at least that law's quantile at [target]. The minimum is
    found by a golden-section search over [log theta] (the bound is
    quasi-convex in theta); its precision moves only the bound's
    tightness. {!cut_distribution} starts its search here.
    @raise Invalid_argument when [target] is negative or not finite. *)

val cut_distribution :
  ?max_points:int -> ?jobs:int -> fmm:Fmm.t -> pbf:float -> target:float -> unit -> Prob.Dist.t
(** {!total_distribution} cut above a self-certified bound [q] on its
    quantile at [target] (see {!Prob.Dist.convolve}'s [above]): the
    convolutions never build a point above [q], and the law is accepted
    only once its lumped mass [P(X > q)] is at most [target], so every
    quantile at a target of at least [target] equals the whole law's
    wherever neither caps. [q] starts at {!quantile_bound}, which the
    check accepts on the first pass in exact arithmetic; should the
    float check fail (rounding, or a cut law that reaches the cap), [q]
    doubles until it passes. The cut reduction's leaves are
    ordered by their uncut sizes ({!Prob.Dist.power_size}), so its tree
    has the whole law's shape. Nothing above [q] (an exceedance curve,
    a quantile at a smaller target) can be read from the result.
    Deterministic and bit-identical for every [jobs].
    @raise Invalid_argument when [target] is negative or not finite. *)
