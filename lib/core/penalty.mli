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

val cut_distribution :
  ?max_points:int -> ?jobs:int -> fmm:Fmm.t -> pbf:float -> target:float -> unit -> Prob.Dist.t
(** {!total_distribution} cut above a self-certified bound [q] on its
    quantile at [target] (see {!Prob.Dist.convolve}'s [above]): the
    convolutions never build a point above [q], and the law is accepted
    only once its lumped mass [P(X > q)] is at most [target], so every
    quantile at a target of at least [target] equals the whole law's
    wherever neither caps. [q] starts at the largest per-set quantile
    and doubles until the check passes. The cut reduction's leaves are
    ordered by their uncut sizes ({!Prob.Dist.power_size}), so its tree
    has the whole law's shape. Nothing above [q] (an exceedance curve,
    a quantile at a smaller target) can be read from the result.
    Deterministic and bit-identical for every [jobs].
    @raise Invalid_argument when [target] is negative or not finite. *)
