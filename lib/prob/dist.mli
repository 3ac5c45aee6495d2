(** Finite discrete probability distributions over integer penalties
    (cycles), with the convolution and exceedance machinery of the
    paper's Section II-C.

    Soundness convention: all approximation is {e upward} — when the
    support is capped, low-probability points are merged into {e
    higher} penalties, so every derived exceedance probability and
    quantile over-approximates the true one. Probability sums use
    compensated summation; the tail masses of interest (around
    [1e-15]) are far above the float64 noise floor when accumulated
    this way.

    Probabilities are never negative. A point may carry [+0.0]: the
    convolution kernels keep a product that underflowed to zero as a
    point (see {!convolve}), so a law can list penalties of probability
    [+0.0], and {!of_wire} accepts them.

    The tail queries ({!total_mass}, {!exceedance}, {!quantile},
    {!exceedance_curve}) read a suffix array of compensated sums from
    the top, which a law builds on its first tail query, in O(n), and
    keeps: intermediate laws of a convolution tree, which no tail query
    reads, never build one. A law is safe to read from several domains
    and threads at once; racing first queries build identical
    arrays. *)

type t

val point : int -> t
(** The deterministic distribution. *)

val of_points : (int * float) list -> t
(** Duplicate penalties are merged. Total mass must be within [1e-9] of
    1. @raise Invalid_argument on negative penalties or probabilities,
    or a bad total. *)

val of_sub_points : (int * float) list -> t
(** Like {!of_points} but allows any total mass in [0, 1]: a
    {e sub}-probability distribution. Convolving sub-distributions
    multiplies masses, which is exactly the joint-event accounting the
    refined SRB analysis needs ({!total_mass} tracks the defect). *)

val scale : float -> t -> t
(** Multiply every probability by a factor in [0, 1]. *)

val shift : int -> t -> t
(** [shift c t] adds [c] cycles to every penalty. The probabilities —
    and therefore the derived exceedance (suffix) array, built once for
    [t] and the result by whichever is queried first — are shared
    bit-for-bit, so no re-summation can perturb a deep tail.
    @raise Invalid_argument when a shifted penalty would be negative. *)

val mixture : ?max_points:int -> (float * t) list -> t
(** [mixture parts] is the weighted sum [Σ wᵢ·dᵢ] of the given
    (sub-)distributions — the law of a variable that follows [dᵢ] with
    probability [wᵢ]. Weights must lie in [0, 1]; the total mass may be
    any value in [0, 1] (a sub-distribution, as with
    {!of_sub_points}), which is how the re-execution model carries the
    residual unrecovered-fault mass outside the mixture. Capping at
    [max_points] (default 65536) is the same upward-conservative fold
    as {!convolve}. Weighted masses that underflow to exactly [0.0]
    are dropped (unlike {!convolve}, which keeps its underflowed
    products as [+0.0] points).
    @raise Invalid_argument on a weight outside [0,1], total mass
    beyond [1 + 1e-9], or [max_points < 1]. *)

val support : t -> (int * float) list
(** Ascending penalties with their probabilities. *)

val size : t -> int
val total_mass : t -> float

val convolve : ?max_points:int -> ?above:int -> t -> t -> t
(** Distribution of the sum of two independent variables. When the
    result exceeds [max_points] (default 65536), the lowest-probability
    points are folded into the next higher kept penalty (conservative);
    the result never has more than [max_points] points, even when tied
    probabilities straddle the cut.

    The kernel exploits the sorted supports, with no hash table and no
    comparison sort of the product set. When the achievable sums tile
    their range densely it accumulates into one bucket per sum with a
    branch-free multiply-add (untouched buckets hold [-0.0], so
    presence is a clear sign bit, which survives a product that
    underflowed to [0.0]), adding one operand padded with [-0.0] as
    contiguous rows in a vectorised C loop. It does so one output
    window of 1,024 buckets at a time: every row overlapping the window
    is added into a window-sized accumulator, whose present buckets
    are then moved to a staging area as the window is reset, and
    stretches no row reaches are skipped; an uncapped result is then
    copied out of the staging area in one pass. The accumulator, the padded
    row and the staging area are per-domain scratch outside the OCaml
    heap, reused across calls. Sparse or huge-range
    supports go through a k-way merge of sorted runs, one per point of
    the {e smaller} operand, so it costs O(n*m log (min n m)); with
    runs over the second operand, equal sums pop in descending run
    order, which is ascending order in the first operand. The result is
    {e bit-identical} to {!convolve_reference}: equal sums are
    accumulated in the same order (see the kernel comment in the
    implementation) and both share the same capping code. The cap keeps
    the top penalty plus the [max_points - 1] most probable other
    points (ties broken towards higher penalties), chosen by a
    linear-time radix selection.

    [~above:q] cuts the result above [q]: no sum above [q] is built,
    and the mass of all of them, [sum_i a_i * P(B > q - x_i)] read from
    [b]'s exceedance suffix (never [1 - kept]), is lumped onto one
    point, the first point past [q] of the lattice the sums lie on. It
    is the last point, so a cap keeps it. Penalties are never negative,
    so each point at most [q] adds the same products in the same order
    as the uncut convolution, even when the operands were themselves
    cut at [q]: where neither caps, those points are bit-identical to
    the uncut result's, and [P(X > q)] is the lumped mass. Every
    quantile at most [q] of such a law is the full law's; nothing above
    [q] can be read from it. When no sum exceeds [q] the result is the
    uncut one.
    @raise Invalid_argument when [max_points < 1]. *)

val convolve_reference : ?max_points:int -> ?above:int -> t -> t -> t
(** The original hash-table convolution kernel: every product
    accumulated into a hash table keyed by penalty, sorted, then capped
    as {!convolve} caps. The analysis never calls it; it is the oracle
    the tests hold {!convolve} to, bit for bit. Cut at [above], it
    builds every sum and lumps those past [q] by a compensated sum of
    their probabilities, so its lumped mass agrees with {!convolve}'s to
    rounding, not bit for bit.
    @raise Invalid_argument when [max_points < 1]. *)

val convolve_all : ?max_points:int -> t list -> t
(** Convolution of a list of independent variables ([{!point} 0] for the
    empty list), computed as a balanced pairwise tree. Equal to the
    left-to-right fold whenever [max_points] never triggers (convolution
    is associative); when capping does trigger, the result still
    conservatively dominates every uncapped ordering (see the soundness
    convention above), but individual points may differ from the
    fold's.
    @raise Invalid_argument when [max_points < 1]. *)

val convolve_pow : ?max_points:int -> ?above:int -> t -> int -> t
(** [convolve_pow d k] is the distribution of the sum of [k] independent
    copies of [d] ([{!point} 0] for [k = 0]), computed with
    exponentiation by squaring: O(log k) convolutions instead of k-1.
    Bit-identical to [convolve_all] on [k] copies of [d] for every [k]
    and [max_points] — the balanced tree over equal operands
    collapses to repeated squaring plus one odd-element chain, and the
    implementation reproduces that exact shape so capping decisions
    coincide. In particular it equals the k-fold left [convolve] fold
    whenever capping never triggers and the probabilities are exactly
    representable (convolution is associative and commutative; see
    DESIGN.md §7 for the multiset argument). [above] cuts every
    squaring and product as {!convolve} does.
    @raise Invalid_argument when [k < 0] or [max_points < 1]. *)

val power_size : ?max_points:int -> t -> int -> int
(** [power_size d k] is [size (convolve_pow ?max_points d k)] without
    building the power: the number of distinct [k]-fold sums of [d]'s
    support, at most [max_points] (default 65536). The kernels keep
    every sum as a point, and a capped law has exactly [max_points]
    points, as has every convolution of it. A cut reduction orders its
    leaves by these sizes, so that its tree has the uncut tree's shape.
    @raise Invalid_argument when [k < 0] or [max_points < 1]. *)

(** {2 Exceedance convention}

    Two tail queries coexist and are intentionally distinct:
    {ul
    {- [exceedance t x] is the {e strict} tail [P(X > x)] — the paper's
       exceedance-probability query: a deadline set at [x] is {e missed}
       only when the penalty strictly exceeds it.}
    {- [exceedance_curve t] lists the {e weak} tails [P(X >= x)] at
       every support point — the CCDF staircase of Fig. 3, which must
       show each point's own mass.}}
    On integer penalties they interconvert: [P(X >= x) = P(X > x - 1)],
    i.e. the curve value at support point [x] equals
    [exceedance t (x - 1)]. *)

val exceedance : t -> int -> float
(** [exceedance t x] is the strict tail [P(X > x)]. *)

val quantile : t -> target:float -> int
(** Smallest penalty [x] with [P(X > x) <= target] — the value read off
    the paper's complementary cumulative distributions. Binary search
    over the suffix-tail array: O(log n) per query, after the law's
    first tail query built that array.
    @raise Invalid_argument when [target < 0]. *)

val exceedance_curve : t -> (int * float) list
(** Points [(x, P(X >= x))] for every x in the support — the staircase
    the paper plots in Fig. 3 (weak inequality; see the convention
    above). *)

val expectation : t -> float
val pp : Format.formatter -> t -> unit

(** {2 Canonical serialization}

    The wire form is a pure function of the distribution — ascending
    [(penalty, probability-bits)] pairs, fixed-width little-endian — so
    equal distributions encode to equal bytes and a byte-for-byte
    comparison of artifacts is a distribution comparison. The suffix
    (exceedance) array is {e not} stored: {!of_wire} rebuilds it (its
    total-mass check reads it) with the same compensated summation that
    builds the original's, so a decoded distribution has the encoded
    one's points and answers every tail query bit for bit alike. *)

val to_wire : t -> string

val of_wire : string -> (t, string) result
(** Validates shape and content (strictly ascending non-negative
    penalties, finite probabilities in [[+0.0, 1]] — [-0.0] and NaN are
    rejected — of which at least one is positive unless the law is
    empty, total mass at most 1) —
    a corrupted or adversarial payload yields [Error], never a
    distribution that violates the module invariants, and never an
    exception: a point count too large for the payload is rejected
    before anything is allocated. *)
