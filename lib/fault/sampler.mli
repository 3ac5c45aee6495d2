(** Monte-Carlo sampling of fault configurations, for cross-validating
    the analytic pipeline against concrete simulation. *)

val way_cdf : ways:int -> pbf:float -> rw:bool -> float array
(** Cumulative distribution of the per-set faulty-way count (eq. 2, or
    eq. 3 when [rw]), prepared for inverse-CDF sampling from an
    external uniform variate: the last positive-mass entry (and
    everything after it) is forced to exactly 1.0, so float rounding in
    the partial sums can never push a draw past the support — an RW
    draw in particular can never return [ways]. *)

val index_of_u : cdf:float array -> float -> int
(** Smallest [i] with [u < cdf.(i)] — the inversion step itself, shared
    by the batched Monte-Carlo engine so sampled laws stay identical
    across engines by construction. *)
