(** Numerically careful probability helpers for the fault model. *)

val one_minus_pow_one_minus : p:float -> k:int -> float
(** [one_minus_pow_one_minus ~p ~k] computes [1 - (1 - p)^k] (paper
    eq. 1: block-failure probability from bit-failure probability) via
    [expm1]/[log1p] so that tiny [p] does not cancel.
    @raise Invalid_argument when [p] is outside [0,1] or [k < 0]. *)

val pow_one_minus_real : p:float -> n:float -> float
(** [(1 - p)^n] for a real non-negative exponent — rate composition
    over fractional event counts (jobs per hour, per-unit splits of a
    per-hour failure rate). Same [log1p]/[exp] discipline as the
    integer version, so [p] around [1e-19] survives exponents around
    [1e9] without rounding to 0 or 1.
    @raise Invalid_argument when [p] is outside [0,1] or [n] is
    negative or not finite. *)

val one_minus_pow_one_minus_real : p:float -> n:float -> float
(** [1 - (1 - p)^n] for a real non-negative exponent, via [expm1] —
    the per-hour failure probability of [n] independent jobs each
    failing with probability [p], exact in the deep-tail regime where
    the naive form cancels to 0. *)

val clamp01 : float -> float
(** Clamp to [0, 1] (guards accumulated rounding at the boundaries). *)
