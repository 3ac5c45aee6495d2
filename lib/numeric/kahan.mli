(** Compensated (Kahan–Neumaier) floating-point summation.

    Probability masses in the pWCET pipeline span ~300 orders of
    magnitude; summing them naively loses the tiny tail terms that the
    exceedance function at [1e-15] depends on. All probability
    accumulation in [lib/prob] goes through this module. *)

type t
(** A running compensated sum. Accumulators are mutable. *)

val create : unit -> t
val add : t -> float -> unit
val total : t -> float

val sum : float list -> float
(** Compensated sum of a list. *)

val sum_array : float array -> float

val suffix_totals : float array -> float array
(** [(suffix_totals xs).(i)] is the compensated sum of
    [xs.(i) .. xs.(n-1)], added from the top: bit for bit the {!total}
    of one accumulator after {!add}ing [xs.(n-1)] down to [xs.(i)]. *)

val sum_by : ('a -> float) -> 'a list -> float
