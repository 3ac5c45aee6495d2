(** The splitmix-style mixer behind every counter-based random stream:
    the fault-injection campaigns of [Sim.Rng] and the chaos decisions
    of [Chaos.Injector] both draw from it.

    It is a finalizer on native 63-bit ints — multiply/xor-shift rounds
    with odd constants chosen to fit OCaml's immediate integers — so
    drawing never allocates (no [Int64] boxing, no state record), and
    equal inputs give equal outputs on every 64-bit platform. Changing
    any of it changes every simulation and chaos digest. *)

val mult_a : int
val mult_b : int
val gamma : int
(** Odd constants below 2^62: the two finalizer multipliers and the
    stream increment. Callers also use them to spread stream handles. *)

val mix : int -> int
(** Stateless avalanche mixer. *)

val uniform : stream:int -> draw:int -> float
(** [draw]-th variate of the stream [stream], uniform on [0, 1); 53-bit
    resolution. *)
