(** Counter-based pseudo-random streams for Monte-Carlo campaigns.

    The fault-injection engine needs a generator whose output is a pure
    function of [(seed, sample, draw)]: every sample owns an independent
    stream regardless of which domain executes it, so a campaign's
    histogram is bit-identical for every [--jobs] value, and any single
    sample can be replayed in isolation (for cross-checking the batched
    kernel against full emulation).

    The mixer is {!Numeric.Splitmix}, shared with the chaos layer's
    fault decisions; drawing never allocates. *)

val mix : int -> int
(** Stateless avalanche mixer; equal inputs give equal outputs on every
    64-bit platform. *)

val stream : seed:int -> sample:int -> int
(** The stream handle for one sample of one campaign. *)

val uniform : stream:int -> draw:int -> float
(** [draw]-th variate of the stream, uniform on [0, 1); 53-bit
    resolution. *)
