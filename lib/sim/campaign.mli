(** Batched Monte-Carlo fault-injection campaigns.

    A campaign draws [samples] independent fault patterns (per-set
    faulty-way counts from the paper's binomial law) and measures the
    concrete execution time of one program under each, producing an
    empirical execution-time distribution to hold against the analytic
    pWCET curve.

    Cache faults affect only timing, never architectural state, so the
    fetch trace is the same for every fault pattern, and under LRU a
    set's misses depend only on that set's working-way capacity (the
    sets are independent, and which ways are dead does not matter).
    One {!Machine} run extracts the trace; per-(set, capacity) miss
    counts are precomputed by replaying each set's sub-trace through an
    LRU stack; a sample then costs O(sets) table lookups. The SRB
    couples fully-dead sets through its single shared buffer, so
    dead-set misses come from a precomputed "dead alone" count when one
    set is dead and from an exact merged sub-trace replay when several
    are (rare at realistic [pbf]). Every sample's cycle count equals
    that of a full execution under its fault pattern (pinned by tests
    against the reference interpreter and caches).

    Results are bit-identical for every [jobs] value: the RNG is
    counter-based per sample index ({!Rng}), samples are chunked by a
    fixed rule independent of [jobs], and partial histograms/moments
    merge in fixed chunk order. *)

type mechanism =
  | No_protection
  | Reliable_way
  | Shared_reliable_buffer

type bound = {
  bound_base : int;  (** analytic fault-free WCET, cycles *)
  bound_misses : int array array;
      (** FMM table, [sets x (ways+1)]: extra-miss bound per (set,
          faulty count) *)
}

type spec = {
  mechanism : mechanism;
  pbf : float;
  samples : int;
  seed : int;
  jobs : int;
  bound : bound option;
      (** when present, every sample's simulated time is checked
          against its own analytic bound
          [bound_base + miss_penalty * sum_s bound_misses.(s).(f_s)] —
          a per-pattern soundness check far stronger than comparing
          curves *)
}
(** A campaign's fault law and sampling: everything but the program,
    which its {!trace} carries. *)

type trace
(** A program's fetch trace under one cache geometry, with its
    per-(set, capacity) miss tables: the part of a campaign that no
    mechanism, fault law or sample count changes, so campaigns on one
    program share it. *)

val trace : program:Isa.Program.t -> data:(int * int) list -> config:Cache.Config.t -> trace
(** Decodes the program, runs it once to extract the fetch trace, and
    precomputes the per-(set, capacity) miss tables.
    @raise Robust.Pwcet_error.Error with [Invalid_input] if the program
    traps or does not halt. *)

type t

val prepare : trace -> spec -> t
(** A campaign on the trace's program and geometry under the spec's
    faulty-way law.
    @raise Invalid_argument when [samples] is not positive or the bound
    table does not have the trace's geometry. *)

type result = {
  samples : int;
  accesses : int;  (** dynamic fetch count N (same for every sample) *)
  fault_free_cycles : int;
  fault_free_misses : int;
  hit_cycles : int;  (** N * hit_latency *)
  miss_penalty : int;
  counts : int array;
      (** empirical histogram over total misses; bucket [d] counts
          samples with [fault_free_misses + d] misses *)
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
  variance_cycles : float;
  bound_violations : int;
  srb_merged_replays : int;
}

val run : t -> result

val cycles_of_bucket : result -> int -> int
(** [hit_cycles + miss_penalty * (fault_free_misses + bucket)]. *)

val curve : result -> (int * float) list
(** Weak empirical exceedance staircase [(x, P(T >= x))] at observed
    values, ascending — same convention as
    [Estimator.exceedance_curve]. *)

val exceedance : result -> int -> float
(** Strict empirical [P(T > x)]. *)

val noise_allowance : samples:int -> float -> float
(** [noise_allowance ~samples analytic]: how far an empirical frequency
    over [samples] trials may lie above the analytic probability
    [analytic] before it counts as a violation rather than bad luck —
    five binomial standard deviations at the analytic rate (floored at
    one observable event) plus one event of quantisation. *)

val digest : result -> string
(** Hex digest over the histogram, the moment bits and the counters —
    equal digests mean bit-identical campaign results (the determinism
    gates compare these across [--jobs] values). *)

(** {2 Per-sample access (cross-checks)}

    These expose the exact per-sample law the batched run uses, so a
    reference execution can be compared sample by sample. *)

val sample_faulty_counts : t -> sample:int -> int array -> unit
(** Fills per-set faulty-way counts for the given sample index. *)

val replay_cycles : t -> sample:int -> int
(** Execution cycles of the given sample's fault pattern. *)
