(** The Fault Miss Map (paper Fig. 1a and Section II-C).

    [misses t ~set ~faulty] upper-bounds the number of {e fault-induced}
    additional misses the program can suffer when [faulty] blocks of
    cache set [set] are disabled, relative to the fault-free analysis.
    Entries are in misses; multiply by the configuration's miss penalty
    for cycles.

    Mechanism variants (Section III-B):
    - {b RW}: the all-faulty column can never materialise (the reliable
      way survives); it is stored as the [W-1] column's bound would
      dictate but is simply never weighted by the penalty distribution.
    - {b SRB}: the all-faulty column is recomputed with the references
      proven always-hit by the SRB analysis removed.

    Every cell additionally carries the {!Robust.Rung.t} of the
    degradation ladder that produced it, so a budget-starved run is
    distinguishable from an exact one without losing soundness: a
    non-[Exact] cell is looser, never smaller, than the exact value. *)

type t

val compute :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  mechanism:Mechanism.t ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?jobs:int ->
  ?ctx:Cache_analysis.Context.t ->
  ?budget:Robust.Budget.t ->
  ?baseline:Cache_analysis.Chmc.t ->
  unit ->
  t
(** Runs the fault-free analysis once, then one degraded classification
    + miss-delta bound per (referenced set, fault count). [engine] picks
    the bounding engine (tree-based path engine by default, or the IPET
    ILP); [exact] selects branch-and-bound when the ILP engine is
    used. [jobs] (default 1) fans the independent per-set rows out
    across that many OCaml domains; the resulting table is bit-identical
    for every value of [jobs].

    The degraded analysis runs no fixpoint: the baseline CHMC keeps
    every reference's Must/May ages at full associativity, and
    {!Cache_analysis.Chmc.degraded} classifies each (set, fault count)
    by thresholds on them. The tables are bit-identical to the test
    oracle's, which re-runs a whole-CFG degraded analysis per (set,
    fault count) (pinned by the differential tests).

    [ctx] supplies a precomputed {!Cache_analysis.Context.t} for
    [graph]/[loops]/[config]; built on the fly when absent.

    [budget] bounds the work ({!Robust.Budget.t}): ILP node caps flow
    into the per-cell solver, whose exhaustion degrades that cell down
    the Exact -> Relaxed -> Structural ladder; the deadline is also
    checked between per-set rows, and a row whose worker crashes or
    starts past the deadline falls back to a constant
    {!Ipet.Delta.structural_extra_misses} row tagged [Structural], with
    the cause recorded in {!errors}. [compute] never raises on budget
    exhaustion or worker crashes — the result is merely looser.

    [baseline] supplies the precomputed fault-free CHMC for
    [graph]/[loops]/[config] (the same value
    [Cache_analysis.Chmc.analyze ~ctx ~graph ~loops ~config ()]
    returns); computed on the fly when absent. The analysis is
    deterministic, so passing it is a pure recompute-skip. Its ages
    also serve every degraded classification, so it must cover every
    referenced set (no [only_sets] restriction).

    [compute] is {!compute_multi} with [~mechanisms:[mechanism]]: one
    row loop serves both. *)

val compute_multi :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  mechanisms:Mechanism.t list ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?jobs:int ->
  ?ctx:Cache_analysis.Context.t ->
  ?budget:Robust.Budget.t ->
  ?baseline:Cache_analysis.Chmc.t ->
  unit ->
  (Mechanism.t * t) list
(** One map per requested mechanism (in [mechanisms] order, duplicates
    allowed), sharing everything that is mechanism-independent: the
    fault-free baseline, the SRB reachability analysis (run once iff
    SRB is requested), and — the expensive part — the whole
    [f = 1 .. W-1] prefix of every per-set row, whose degraded
    analyses, signature memo and delta bounds never consult the
    mechanism. Only the dead-set column (f = W) is evaluated per
    mechanism: RW copies column W-1, None/SRB classify the dead set.

    Each returned map is bit-identical to the map a one-mechanism call
    with the same parameters produces — pinned by the differential
    tests — so asking for [k] mechanisms at once is a pure cost
    optimisation ([k] mechanisms for roughly the price of one).
    Budget/crash fallback matches {!compute}, with one difference in failure
    granularity: the shared prefix means a crashed or starved set
    degrades that set's row for {e every} mechanism. *)

(** {2 [compute_multi] step by step}

    [compute_multi] is [setup_multi], then [compute_rows_multi] on every
    set of [used_sets] (through {!Parallel.Pool.map_result}), then
    [assemble_multi]. The steps are exposed so that another scheduler —
    the grid's task DAG — can run the per-set rows as its own tasks; the
    maps are bit-identical either way. *)

type multi
(** The shared, mechanism-independent inputs of one multi-mechanism
    computation: context, baseline CHMC, SRB analysis, used sets, and
    the path engine's {!Ipet.Path_engine.plan} of the CFG, which every
    row's delta bounds evaluate. Immutable, so rows on different
    domains share it. *)

type rows
(** One set's rows, one per requested mechanism. *)

val setup_multi :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  mechanisms:Mechanism.t list ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?ctx:Cache_analysis.Context.t ->
  ?budget:Robust.Budget.t ->
  ?baseline:Cache_analysis.Chmc.t ->
  unit ->
  multi

val used_sets : multi -> int array
(** The sets some reference maps to, ascending: the only sets whose
    rows need computing (every other row is all zeros). *)

val compute_rows_multi : multi -> int -> rows
(** [compute_rows_multi m set]: the row of [set] for every mechanism.
    Self-contained, so rows of distinct sets may run concurrently.
    Raises on a solver failure; the scheduler turns that (or a deadline
    refusal) into an [Error] for {!assemble_multi}. *)

val assemble_multi : multi -> (rows, Robust.Pwcet_error.t) result array -> (Mechanism.t * t) list
(** The maps, from one outcome per set of {!used_sets} (same order). An
    [Error] outcome gives that set the structural row for every
    mechanism and records the error, exactly as {!compute_multi} does
    for a crashed or refused row. *)

val of_table :
  config:Cache.Config.t ->
  mechanism:Mechanism.t ->
  ?provenance:Robust.Rung.t array array ->
  ?errors:(int * Robust.Pwcet_error.t) list ->
  int array array ->
  t
(** Wraps an explicit [sets x (ways+1)] miss table (column 0 must be
    zero, rows monotone) — for worked examples and tests. [provenance]
    defaults to all-[Exact]; when given it must have the table's shape.
    @raise Invalid_argument on bad dimensions or non-monotone rows. *)

val misses : t -> set:int -> faulty:int -> int
(** @raise Invalid_argument outside [0 <= set < S], [0 <= faulty <= W]. *)

val provenance : t -> set:int -> faulty:int -> Robust.Rung.t
(** Which degradation rung produced the cell.
    @raise Invalid_argument outside [0 <= set < S], [0 <= faulty <= W]. *)

val worst_rung : t -> Robust.Rung.t
(** The loosest rung appearing anywhere in the map — [Exact] iff no
    cell degraded. *)

val degraded_cells : t -> int
(** Number of cells whose rung is not [Exact]. *)

val errors : t -> (int * Robust.Pwcet_error.t) list
(** Per-set failures (worker crash, deadline) that forced the whole row
    onto the structural fallback, in set order. Empty for an exact run. *)

val config : t -> Cache.Config.t
val mechanism : t -> Mechanism.t

val table : t -> int array array
(** A copy of the full [sets x (ways+1)] miss table — for bit-exact
    comparisons between analysis configurations (e.g. sequential vs
    parallel) and for serialisation. *)

val max_penalty_misses : t -> int
(** Sum over sets of the worst column — the support ceiling of the total
    penalty distribution. *)

val pp : Format.formatter -> t -> unit
(** The tabular rendering of Fig. 1a. *)

val to_wire : t -> string
(** Canonical binary payload (table, provenance, recorded errors) for
    the artifact store — deterministic byte-for-byte in the map's
    contents. The geometry and mechanism are {e not} embedded; they are
    part of the store key, and {!of_wire} revalidates the payload
    against them. *)

val of_wire :
  config:Cache.Config.t -> mechanism:Mechanism.t -> string -> (t, string) result
(** Inverse of {!to_wire} under the given key context. Every structural
    invariant ({!of_table}'s shape, zero column, monotonicity — plus
    provenance tags and error categories) is revalidated, so a stored
    payload that decodes is as trustworthy as a fresh computation. *)
