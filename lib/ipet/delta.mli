(** Fault-induced extra-miss bounds — the entries of the Fault Miss Map.

    For a cache set [s] and a degraded classification (obtained by
    re-analysing with reduced associativity, or with the SRB rule for a
    fully faulty set), [extra_misses] solves an ILP "close to IPET"
    (paper Section II-C): maximise, over all structurally feasible
    paths, the number of additional misses the degraded classification
    implies for references mapping to [s], relative to the fault-free
    classification.

    Soundness: classifications degrade monotonically with shrinking
    associativity, the per-reference delta coefficients are clamped
    non-negative, baseline first-miss allowances are dropped (never
    subtracted), and max over paths is subadditive — so the result
    over-approximates [WCET_f - WCET_0] in units of misses.

    Under a {!Robust.Budget.t} the ILP engine degrades instead of
    failing: exact branch-and-bound -> LP-relaxation upper bound ->
    {!structural_extra_misses}; each outcome carries the
    {!Robust.Rung.t} that produced it. *)

val extra_misses_result :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  baseline:Cache_analysis.Chmc.t ->
  degraded:(node:int -> offset:int -> Cache_analysis.Chmc.classification) ->
  sets:int list ->
  ?ctx:Cache_analysis.Context.t ->
  ?plan:Path_engine.plan ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  unit ->
  (int * Robust.Rung.t, Robust.Pwcet_error.t) Stdlib.result
(** Upper bound (>= 0) on the number of fault-induced misses for
    references mapping to any of the cache sets [sets] (usually a
    single set; the refined SRB analysis passes dead-set pairs),
    tagged with the degradation rung that produced it. [engine]
    selects the tree-based path engine (default; always [Exact] for
    its cost model) or the IPET ILP. [ctx] supplies precomputed
    reachability and the per-set touching-node index, so only nodes
    that can actually carry a delta are scanned — the result is
    identical either way. [plan] is {!Path_engine.plan} of
    [graph]/[loops], built once by a caller that asks many queries of
    one CFG; built on the fly when absent (the ILP engine ignores it).
    [Error] only on an infeasible flow system (cannot happen for models
    built from a real CFG). *)

val extra_misses :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  baseline:Cache_analysis.Chmc.t ->
  degraded:(node:int -> offset:int -> Cache_analysis.Chmc.classification) ->
  sets:int list ->
  ?ctx:Cache_analysis.Context.t ->
  ?plan:Path_engine.plan ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  unit ->
  int
(** Raising wrapper over {!extra_misses_result} (drops the rung).
    @raise Robust.Pwcet_error.Error on [Error] outcomes. *)

val structural_extra_misses :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  config:Cache.Config.t ->
  baseline:Cache_analysis.Chmc.t ->
  sets:int list ->
  ?ctx:Cache_analysis.Context.t ->
  unit ->
  int
(** The [Structural] rung, computable with no degraded analysis and no
    solver: every reference to one of [sets] misses at most once per
    execution of its node, weighted by {!Model.execution_count_bound}.
    Dominates {!extra_misses} for {e every} degraded classification —
    which is what makes it a safe fallback row when a per-set FMM
    worker crashes or the deadline passes. *)
