(** Fault-free WCET computation.

    Instruction-fetch cost per the paper's setup: a reference classified
    always-hit or first-miss costs the hit latency per execution;
    always-miss / not-classified cost the miss latency per execution; a
    first-miss reference additionally pays the miss penalty once per
    entry of its persistence scope.

    Two interchangeable engines compute the bound:
    - [`Path] (default): the tree-based loop-collapse engine
      ({!Path_engine}) — near-linear time;
    - [`Ilp]: the IPET ILP (Li & Malik) over the exact-rational solver,
      as in the paper's toolchain (Cplex there).

    Both are sound upper bounds; on loop-structured programs they agree
    up to the slightly more conservative one-shot accounting of the path
    engine (tested against each other in [test/test_ipet.ml]).

    The ILP engine degrades rather than fails when the solver budget
    runs out: exact branch-and-bound -> LP relaxation -> structural
    loop-bound product ({!structural_bound}); the rung returned by
    {!compute_result} records which one produced the bound. *)

type result = {
  wcet : int;  (** cycles: instruction-cache contribution only *)
  lp_size : int * int;  (** (variables, constraints) — (0,0) for [`Path] *)
}

val structural_bound :
  graph:Cfg.Graph.t -> loops:Cfg.Loop.loop list -> config:Cache.Config.t -> int
(** The [Structural] degradation rung: every reachable fetch pays the
    miss latency, weighted by {!Model.execution_count_bound}. Dominates
    the exact WCET for every classification, with no LP solved. *)

val compute_result :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  chmc:Cache_analysis.Chmc.t ->
  config:Cache.Config.t ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  unit ->
  (result * Robust.Rung.t, Robust.Pwcet_error.t) Stdlib.result
(** [exact] (ILP engine only): branch-and-bound instead of the LP
    relaxation bound. [budget] caps the branch-and-bound search; when
    it runs out, the bound degrades one rung (relaxation, then the
    structural bound) instead of failing. [Error] only on genuinely
    broken models ([Infeasible] — an inconsistent flow system). The
    path engine is exact for its cost model and never consults the
    budget. *)

val compute :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loop.loop list ->
  chmc:Cache_analysis.Chmc.t ->
  config:Cache.Config.t ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  unit ->
  result
(** Raising wrapper over {!compute_result} (drops the rung).
    @raise Robust.Pwcet_error.Error on [Error] outcomes. *)
