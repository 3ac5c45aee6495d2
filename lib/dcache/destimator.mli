(** Combined instruction + data cache pWCET estimation — the paper's
    pipeline with its Section-VI data-cache transposition.

    The WCET costs both caches' contributions; faults strike the two
    cache arrays independently, so the total fault-induced penalty is
    the convolution of the two penalty distributions (each built
    exactly as in the paper: per-set FMM columns weighted by the
    binomial law, convolved across sets). Each cache can carry its own
    protection mechanism. *)

type task = private {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  iconfig : Cache.Config.t;
  dconfig : Cache.Config.t;
  ictx : Cache_analysis.Context.t;  (** instruction-cache analysis context *)
  dctx : Danalysis.ctx;  (** data-cache analysis context *)
  ichmc : Cache_analysis.Chmc.t;
  dchmc : Danalysis.t;
  annot : Annot.t;
  plan : Ipet.Path_engine.plan;
      (** the path engine's collapse of [graph]/[loops], shared by the
          fault-free WCET and every data-cache miss-delta bound *)
  wcet_ff : int;  (** combined fault-free WCET, cycles *)
}

val prepare :
  compiled:Minic.Compile.compiled ->
  iconfig:Cache.Config.t ->
  dconfig:Cache.Config.t ->
  unit ->
  task

type estimate = private {
  task : task;
  imech : Pwcet.Mechanism.t;
  dmech : Pwcet.Mechanism.t;
  ifmm : Pwcet.Fmm.t;
  dfmm : Pwcet.Fmm.t;
  penalty : Prob.Dist.t;  (** convolution of both caches' penalties *)
}

val estimate :
  task ->
  pfail:float ->
  imech:Pwcet.Mechanism.t ->
  dmech:Pwcet.Mechanism.t ->
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  unit ->
  estimate
(** [jobs] (default 1) runs the independent per-set analyses of both
    caches' FMMs (and the per-set penalty builds) on that many OCaml
    domains; results are identical for every value. [budget] flows
    into the instruction-cache FMM (see {!Pwcet.Fmm.compute}); its
    deadline also guards the data-cache rows, where a crashed or
    deadline-starved per-set worker falls back to a constant
    structural row tagged [Structural] instead of aborting. *)

val pwcet : estimate -> target:float -> int

val dfmm_misses : estimate -> set:int -> faulty:int -> int
(** Data-cache fault-miss-map entries (for reporting and tests). *)

val worst_rung : estimate -> Robust.Rung.t
(** Loosest degradation rung across both caches' FMMs. *)

val degradation_errors : estimate -> (int * Robust.Pwcet_error.t) list
(** Per-set failures from both FMM stages (instruction first). *)
