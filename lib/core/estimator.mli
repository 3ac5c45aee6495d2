(** End-to-end probabilistic WCET estimation — the paper's full pipeline.

    [prepare] runs the fault-free analysis (CFG recovery, cache
    analysis, IPET) once per program/configuration. [estimate] adds the
    fault dimension for one mechanism: FMM, per-set penalty
    distributions, cross-set convolution. The resulting pWCET
    distribution is [wcet_ff + penalty]; {!pwcet} reads the exceedance
    quantile at the target probability (the paper uses [1e-15]).

    Both stages accept a {!Robust.Budget.t}: a starved budget degrades
    individual bounds down the Exact -> Relaxed -> Structural ladder
    instead of failing, and {!worst_rung} reports how much of the
    ladder the estimate consumed. *)

type task = private {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  config : Cache.Config.t;
  ctx : Cache_analysis.Context.t;  (** shared analysis context, built once *)
  chmc : Cache_analysis.Chmc.t;
  wcet_ff : int;  (** fault-free WCET, cycles *)
  wcet_rung : Robust.Rung.t;  (** ladder rung that produced [wcet_ff] *)
  program : Isa.Program.t;  (** the analysed program *)
  identity : (string * string) list option;
      (** [Some (identity_of ~program ~config)] iff {!prepare} was
          given a store or the program digest; read it through
          {!identity} *)
}

type estimate = private {
  task : task;
  mechanism : Mechanism.t;
  pfail : float;
  pbf : float;  (** derived block-failure probability (eq. 1) *)
  fmm : Fmm.t;
  slot : slot;  (** the penalty law built so far; read it through {!penalty} or {!pwcet} *)
}

and slot

val code_version : string
(** Version stamp of the analysis semantics, baked into every artifact
    key — bump it whenever a change can alter any computed table, and
    every cached artifact silently becomes a miss instead of a stale
    hit. *)

val artifact_kinds : (string * int) list
(** The artifact kinds this module writes with their current envelope
    format versions — what [cache verify] passes to
    {!Store.Artifact.verify} as [expected]. *)

val engine_tag : [ `Path | `Ilp ] -> string
(** ["path"] or ["ilp"]: the bounding engine as every key component
    spells it — store keys, the grid's journal run key, the daemon's
    dedup keys and its wire form. *)

val float_key : float -> string
(** A float as a key component: its IEEE bit pattern in decimal, exact
    and independent of printing. Every key that carries a pfail, a
    target or another float axis spells it this way. *)

val program_digest : Isa.Program.t -> string
(** Hex MD5 of the program's pretty-print: the content digest the
    ["program"] component of every identity carries. Registry programs
    cannot change inside a process, so a long-lived caller may take it
    once per program and build identities with {!identity_of_digest}. *)

val identity_of_digest : digest:string -> config:Cache.Config.t -> (string * string) list
(** [identity_of_digest ~digest:(program_digest program) ~config] is
    [identity_of ~program ~config], without hashing the program again. *)

val identity_of : program:Isa.Program.t -> config:Cache.Config.t -> (string * string) list
(** The labelled identity components the [task] produced by {!prepare}
    for this program and configuration will carry — code version,
    program content digest, cache geometry and latencies — available
    {e without} running the analysis. This is what lets a service
    compute a request's content-addressed key (and dedup identical
    in-flight requests against it) before deciding whether to spend
    the preparation work at all. *)

val identity : task -> (string * string) list
(** Labelled artifact-key components pinning everything the task's
    results depend on: code version, program content digest, cache
    geometry and latencies. Hashes the program now when {!prepare} was
    given no store (about a millisecond); every store-keyed call goes
    through here, so a task prepared without a store keys exactly like
    one prepared with it. *)

val prepare :
  program:Isa.Program.t ->
  config:Cache.Config.t ->
  ?program_digest:string ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  unit ->
  task
(** [store] caches the fault-free WCET (the ILP/path-engine result —
    the expensive, pfail-independent tail of preparation) keyed by
    program content, geometry and engine flags. Lookups are
    integrity-checked; a corrupt entry is quarantined and recomputed.
    Budgeted runs ([budget] present) bypass the store entirely: their
    results depend on wall-clock, so they are neither read nor
    written. The program is hashed into the task's identity only when
    [store] is given and [program_digest] is not: a caller that already
    holds [program_digest program] passes it and the task keys exactly
    as if [prepare] had hashed the program itself. *)

val estimate :
  task ->
  pfail:float ->
  mechanism:Mechanism.t ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  unit ->
  estimate
(** Computes the FMM now; the penalty law waits for its first read (see
    {!pwcet} and {!penalty}).

    [jobs] (default 1) runs the independent per-set FMM analyses and
    penalty-distribution builds on that many OCaml domains; results are
    identical for every value.
    [budget] flows into {!Fmm.compute}; exhaustion loosens FMM cells
    (soundly) rather than raising.

    [store] caches the FMM table (per mechanism/engine flags) and the
    per-point penalty distribution (additionally per pfail, and for a
    cut law per target: its key carries [("cut", float_key target)],
    apart from the whole law's), the latter when it is read. [jobs]
    deliberately stays out of every key — results are bit-identical
    across job counts — so warm hits are bit-identical to cold
    recomputation by construction (pinned by test/test_store.ml), and
    budgeted runs bypass the store as in {!prepare}. *)

val fmm_grid :
  task ->
  mechanisms:Mechanism.t list ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  unit ->
  (Mechanism.t * Fmm.t) list
(** One FMM per requested mechanism (in list order), computing the
    misses together through {!Fmm.compute_multi} so the
    mechanism-independent per-set row prefixes (degraded fixpoints,
    signature memo, delta bounds) are paid once instead of once per
    mechanism. Each table is bit-identical to what a standalone
    {!estimate} at the same options would compute, and is read from /
    written to [store] under the exact per-mechanism key {!estimate}
    uses — grid and single runs warm each other's cache. Budgeted runs
    bypass the store as everywhere else. *)

val fmm_lookup :
  task ->
  mechanisms:Mechanism.t list ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  unit ->
  (Mechanism.t * Fmm.t) list * Mechanism.t list
(** The store half of {!fmm_grid} before the computation: the tables
    [store] already holds, and the distinct mechanisms still to
    compute, each in first-seen order. With no store, or under a
    budget, every mechanism is missing. *)

val fmm_put :
  task ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  (Mechanism.t * Fmm.t) list ->
  unit
(** The store half of {!fmm_grid} after the computation: persists
    freshly computed tables under the keys {!fmm_lookup} reads. A no-op
    without a store or under a budget. [fmm_grid] is [fmm_lookup], then
    {!Fmm.compute_multi} on the missing mechanisms, then [fmm_put]. *)

val estimate_of_fmm :
  task ->
  fmm:Fmm.t ->
  pfail:float ->
  ?engine:[ `Path | `Ilp ] ->
  ?exact:bool ->
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  unit ->
  estimate
(** The per-pfail suffix of {!estimate} for a map obtained from
    {!fmm_grid} (or a previous estimate): binomial reweight,
    convolution, penalty caching. [engine]/[exact] must match
    the options the map was computed under — they only enter the
    penalty artifact's store key, which must agree with the key an
    equivalent {!estimate} call would use. The result is bit-identical
    to that {!estimate} call. *)

val pwcet : estimate -> target:float -> int
(** pWCET at the target exceedance probability, in cycles. Reuses the
    estimate's law when it answers [target] (the whole law, or a law cut
    at a target at most [target]); otherwise builds the law cut at
    [target] with {!Penalty.cut_distribution}, keeps it and reads it.
    Its quantile equals the whole law's wherever neither law reaches
    the convolution cap.
    @raise Invalid_argument when [target] is negative or not finite. *)

val pwcets : estimate -> targets:float list -> (float * int) list
(** [(target, pwcet e ~target)] for each target, in list order. The
    first law it builds is cut at the smallest target, so one cut law
    answers them all.
    @raise Invalid_argument when a target is negative or not finite. *)

val penalty : estimate -> Prob.Dist.t
(** The whole penalty law, built on the first whole-law read and kept.
    Every reader of more than quantiles (curves, support, audits,
    fault-injection comparisons) goes through here. *)

val exceedance_curve : estimate -> (int * float) list
(** [(wcet_value, P(WCET >= value))] staircase of the whole law —
    Fig. 3's curves. *)

val fault_free_wcet : task -> int

val worst_rung : estimate -> Robust.Rung.t
(** Loosest ladder rung anywhere in the estimate (fault-free WCET and
    every FMM cell) — [Exact] iff nothing degraded. *)

val degradation_errors : estimate -> (int * Robust.Pwcet_error.t) list
(** Per-set failures recorded by the FMM stage (see {!Fmm.errors}). *)
