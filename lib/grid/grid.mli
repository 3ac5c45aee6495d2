(** One-pass cross-configuration grid evaluation.

    A grid is the cross product (benchmark x cache geometry x
    protection mechanism x pfail), the shape of the paper's comparison
    studies (Section IV) and of way-disabling/multi-level scenario
    sweeps. Run independently, every cell pays the full pipeline; run
    here, each (benchmark, geometry) panel pays its mechanism- and
    pfail-independent work once:

    {ul
    {- one CFG recovery, one {!Cache_analysis.Context}, one fault-free
       CHMC and one fault-free WCET per panel ({!Pwcet.Estimator.prepare}),
       reused by every mechanism and pfail at that geometry;}
    {- one set of per-set degraded-classification fixpoints per panel:
       the [f < W] FMM row prefixes never consult the mechanism, so all
       requested mechanisms' maps come from a single pass
       ({!Pwcet.Estimator.fmm_grid} / {!Pwcet.Fmm.compute_multi});}
    {- per (mechanism, pfail) cell only the cheap suffix: binomial
       reweight, convolution, quantile reads.}}

    The per-set FMM rows are DAG nodes of their own (between a panel's
    prepare node and the node assembling its maps), so a lone panel's
    rows fan out across [jobs] just as a wide grid's panels do. The
    resulting irregular DAG (wide cheap fan-outs behind few expensive
    roots) is scheduled on {!Parallel.Pool.run_dag}'s work-stealing
    mode, the grid's only scheduler; results are merged in canonical cell order, so
    the output — and {!digest} — is bit-identical for every [jobs]
    value, and every cell is bit-identical to an independent
    {!Pwcet.Estimator.estimate} call (pinned by test/test_grid.ml). *)

type spec = {
  benchmarks : (string * Isa.Program.t) list;  (** resolved by the caller *)
  configs : Cache.Config.t list;  (** the geometry axis *)
  mechanisms : Pwcet.Mechanism.t list;
  pfail_grid : float list;
  targets : float list;  (** exceedance targets each cell reports pWCET at *)
  engine : [ `Path | `Ilp ];
  exact : bool;
  impl : [ `Sliced ];
      (** The one FMM engine; the field selects nothing and stays only
          so that existing callers still build the record. *)
}

type point = {
  bench : string;
  config : Cache.Config.t;
  mechanism : Pwcet.Mechanism.t;
  pfail : float;
}
(** One cell's coordinates. *)

type cell = {
  point : point;
  wcet_ff : int;  (** fault-free WCET, cycles *)
  pbf : float;  (** derived block-failure probability *)
  pwcets : (float * int) list;  (** (target, pWCET cycles) in spec target order *)
  rung : Robust.Rung.t;  (** loosest ladder rung anywhere in the cell *)
  degraded : int;  (** non-[Exact] FMM cells behind this estimate *)
}

val points : spec -> point list
(** The grid's cells in canonical order — benchmark x geometry x
    mechanism x pfail, each axis in spec order. Every output of this
    module (results, digest, journals, JSON) follows this order. *)

val point_key : point -> string
(** Stable human-readable key of a point
    (["bench/SxWxL+hit+miss/mech/pfail-bits"]) — for replay tables and
    error reports. *)

val identity : ?digest:(string -> string) -> spec -> (string * string) list
(** Labelled content identity of the whole grid — per-(program,
    geometry) estimator identities plus the mechanism/pfail/target axes
    and engine flags — for resume-journal run keys and daemon request
    dedup. Anything that can change a cell's value changes the key.
    [digest name] must be {!Pwcet.Estimator.program_digest} of the
    spec's program [name]: a caller that already holds the digests
    passes them and no program is hashed; by default each program is
    hashed here, once. The key is the same either way. *)

val run :
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  ?store:Store.Artifact.t ->
  ?digest:(string -> string) ->
  ?skip:(point -> cell option) ->
  ?on_cell:(cell -> Pwcet.Estimator.estimate -> unit) ->
  ?chaos:Chaos.Injector.t ->
  spec ->
  (point * (cell, Robust.Pwcet_error.t) result) list
(** Evaluates the grid in one pass, returning one outcome per point in
    canonical order. [jobs] sizes the work-stealing pool; results are
    bit-identical for every value. [skip] short-circuits points whose
    cell is already known (journal replay) — a fully replayed panel
    never even builds its analysis nodes. [on_cell] observes each
    {e freshly computed} cell, with the estimate it was read from, as it
    completes, possibly from a worker domain and in completion (not
    canonical) order — callers that append to a journal must serialise
    themselves.

    [budget] is threaded into every analysis stage, each of which
    degrades internally and completes — a starved grid yields looser
    (non-[Exact] rung) cells, not missing ones; an FMM row node that
    starts past the deadline yields the structural row, exactly as
    {!Pwcet.Fmm.compute_multi} does for a refused row. [Error] outcomes only
    arise from a crashed worker (or its downstream cells). Budgeted
    runs bypass [store] exactly as in {!Pwcet.Estimator}. The store
    keys carry each program's digest: [digest] supplies them as in
    {!identity}, and without it each program is hashed once per run,
    only when a store is given.

    [chaos] arms DAG-node death/stall injection ({!Parallel.Pool.run_dag},
    site [pool.node], keyed by node index): a killed node and its
    dependents surface as typed [Error] cells, identically at every
    [jobs] value — the grid digest over outcomes stays jobs-invariant
    even under injected faults. *)

val digest : (point * (cell, Robust.Pwcet_error.t) result) list -> string
(** Hex digest over the canonical encodings of the outcomes, in the
    given order — equal iff the grids are cell-for-cell bit-identical.
    Pinned equal across [jobs] values and across cold/warm/resumed
    runs by test/test_grid.ml and scripts/check_grid.sh. *)

val cell_to_wire : cell -> string
(** Canonical binary payload of a cell (journal records, digests) —
    deterministic byte-for-byte in the cell's contents. *)

val cell_of_wire : string -> (cell, string) result
(** Inverse of {!cell_to_wire}; revalidates geometry, mechanism, rung
    tags and value ranges, so a replayed journal record that decodes is
    as trustworthy as a fresh computation. *)

val fig4_rows : spec -> cell list -> (Pwcet.Report_data.row * Robust.Rung.t) list
(** The paper's Fig. 4 rows from a grid's successful cells: one row per
    benchmark of [spec], in spec order, whose none, SRB and RW cells are
    all present, each read at its first target, with the loosest rung
    of the three. Meant for a one-geometry, one-pfail spec such as
    [pwcet_tool suite]'s; a benchmark with a missing cell has no row. *)
