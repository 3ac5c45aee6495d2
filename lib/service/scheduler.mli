(** The daemon's brain: admission control, request dedup, and the
    compute pool.

    Every [analyze] request takes one of three paths:

    {ul
    {- {b Dedup}: an identical request — same content-addressed key
       over {!Pwcet.Estimator.identity_of} plus mechanism, engine
       flags and pfail (the exceedance [target] deliberately excluded:
       waiters read their own quantile from the shared estimate) — is
       already in flight, so this one blocks on the same result and no
       second computation runs.}
    {- {b Admission}: otherwise the computation is submitted to a
       bounded pool of worker domains ({!Parallel.Workers}). A full
       queue sheds the request with a typed {!Protocol.Overloaded}
       instead of queuing unboundedly.}
    {- {b Budgeted bypass}: a request with [timeout_ms] carries a
       monotonic {!Robust.Budget} deadline down the degradation
       ladder; like every budgeted run it bypasses both the artifact
       store and dedup (a wall-clock-dependent result must not be
       shared or cached), but still respects admission control.}}

    Warm requests are answered in two layers. A bounded in-memory
    result cache holds completed estimates by the same dedup key, so a
    repeat of an already-answered request returns without touching the
    pool at all ([computed = false], exactly like joining an in-flight
    twin). Beneath it, preparation (CFG recovery, cache analysis,
    fault-free WCET) is deduplicated and memoised in a bounded task
    cache, and the optional artifact store persists the expensive
    tables across daemon restarts — a freshly started daemon over a
    populated store replays artifacts instead of recomputing them.

    The dedup key needs each request's program content digest. A
    registry program cannot change inside a process, so the scheduler
    compiles and hashes each one on its first request and memoises the
    pair for its lifetime: a warm request does no compile or hash.

    All entry points are safe to call from any thread or domain; the
    caller's thread blocks until its response is ready. *)

type config = {
  domains : int;  (** worker domains computing estimates *)
  queue_max : int;  (** queued-job bound; beyond it requests are shed *)
  store : Store.Artifact.t option;
  task_cache_max : int;  (** prepared tasks kept in memory *)
  result_cache_max : int;  (** completed estimates kept in memory; 0 disables *)
  chaos : Chaos.Injector.t option;
      (** arms worker-domain death/stall injection on the pool *)
}

val default_config : ?store:Store.Artifact.t -> ?chaos:Chaos.Injector.t -> unit -> config
(** Two worker domains, queue bound 64, task cache 32, result cache
    256, no injection. *)

type setting = Queue_max | Task_cache | Result_cache
(** The range-checked sizes of a {!config}: [queue_max],
    [task_cache_max] and [result_cache_max]. *)

val check_setting : setting -> int -> (int, string) result
(** The one range check of each setting: [task_cache_max] at least 1,
    the others non-negative. The error reads ["must be ..., got v"];
    {!create} and [pwcet_tool serve] build their messages from it. *)

type t

val create : config -> t
(** Spawns the worker domains eagerly.
    @raise Invalid_argument on a non-positive [domains], or a setting
    outside its {!check_setting} range. *)

val analyze : t -> Protocol.analyze -> Protocol.response
(** Blocks the calling thread until the result (or shed/error
    decision) is ready. Never raises. *)

val sched : t -> Sched.Campaign.spec -> Protocol.response
(** A bulk schedulability campaign ({!Sched.Campaign}), analysed as
    one admission-controlled pool job. Identical in-flight campaigns
    dedup on {!Sched.Campaign.identity} and completed ones are cached
    (bounded by [result_cache_max], like estimates). The campaign's
    per-benchmark estimates run {e inline} on the worker that owns the
    job — never as nested pool submissions, which could deadlock a
    fully sched-occupied pool — but share their own in-flight table,
    the estimate result cache, and the artifact store with concurrent
    [analyze] traffic, so each distinct benchmark law is computed at
    most once per daemon, whoever asks first. The spec is used as
    given: the wire decoder has already validated it through
    {!Sched.Campaign.make}. Blocks until the reply is ready; never
    raises. *)

val grid : t -> Protocol.grid -> Protocol.response
(** A bulk comparison grid ({!Grid.run}), evaluated as one
    admission-controlled pool job at [jobs:1] — what the daemon buys
    is the one-pass structural sharing across mechanisms and pfail
    points, plus dedup: identical in-flight grids join on
    {!Grid.identity} and completed ones are cached (bounded by
    [result_cache_max]). The reply carries the canonical matrix digest,
    bit-identical to a direct CLI run over the same axes. Blocks until
    the reply is ready; never raises. *)

val stats : t -> Protocol.stats_payload

val note_slow_client : t -> unit
(** Record a connection shed for stalling mid-request (the server's
    read deadline fired) — surfaces as [slow_clients] in {!stats}. *)

val note_rejected_conn : t -> unit
(** Record a connection refused at the admission cap — surfaces as
    [rejected_conns] in {!stats}. *)

val shutdown : t -> unit
(** Stop admitting, drain every queued computation (their waiters get
    real responses), join the worker domains. Requests arriving during
    or after shutdown are shed as [Overloaded]. Idempotent. *)
