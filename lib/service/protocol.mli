(** The analysis daemon's wire protocol: typed requests and responses
    with JSON codecs.

    One JSON object per {!Frame} frame, in either direction. Every
    decoder is total — malformed input comes back as [Error], and the
    server turns that into an [Error_reply] rather than dropping the
    connection. Every field is validated on decode by the same
    definition the CLI's converters are built from: the names and
    range checks of {!Pwcet.Param} (probabilities strictly inside
    (0, 1), mechanism and engine names), {!Cache.Config.of_string} and
    {!Cache.Config.of_geometry} for geometries,
    {!Sched.Analysis.policy_of_string}, and {!Sched.Campaign.make} for
    a whole campaign. So a request that decodes is a request the
    pipeline can run, and a value the CLI rejects the daemon rejects
    too, with the same message after the field name. Unknown fields
    are ignored: an [analyze] or [grid] request from an older client
    that still sends the retired FMM engine selector ["impl"] decodes
    exactly as the same request without it. *)

type analyze = {
  bench : string;  (** registry benchmark name *)
  pfail : float;
  target : float;  (** exceedance target for the reported quantile *)
  mechanism : Pwcet.Mechanism.t;
  sets : int;
  ways : int;
  line : int;
  engine : [ `Path | `Ilp ];
  exact : bool;
  timeout_ms : int option;
      (** per-request deadline; rides the degradation ladder and (like
          every budgeted run) bypasses both the artifact store and
          request dedup *)
  delay_ms : int;
      (** testing hook: sleep this long inside the computation, making
          dedup and overload windows deterministic in tests. 0 in real
          traffic. *)
}

val default_analyze : bench:string -> analyze
(** The CLI's defaults: pfail {!Pwcet.Param.pfail}, target
    {!Pwcet.Param.target}, no protection, the paper's 16x4x16 geometry,
    path engine, no timeout, no delay. *)

(** A bulk comparison grid — the service face of {!Grid.run}. One
    request evaluates benchmark x geometry x mechanism x pfail in one
    pass over the shared per-(benchmark, geometry) analysis stages and
    reports the canonical matrix digest ({!Grid.digest}), so a client
    can check bit-identity against a direct [pwcet_tool grid] run.
    Every axis must be non-empty; [benchmarks] is required. *)
type grid = {
  g_benchmarks : string list;
  g_geometries : Cache.Config.t list;
      (** on the wire as {!Cache.Config.to_string}, e.g. ["16x4x16"] *)
  g_mechanisms : Pwcet.Mechanism.t list;
  g_pfails : float list;
  g_targets : float list;
  g_engine : [ `Path | `Ilp ];
  g_exact : bool;
}

val default_grid : benchmarks:string list -> grid
(** The CLI's defaults: the paper's 16x4x16 geometry, all three
    mechanisms, {!Pwcet.Param.pfail_grid}, target
    {!Pwcet.Param.target}, path engine. *)

type request =
  | Ping
  | Stats
  | Analyze of analyze
  | Sched of Sched.Campaign.spec
      (** A bulk schedulability campaign — the service face of
          {!Sched.Campaign}. One request analyses [count] UUniFast task
          sets against one pool of per-benchmark pWCET laws; the daemon
          computes each distinct benchmark's law at most once
          (deduplicated with concurrent [analyze] traffic through the
          same caches) and reports the campaign digest, so a client can
          check bit-identity against a direct CLI run. On the wire the
          fields are named as in {!Sched.Campaign.spec}, except
          [reexec] for [reexec_budget]; the decoder fills absent fields
          from {!Sched.Campaign.default} and validates the spec through
          {!Sched.Campaign.make}, so an absent or empty [benchmarks]
          means the whole registry and an unknown benchmark is refused
          at decode. *)
  | Grid of grid

type result_payload = {
  pwcet : int;  (** cycles, at the request's [target] *)
  wcet_ff : int;
  pbf : float;
  rung : string;  (** worst degradation rung, {!Robust.Rung.to_string} *)
  computed : bool;
      (** [true] when this request ran the computation; [false] when it
          joined an in-flight identical request and shared the result *)
}

type stats_payload = {
  requests : int;
  computations : int;  (** estimate computations actually run *)
  deduped : int;  (** requests served by joining an in-flight twin *)
  overloaded : int;  (** requests shed by admission control *)
  errors : int;
  queued : int;  (** jobs accepted but not yet running, right now *)
  crashed_workers : int;  (** worker-domain deaths survived so far *)
  respawned_workers : int;  (** replacement workers the watchdog spawned *)
  slow_clients : int;  (** connections shed for stalling mid-request *)
  rejected_conns : int;  (** connections refused at the admission cap *)
  store : (int * int * int) option;  (** (hits, misses, puts), when a store is attached *)
  uptime_s : float;
}

type sched_payload = {
  analyzed : int;  (** task sets analysed (always the request's [count]) *)
  passes : int;  (** sets meeting every target at the headline budget *)
  degraded : int;  (** sets carrying a non-[Exact] rung *)
  digest : string;
      (** campaign digest ({!Sched.Campaign.digest_of_results}) — equal
          to a direct CLI run's digest, bit for bit *)
  sched_computed : bool;
      (** [true] when this request led the campaign computation *)
}

type grid_payload = {
  cells : int;  (** total grid cells evaluated *)
  failed : int;  (** cells whose pipeline returned an error *)
  grid_digest : string;
      (** canonical matrix digest ({!Grid.digest}) — equal to a direct
          CLI run's digest, bit for bit *)
  grid_computed : bool;
      (** [true] when this request led the grid computation *)
}

type response =
  | Result of result_payload
  | Pong
  | Stats_reply of stats_payload
  | Sched_reply of sched_payload
  | Grid_reply of grid_payload
  | Overloaded of { queued : int; queue_max : int }
      (** typed load shedding: the request was not admitted and ran no
          computation; retry against a less loaded daemon *)
  | Error_reply of string

val request_to_string : request -> string
val request_of_string : string -> (request, string) result
val response_to_string : response -> string
val response_of_string : string -> (response, string) result
