(** The analysis daemon's wire protocol: typed requests and responses
    with JSON codecs.

    One JSON object per {!Frame} frame, in either direction. Every
    decoder is total — malformed input comes back as [Error], and the
    server turns that into an [Error_reply] rather than dropping the
    connection — and every numeric field is validated on decode with
    the same bounds the CLI enforces (probabilities strictly inside
    (0, 1), geometry at least 1), so a request that decodes is a
    request the pipeline can run. Unknown fields are ignored: an
    [analyze] or [grid] request from an older client that still sends
    the retired FMM engine selector ["impl"] decodes exactly as the
    same request without it. *)

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
(** The CLI's defaults: pfail 1e-4, target 1e-15, no protection,
    16x4x16 geometry, path engine, no timeout, no delay. *)

(** A bulk schedulability campaign — the service face of
    {!Sched.Campaign}. One request analyses [count] UUniFast task sets
    against one pool of per-benchmark pWCET laws; the daemon computes
    each distinct benchmark's law at most once (deduplicated with
    concurrent [analyze] traffic through the same caches) and reports
    the campaign digest, so a client can check bit-identity against a
    direct CLI run. Field names follow {!Sched.Campaign.spec}; an
    empty [benchmarks] means the whole registry. *)
type sched = {
  count : int;
  n_tasks : int;
  utilisation : float;
  seed : int;
  policy : Sched.Analysis.policy;
  reexec : int;  (** headline re-execution budget k *)
  k_max : int;
  targets : float list;
  s_pfail : float;
  s_mechanism : Pwcet.Mechanism.t;
  s_sets : int;
  s_ways : int;
  s_line : int;
  fault_rate : float;
  clock_mhz : float;
  rep_target : float;
  max_points : int;
  benchmarks : string list;
}

val default_sched : sched
(** {!Sched.Campaign.make}'s defaults: 100 sets of 4 tasks at total
    utilisation 0.6 under RM, budget 1 scanned to 3, pfail 1e-4, SRB,
    16x4x16 geometry, fault rate 1e-4/hour at 100 MHz, rep target
    1e-9, 512-point cap, whole registry. *)

(** A bulk comparison grid — the service face of {!Grid.run}. One
    request evaluates benchmark x geometry x mechanism x pfail in one
    pass over the shared per-(benchmark, geometry) analysis stages and
    reports the canonical matrix digest ({!Grid.digest}), so a client
    can check bit-identity against a direct [pwcet_tool grid] run.
    Every axis must be non-empty; [benchmarks] is required. *)
type grid = {
  g_benchmarks : string list;
  g_geometries : (int * int * int) list;  (** (sets, ways, line_bytes) *)
  g_mechanisms : Pwcet.Mechanism.t list;
  g_pfails : float list;
  g_targets : float list;
  g_engine : [ `Path | `Ilp ];
  g_exact : bool;
}

val default_grid : benchmarks:string list -> grid
(** The CLI's defaults: 16x4x16 geometry, all three mechanisms, pfail
    grid 1e-6..1e-3, target 1e-15, path engine. *)

type request = Ping | Stats | Analyze of analyze | Sched of sched | Grid of grid

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
