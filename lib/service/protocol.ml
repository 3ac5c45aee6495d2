type analyze = {
  bench : string;
  pfail : float;
  target : float;
  mechanism : Pwcet.Mechanism.t;
  sets : int;
  ways : int;
  line : int;
  engine : [ `Path | `Ilp ];
  exact : bool;
  timeout_ms : int option;
  delay_ms : int;
}

let default_analyze ~bench =
  let paper = Cache.Config.paper_default in
  { bench;
    pfail = Pwcet.Param.pfail;
    target = Pwcet.Param.target;
    mechanism = Pwcet.Mechanism.No_protection;
    sets = paper.sets;
    ways = paper.ways;
    line = paper.line_bytes;
    engine = `Path;
    exact = false;
    timeout_ms = None;
    delay_ms = 0 }

type grid = {
  g_benchmarks : string list;
  g_geometries : Cache.Config.t list;
  g_mechanisms : Pwcet.Mechanism.t list;
  g_pfails : float list;
  g_targets : float list;
  g_engine : [ `Path | `Ilp ];
  g_exact : bool;
}

let default_grid ~benchmarks =
  { g_benchmarks = benchmarks;
    g_geometries = [ Cache.Config.paper_default ];
    g_mechanisms = Pwcet.Mechanism.all;
    g_pfails = Pwcet.Param.pfail_grid;
    g_targets = [ Pwcet.Param.target ];
    g_engine = `Path;
    g_exact = false }

type request =
  | Ping
  | Stats
  | Analyze of analyze
  | Sched of Sched.Campaign.spec
  | Grid of grid

type result_payload = {
  pwcet : int;
  wcet_ff : int;
  pbf : float;
  rung : string;
  computed : bool;
}

type stats_payload = {
  requests : int;
  computations : int;
  deduped : int;
  overloaded : int;
  errors : int;
  queued : int;
  crashed_workers : int;
  respawned_workers : int;
  slow_clients : int;
  rejected_conns : int;
  store : (int * int * int) option;
  uptime_s : float;
}

type sched_payload = {
  analyzed : int;
  passes : int;
  degraded : int;
  digest : string;
  sched_computed : bool;
}

type grid_payload = {
  cells : int;
  failed : int;
  grid_digest : string;
  grid_computed : bool;
}

type response =
  | Result of result_payload
  | Pong
  | Stats_reply of stats_payload
  | Sched_reply of sched_payload
  | Grid_reply of grid_payload
  | Overloaded of { queued : int; queue_max : int }
  | Error_reply of string

(* --- encoding -------------------------------------------------------------- *)

let analyze_fields a =
  [ ("op", Json.String "analyze");
    ("bench", Json.String a.bench);
    ("pfail", Json.Float a.pfail);
    ("target", Json.Float a.target);
    ("mechanism", Json.String (Pwcet.Mechanism.short_name a.mechanism));
    ("sets", Json.Int a.sets);
    ("ways", Json.Int a.ways);
    ("line", Json.Int a.line);
    ("engine", Json.String (Pwcet.Estimator.engine_tag a.engine));
    ("exact", Json.Bool a.exact) ]
  @ (match a.timeout_ms with None -> [] | Some ms -> [ ("timeout_ms", Json.Int ms) ])
  @ if a.delay_ms = 0 then [] else [ ("delay_ms", Json.Int a.delay_ms) ]

let strings xs = Json.List (List.map (fun x -> Json.String x) xs)
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* Every field travels, defaults included: the wire form is the dedup
   key's input, and an explicit field can never drift from an implicit
   default. Floats print with %.17g (lossless), so the daemon's
   Campaign.identity — IEEE bit patterns — matches the CLI's exactly. *)
let sched_fields (s : Sched.Campaign.spec) =
  [ ("op", Json.String "sched");
    ("count", Json.Int s.count);
    ("n_tasks", Json.Int s.n_tasks);
    ("utilisation", Json.Float s.utilisation);
    ("seed", Json.Int s.seed);
    ("policy", Json.String (Sched.Analysis.policy_name s.policy));
    ("reexec", Json.Int s.reexec_budget);
    ("k_max", Json.Int s.k_max);
    ("targets", floats s.targets);
    ("pfail", Json.Float s.pfail);
    ("mechanism", Json.String (Pwcet.Mechanism.short_name s.mechanism));
    ("sets", Json.Int s.sets);
    ("ways", Json.Int s.ways);
    ("line", Json.Int s.line);
    ("fault_rate", Json.Float s.fault_rate);
    ("clock_mhz", Json.Float s.clock_mhz);
    ("rep_target", Json.Float s.rep_target);
    ("max_points", Json.Int s.max_points);
    ("benchmarks", strings s.benchmarks) ]

(* As with sched: every field travels, defaults included, geometries as
   Cache.Config.to_string and floats as %.17g, so the daemon's
   Grid.identity — IEEE bit patterns — matches the CLI's exactly. *)
let grid_fields g =
  [ ("op", Json.String "grid");
    ("benchmarks", strings g.g_benchmarks);
    ("geometries", strings (List.map Cache.Config.to_string g.g_geometries));
    ("mechanisms", strings (List.map Pwcet.Mechanism.short_name g.g_mechanisms));
    ("pfail_grid", floats g.g_pfails);
    ("targets", floats g.g_targets);
    ("engine", Json.String (Pwcet.Estimator.engine_tag g.g_engine));
    ("exact", Json.Bool g.g_exact) ]

let request_to_string = function
  | Ping -> Json.to_string (Json.Obj [ ("op", Json.String "ping") ])
  | Stats -> Json.to_string (Json.Obj [ ("op", Json.String "stats") ])
  | Analyze a -> Json.to_string (Json.Obj (analyze_fields a))
  | Sched s -> Json.to_string (Json.Obj (sched_fields s))
  | Grid g -> Json.to_string (Json.Obj (grid_fields g))

let response_to_string = function
  | Result r ->
    Json.to_string
      (Json.Obj
         [ ("status", Json.String "ok");
           ("pwcet", Json.Int r.pwcet);
           ("wcet_ff", Json.Int r.wcet_ff);
           ("pbf", Json.Float r.pbf);
           ("rung", Json.String r.rung);
           ("computed", Json.Bool r.computed) ])
  | Pong -> Json.to_string (Json.Obj [ ("status", Json.String "pong") ])
  | Stats_reply s ->
    Json.to_string
      (Json.Obj
         ([ ("status", Json.String "stats");
            ("requests", Json.Int s.requests);
            ("computations", Json.Int s.computations);
            ("deduped", Json.Int s.deduped);
            ("overloaded", Json.Int s.overloaded);
            ("errors", Json.Int s.errors);
            ("queued", Json.Int s.queued);
            ("crashed_workers", Json.Int s.crashed_workers);
            ("respawned_workers", Json.Int s.respawned_workers);
            ("slow_clients", Json.Int s.slow_clients);
            ("rejected_conns", Json.Int s.rejected_conns);
            ("uptime_s", Json.Float s.uptime_s) ]
         @
         match s.store with
         | None -> []
         | Some (hits, misses, puts) ->
           [ ("store_hits", Json.Int hits);
             ("store_misses", Json.Int misses);
             ("store_puts", Json.Int puts) ]))
  | Sched_reply s ->
    Json.to_string
      (Json.Obj
         [ ("status", Json.String "sched");
           ("analyzed", Json.Int s.analyzed);
           ("passes", Json.Int s.passes);
           ("degraded", Json.Int s.degraded);
           ("digest", Json.String s.digest);
           ("computed", Json.Bool s.sched_computed) ])
  | Grid_reply g ->
    Json.to_string
      (Json.Obj
         [ ("status", Json.String "grid");
           ("cells", Json.Int g.cells);
           ("failed", Json.Int g.failed);
           ("digest", Json.String g.grid_digest);
           ("computed", Json.Bool g.grid_computed) ])
  | Overloaded { queued; queue_max } ->
    Json.to_string
      (Json.Obj
         [ ("status", Json.String "overloaded");
           ("queued", Json.Int queued);
           ("queue_max", Json.Int queue_max) ])
  | Error_reply message ->
    Json.to_string
      (Json.Obj [ ("status", Json.String "error"); ("message", Json.String message) ])

(* --- decoding -------------------------------------------------------------- *)

let ( let* ) = Result.bind

let required ~field json decode =
  match Json.member field json with
  | None -> Error (Printf.sprintf "missing field %S" field)
  | Some v -> decode ~field v

let optional ~field json decode ~default =
  match Json.member field json with None -> Ok default | Some v -> decode ~field v

(* Every range check and name list is Pwcet.Param's (or the geometry's
   and the policy's own), the ones the CLI's converters use; the
   decoder only adds the field's name to the message. *)
let checked check ~field v = Result.map_error (Printf.sprintf "field %S: %s" field) (check v)

let probability ~field json =
  let* p = Json.to_float ~field json in
  checked Pwcet.Param.probability ~field p

let named parse ~field json =
  let* tag = Json.to_text ~field json in
  checked parse ~field tag

let at_least n ~field json =
  let* v = Json.to_int ~field json in
  checked (Pwcet.Param.at_least n) ~field v

let list decode ~field json =
  let* items = Json.to_list ~field json in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* v = decode ~field item in
      Ok (v :: acc))
    items (Ok [])

(* An empty axis would make a grid silently evaluate nothing, the
   mistake the CLI rejects too. *)
let non_empty ~what decode ~field json =
  let* values = list decode ~field json in
  if values = [] then Error (Printf.sprintf "field %S: must name at least one %s" field what)
  else Ok values

let bench_name ~field json =
  let* b = Json.to_text ~field json in
  if b = "" then Error (Printf.sprintf "field %S: empty benchmark name" field) else Ok b

let decode_analyze json =
  let d = default_analyze ~bench:"" in
  let* bench = required ~field:"bench" json bench_name in
  let* pfail = optional ~field:"pfail" json probability ~default:d.pfail in
  let* target = optional ~field:"target" json probability ~default:d.target in
  let* mechanism =
    optional ~field:"mechanism" json (named Pwcet.Param.mechanism) ~default:d.mechanism
  in
  let* sets = optional ~field:"sets" json Json.to_int ~default:d.sets in
  let* ways = optional ~field:"ways" json Json.to_int ~default:d.ways in
  let* line = optional ~field:"line" json Json.to_int ~default:d.line in
  let* (_ : Cache.Config.t) = Cache.Config.of_geometry ~sets ~ways ~line_bytes:line in
  let* engine = optional ~field:"engine" json (named Pwcet.Param.engine) ~default:d.engine in
  let* exact = optional ~field:"exact" json Json.to_bool ~default:d.exact in
  let* timeout_ms =
    optional ~field:"timeout_ms" json
      (fun ~field j -> Result.map Option.some (at_least 1 ~field j))
      ~default:d.timeout_ms
  in
  let* delay_ms = optional ~field:"delay_ms" json (at_least 0) ~default:d.delay_ms in
  Ok
    (Analyze
       { bench; pfail; target; mechanism; sets; ways; line; engine; exact; timeout_ms; delay_ms })

(* Typed fields only; Campaign.make supplies the defaults of absent
   fields (an empty benchmark list means the whole registry, as on the
   CLI) and validates the whole spec once. *)
let decode_sched json =
  let field name decode =
    match Json.member name json with
    | None -> Ok None
    | Some v -> Result.map Option.some (decode ~field:name v)
  in
  let* count = field "count" Json.to_int in
  let* n_tasks = field "n_tasks" Json.to_int in
  let* utilisation = field "utilisation" Json.to_float in
  let* seed = field "seed" Json.to_int in
  let* policy = field "policy" (named Sched.Analysis.policy_of_string) in
  let* reexec_budget = field "reexec" Json.to_int in
  let* k_max = field "k_max" Json.to_int in
  let* targets = field "targets" (list Json.to_float) in
  let* pfail = field "pfail" Json.to_float in
  let* mechanism = field "mechanism" (named Pwcet.Param.mechanism) in
  let* sets = field "sets" Json.to_int in
  let* ways = field "ways" Json.to_int in
  let* line = field "line" Json.to_int in
  let* fault_rate = field "fault_rate" Json.to_float in
  let* clock_mhz = field "clock_mhz" Json.to_float in
  let* rep_target = field "rep_target" Json.to_float in
  let* max_points = field "max_points" Json.to_int in
  let* benchmarks = field "benchmarks" (list Json.to_text) in
  let* spec =
    Sched.Campaign.make ?count ?n_tasks ?utilisation ?seed ?policy ?reexec_budget ?k_max
      ?targets ?pfail ?mechanism ?sets ?ways ?line ?fault_rate ?clock_mhz ?rep_target
      ?max_points ?benchmarks ()
  in
  Ok (Sched spec)

let decode_grid json =
  let d = default_grid ~benchmarks:[] in
  let* g_benchmarks =
    required ~field:"benchmarks" json (non_empty ~what:"benchmark" bench_name)
  in
  let* g_geometries =
    optional ~field:"geometries" json
      (non_empty ~what:"geometry" (named Cache.Config.of_string))
      ~default:d.g_geometries
  in
  let* g_mechanisms =
    optional ~field:"mechanisms" json
      (non_empty ~what:"mechanism" (named Pwcet.Param.mechanism))
      ~default:d.g_mechanisms
  in
  let* g_pfails =
    optional ~field:"pfail_grid" json (non_empty ~what:"pfail point" probability)
      ~default:d.g_pfails
  in
  let* g_targets =
    optional ~field:"targets" json (non_empty ~what:"exceedance target" probability)
      ~default:d.g_targets
  in
  let* g_engine = optional ~field:"engine" json (named Pwcet.Param.engine) ~default:d.g_engine in
  let* g_exact = optional ~field:"exact" json Json.to_bool ~default:d.g_exact in
  Ok
    (Grid
       { g_benchmarks; g_geometries; g_mechanisms; g_pfails; g_targets; g_engine; g_exact })

let request_of_string s =
  let* json = Json.of_string s in
  let* op = required ~field:"op" json Json.to_text in
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "analyze" -> decode_analyze json
  | "sched" -> decode_sched json
  | "grid" -> decode_grid json
  | op ->
    Error (Printf.sprintf "unknown op %S (expected ping, stats, analyze, sched or grid)" op)

let decode_result json =
  let* pwcet = required ~field:"pwcet" json Json.to_int in
  let* wcet_ff = required ~field:"wcet_ff" json Json.to_int in
  let* pbf = required ~field:"pbf" json Json.to_float in
  let* rung = required ~field:"rung" json Json.to_text in
  let* computed = required ~field:"computed" json Json.to_bool in
  Ok (Result { pwcet; wcet_ff; pbf; rung; computed })

let decode_stats json =
  let* requests = required ~field:"requests" json Json.to_int in
  let* computations = required ~field:"computations" json Json.to_int in
  let* deduped = required ~field:"deduped" json Json.to_int in
  let* overloaded = required ~field:"overloaded" json Json.to_int in
  let* errors = required ~field:"errors" json Json.to_int in
  let* queued = required ~field:"queued" json Json.to_int in
  (* Health counters arrived with the chaos layer; absent on replies
     from an older daemon, where they read as zero. *)
  let optional_int ~field json =
    match Json.member field json with
    | None -> Ok 0
    | Some _ -> required ~field json Json.to_int
  in
  let* crashed_workers = optional_int ~field:"crashed_workers" json in
  let* respawned_workers = optional_int ~field:"respawned_workers" json in
  let* slow_clients = optional_int ~field:"slow_clients" json in
  let* rejected_conns = optional_int ~field:"rejected_conns" json in
  let* uptime_s = required ~field:"uptime_s" json Json.to_float in
  let* store =
    match Json.member "store_hits" json with
    | None -> Ok None
    | Some _ ->
      let* hits = required ~field:"store_hits" json Json.to_int in
      let* misses = required ~field:"store_misses" json Json.to_int in
      let* puts = required ~field:"store_puts" json Json.to_int in
      Ok (Some (hits, misses, puts))
  in
  Ok
    (Stats_reply
       { requests; computations; deduped; overloaded; errors; queued; crashed_workers;
         respawned_workers; slow_clients; rejected_conns; store; uptime_s })

let response_of_string s =
  let* json = Json.of_string s in
  let* status = required ~field:"status" json Json.to_text in
  match status with
  | "ok" -> decode_result json
  | "pong" -> Ok Pong
  | "stats" -> decode_stats json
  | "sched" ->
    let* analyzed = required ~field:"analyzed" json Json.to_int in
    let* passes = required ~field:"passes" json Json.to_int in
    let* degraded = required ~field:"degraded" json Json.to_int in
    let* digest = required ~field:"digest" json Json.to_text in
    let* sched_computed = required ~field:"computed" json Json.to_bool in
    Ok (Sched_reply { analyzed; passes; degraded; digest; sched_computed })
  | "grid" ->
    let* cells = required ~field:"cells" json Json.to_int in
    let* failed = required ~field:"failed" json Json.to_int in
    let* grid_digest = required ~field:"digest" json Json.to_text in
    let* grid_computed = required ~field:"computed" json Json.to_bool in
    Ok (Grid_reply { cells; failed; grid_digest; grid_computed })
  | "overloaded" ->
    let* queued = required ~field:"queued" json Json.to_int in
    let* queue_max = required ~field:"queue_max" json Json.to_int in
    Ok (Overloaded { queued; queue_max })
  | "error" ->
    let* message = required ~field:"message" json Json.to_text in
    Ok (Error_reply message)
  | status -> Error (Printf.sprintf "unknown response status %S" status)
