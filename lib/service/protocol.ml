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
  { bench;
    pfail = 1e-4;
    target = 1e-15;
    mechanism = Pwcet.Mechanism.No_protection;
    sets = 16;
    ways = 4;
    line = 16;
    engine = `Path;
    exact = false;
    timeout_ms = None;
    delay_ms = 0 }

type sched = {
  count : int;
  n_tasks : int;
  utilisation : float;
  seed : int;
  policy : Sched.Analysis.policy;
  reexec : int;
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

let default_sched =
  { count = 100;
    n_tasks = 4;
    utilisation = 0.6;
    seed = 42;
    policy = Sched.Analysis.Rm;
    reexec = 1;
    k_max = 3;
    targets = [ 1e-3; 1e-5; 1e-7; 1e-9 ];
    s_pfail = 1e-4;
    s_mechanism = Pwcet.Mechanism.Shared_reliable_buffer;
    s_sets = 16;
    s_ways = 4;
    s_line = 16;
    fault_rate = 1e-4;
    clock_mhz = 100.0;
    rep_target = 1e-9;
    max_points = 512;
    benchmarks = [] }

type grid = {
  g_benchmarks : string list;
  g_geometries : (int * int * int) list;
  g_mechanisms : Pwcet.Mechanism.t list;
  g_pfails : float list;
  g_targets : float list;
  g_engine : [ `Path | `Ilp ];
  g_exact : bool;
}

let default_grid ~benchmarks =
  { g_benchmarks = benchmarks;
    g_geometries = [ (16, 4, 16) ];
    g_mechanisms = Pwcet.Mechanism.all;
    g_pfails = [ 1e-6; 1e-5; 1e-4; 1e-3 ];
    g_targets = [ 1e-15 ];
    g_engine = `Path;
    g_exact = false }

type request = Ping | Stats | Analyze of analyze | Sched of sched | Grid of grid

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

(* Every field travels, defaults included: the wire form is the dedup
   key's input, and an explicit field can never drift from an implicit
   default. Floats print with %.17g (lossless), so the daemon's
   Campaign.identity — IEEE bit patterns — matches the CLI's exactly. *)
let sched_fields s =
  [ ("op", Json.String "sched");
    ("count", Json.Int s.count);
    ("n_tasks", Json.Int s.n_tasks);
    ("utilisation", Json.Float s.utilisation);
    ("seed", Json.Int s.seed);
    ("policy", Json.String (Sched.Analysis.policy_name s.policy));
    ("reexec", Json.Int s.reexec);
    ("k_max", Json.Int s.k_max);
    ("targets", Json.List (List.map (fun t -> Json.Float t) s.targets));
    ("pfail", Json.Float s.s_pfail);
    ("mechanism", Json.String (Pwcet.Mechanism.short_name s.s_mechanism));
    ("sets", Json.Int s.s_sets);
    ("ways", Json.Int s.s_ways);
    ("line", Json.Int s.s_line);
    ("fault_rate", Json.Float s.fault_rate);
    ("clock_mhz", Json.Float s.clock_mhz);
    ("rep_target", Json.Float s.rep_target);
    ("max_points", Json.Int s.max_points) ]
  @
  if s.benchmarks = [] then []
  else [ ("benchmarks", Json.List (List.map (fun b -> Json.String b) s.benchmarks)) ]

(* As with sched: every field travels, defaults included, geometries as
   "SETSxWAYSxLINE" strings and floats as %.17g, so the daemon's
   Grid.identity — IEEE bit patterns — matches the CLI's exactly. *)
let grid_fields g =
  [ ("op", Json.String "grid");
    ("benchmarks", Json.List (List.map (fun b -> Json.String b) g.g_benchmarks));
    ( "geometries",
      Json.List
        (List.map
           (fun (sets, ways, line) -> Json.String (Printf.sprintf "%dx%dx%d" sets ways line))
           g.g_geometries) );
    ( "mechanisms",
      Json.List (List.map (fun m -> Json.String (Pwcet.Mechanism.short_name m)) g.g_mechanisms)
    );
    ("pfail_grid", Json.List (List.map (fun p -> Json.Float p) g.g_pfails));
    ("targets", Json.List (List.map (fun t -> Json.Float t) g.g_targets));
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

(* Same validation the CLI's [prob_conv] applies: finite, strictly
   inside (0, 1). NaN and infinities must never reach the pipeline. *)
let probability ~field json =
  let* p = Json.to_float ~field json in
  if Float.is_finite p && p > 0.0 && p < 1.0 then Ok p
  else Error (Printf.sprintf "field %S: probability must lie strictly inside (0, 1)" field)

let positive ~field json =
  let* n = Json.to_int ~field json in
  if n >= 1 then Ok n else Error (Printf.sprintf "field %S: must be at least 1" field)

let non_negative ~field json =
  let* n = Json.to_int ~field json in
  if n >= 0 then Ok n else Error (Printf.sprintf "field %S: must be non-negative" field)

let positive_float ~field json =
  let* x = Json.to_float ~field json in
  if Float.is_finite x && x > 0.0 then Ok x
  else Error (Printf.sprintf "field %S: must be a positive finite number" field)

(* fault_rate semantics: a per-hour probability, zero allowed. *)
let unit_rate ~field json =
  let* x = Json.to_float ~field json in
  if Float.is_finite x && x >= 0.0 && x < 1.0 then Ok x
  else Error (Printf.sprintf "field %S: must lie inside [0, 1)" field)

let enum ~what options ~field json =
  let* tag = Json.to_text ~field json in
  match List.assoc_opt tag options with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "field %S: unknown %s %S (expected %s)" field what tag
         (String.concat ", " (List.map fst options)))

let decode_analyze json =
  let* bench = required ~field:"bench" json Json.to_text in
  if bench = "" then Error "field \"bench\": must be non-empty"
  else
    let* pfail = optional ~field:"pfail" json probability ~default:1e-4 in
    let* target = optional ~field:"target" json probability ~default:1e-15 in
    let* mechanism =
      optional ~field:"mechanism" json
        (fun ~field j ->
          let* tag = Json.to_text ~field j in
          match Pwcet.Mechanism.of_string tag with
          | Some m -> Ok m
          | None -> Error (Printf.sprintf "field %S: unknown mechanism %S" field tag))
        ~default:Pwcet.Mechanism.No_protection
    in
    let* sets = optional ~field:"sets" json positive ~default:16 in
    let* ways = optional ~field:"ways" json positive ~default:4 in
    let* line = optional ~field:"line" json positive ~default:16 in
    let* engine =
      optional ~field:"engine" json
        (enum ~what:"engine" [ ("path", `Path); ("ilp", `Ilp) ])
        ~default:`Path
    in
    let* exact = optional ~field:"exact" json Json.to_bool ~default:false in
    let* timeout_ms =
      optional ~field:"timeout_ms" json
        (fun ~field j ->
          let* ms = positive ~field j in
          Ok (Some ms))
        ~default:None
    in
    let* delay_ms =
      optional ~field:"delay_ms" json
        (fun ~field j ->
          let* ms = Json.to_int ~field j in
          if ms >= 0 then Ok ms else Error (Printf.sprintf "field %S: must be non-negative" field))
        ~default:0
    in
    Ok
      (Analyze
         { bench; pfail; target; mechanism; sets; ways; line; engine; exact; timeout_ms; delay_ms })

let decode_sched json =
  let d = default_sched in
  let* count = optional ~field:"count" json positive ~default:d.count in
  let* n_tasks = optional ~field:"n_tasks" json positive ~default:d.n_tasks in
  let* utilisation = optional ~field:"utilisation" json positive_float ~default:d.utilisation in
  let* seed = optional ~field:"seed" json Json.to_int ~default:d.seed in
  let* policy =
    optional ~field:"policy" json
      (fun ~field j ->
        let* tag = Json.to_text ~field j in
        match Sched.Analysis.policy_of_string tag with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "field %S: unknown policy %S (expected rm or edf)" field tag))
      ~default:d.policy
  in
  let* reexec = optional ~field:"reexec" json non_negative ~default:d.reexec in
  let* k_max = optional ~field:"k_max" json non_negative ~default:d.k_max in
  let* targets =
    optional ~field:"targets" json
      (fun ~field j ->
        let* items = Json.to_list ~field j in
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* p = probability ~field item in
            Ok (p :: acc))
          items (Ok []))
      ~default:d.targets
  in
  let* s_pfail = optional ~field:"pfail" json probability ~default:d.s_pfail in
  let* s_mechanism =
    optional ~field:"mechanism" json
      (fun ~field j ->
        let* tag = Json.to_text ~field j in
        match Pwcet.Mechanism.of_string tag with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "field %S: unknown mechanism %S" field tag))
      ~default:d.s_mechanism
  in
  let* s_sets = optional ~field:"sets" json positive ~default:d.s_sets in
  let* s_ways = optional ~field:"ways" json positive ~default:d.s_ways in
  let* s_line = optional ~field:"line" json positive ~default:d.s_line in
  let* fault_rate = optional ~field:"fault_rate" json unit_rate ~default:d.fault_rate in
  let* clock_mhz = optional ~field:"clock_mhz" json positive_float ~default:d.clock_mhz in
  let* rep_target = optional ~field:"rep_target" json probability ~default:d.rep_target in
  let* max_points = optional ~field:"max_points" json positive ~default:d.max_points in
  let* benchmarks =
    optional ~field:"benchmarks" json
      (fun ~field j ->
        let* items = Json.to_list ~field j in
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* b = Json.to_text ~field item in
            if b = "" then Error (Printf.sprintf "field %S: empty benchmark name" field)
            else Ok (b :: acc))
          items (Ok []))
      ~default:d.benchmarks
  in
  Ok
    (Sched
       { count; n_tasks; utilisation; seed; policy; reexec; k_max; targets; s_pfail;
         s_mechanism; s_sets; s_ways; s_line; fault_rate; clock_mhz; rep_target; max_points;
         benchmarks })

(* List-valued axes share one decoder shape: decode every element,
   then reject the empty list — an empty axis would make the grid
   silently evaluate nothing, which is the same mistake the CLI
   rejects with exit 2. *)
let non_empty_list ~what decode ~field json =
  let* items = Json.to_list ~field json in
  let* values =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* v = decode ~field item in
        Ok (v :: acc))
      items (Ok [])
  in
  if values = [] then
    Error (Printf.sprintf "field %S: must name at least one %s" field what)
  else Ok values

let geometry ~field json =
  let* tag = Json.to_text ~field json in
  let malformed () =
    Error
      (Printf.sprintf "field %S: malformed geometry %S (expected SETSxWAYS[xLINE])" field tag)
  in
  let* sets, ways, line =
    match List.map int_of_string_opt (String.split_on_char 'x' tag) with
    | [ Some sets; Some ways ] -> Ok (sets, ways, 16)
    | [ Some sets; Some ways; Some line ] -> Ok (sets, ways, line)
    | _ -> malformed ()
  in
  if sets >= 1 && ways >= 1 && line >= 1 then Ok (sets, ways, line) else malformed ()

let mechanism_of_json ~field json =
  let* tag = Json.to_text ~field json in
  match Pwcet.Mechanism.of_string tag with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "field %S: unknown mechanism %S" field tag)

let decode_grid json =
  let d = default_grid ~benchmarks:[] in
  let* g_benchmarks =
    required ~field:"benchmarks" json
      (non_empty_list ~what:"benchmark" (fun ~field j ->
           let* b = Json.to_text ~field j in
           if b = "" then Error (Printf.sprintf "field %S: empty benchmark name" field)
           else Ok b))
  in
  let* g_geometries =
    optional ~field:"geometries" json
      (non_empty_list ~what:"geometry" geometry)
      ~default:d.g_geometries
  in
  let* g_mechanisms =
    optional ~field:"mechanisms" json
      (non_empty_list ~what:"mechanism" mechanism_of_json)
      ~default:d.g_mechanisms
  in
  let* g_pfails =
    optional ~field:"pfail_grid" json
      (non_empty_list ~what:"pfail point" probability)
      ~default:d.g_pfails
  in
  let* g_targets =
    optional ~field:"targets" json
      (non_empty_list ~what:"exceedance target" probability)
      ~default:d.g_targets
  in
  let* g_engine =
    optional ~field:"engine" json
      (enum ~what:"engine" [ ("path", `Path); ("ilp", `Ilp) ])
      ~default:d.g_engine
  in
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
