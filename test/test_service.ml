(* Tests for the analysis daemon: the JSON codec, length-prefixed
   framing, the typed protocol round trip, and — live, against an
   in-process server on a temp Unix socket — request dedup (K identical
   concurrent requests run exactly one computation), admission-control
   shedding with the typed Overloaded response, budgeted requests
   riding the degradation ladder past the caches, and client/server
   result identity with the direct Estimator pipeline. *)

module Json = Service.Json
module Frame = Service.Frame
module Protocol = Service.Protocol
module Scheduler = Service.Scheduler
module Server = Service.Server
module Client = Service.Client

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- JSON ------------------------------------------------------------------ *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  let cases =
    [ Json.Null;
      Json.Bool true;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 1e-15;
      Json.Float (-0.125);
      Json.Float 1.7976931348623157e308;
      Json.String "";
      Json.String "plain";
      Json.String "esc \"quotes\" \\ and \n\t control \001 bytes";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj [ ("a", Json.Int 1); ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]) ]
    ]
  in
  List.iteri (fun i v -> check (Printf.sprintf "roundtrip %d" i) true (roundtrip v)) cases

let test_json_malformed () =
  let bad =
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "{\"a\":1} trailing";
      "\"bad \\x escape\""; "nan"; "[1 2]"; "{'single':1}" ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" s)
    bad;
  (* Strict but correct on the edges the protocol relies on. *)
  check "int stays int" true (Json.of_string "7" = Ok (Json.Int 7));
  check "fraction is float" true (Json.of_string "7.0" = Ok (Json.Float 7.0));
  check "exponent is float" true (Json.of_string "1e3" = Ok (Json.Float 1000.0));
  check "escapes decode" true
    (Json.of_string "\"a\\u0041\\n\"" = Ok (Json.String "aA\n"))

(* --- framing --------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads = [ ""; "x"; String.make 70_000 'q'; "{\"op\":\"ping\"}" ] in
      List.iter
        (fun payload ->
          Frame.write a payload;
          match Frame.read b with
          | Ok (Some got) -> check_str "frame payload" payload got
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.failf "frame error: %s" e)
        payloads;
      Unix.close a;
      check "clean EOF" true (Frame.read b = Ok None))

let test_frame_bad_length () =
  with_socketpair (fun a b ->
      (* A hostile length prefix far past the cap must be rejected
         before any allocation-sized read. *)
      let header = Bytes.create 8 in
      Bytes.set_int64_le header 0 0x7fff_ffff_ffffL;
      ignore (Unix.write a header 0 8);
      (match Frame.read b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized frame accepted");
      ());
  with_socketpair (fun a b ->
      (* Truncation mid-frame is an error, not silence. *)
      Frame.write a "full message";
      let whole = Bytes.create 15 in
      let got = Unix.read b whole 0 15 in
      check "read the truncated prefix" true (got > 8);
      ());
  with_socketpair (fun a b ->
      let header = Bytes.create 8 in
      Bytes.set_int64_le header 0 100L;
      ignore (Unix.write a header 0 8);
      ignore (Unix.write_substring a "only a few bytes" 0 16);
      Unix.close a;
      match Frame.read b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated frame accepted")

(* --- protocol -------------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [ Protocol.Ping;
      Protocol.Stats;
      Protocol.Analyze (Protocol.default_analyze ~bench:"crc");
      Protocol.Analyze
        { (Protocol.default_analyze ~bench:"adpcm") with
          Protocol.pfail = 1e-6;
          target = 1e-12;
          mechanism = Pwcet.Mechanism.Reliable_way;
          sets = 32;
          ways = 2;
          line = 32;
          engine = `Ilp;
          exact = true;
          timeout_ms = Some 250;
          delay_ms = 10 } ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok req' -> check "request roundtrip" true (req = req')
      | Error e -> Alcotest.failf "request decode: %s" e)
    reqs;
  let resps =
    [ Protocol.Pong;
      Protocol.Result
        { Protocol.pwcet = 110247; wcet_ff = 11148; pbf = 0.0127; rung = "exact";
          computed = true };
      Protocol.Overloaded { queued = 64; queue_max = 64 };
      Protocol.Error_reply "unknown benchmark";
      Protocol.Stats_reply
        { Protocol.requests = 9; computations = 3; deduped = 5; overloaded = 1; errors = 0;
          queued = 2; store = Some (4, 2, 2); uptime_s = 1.5; crashed_workers = 2;
          respawned_workers = 2; slow_clients = 1; rejected_conns = 3 };
      Protocol.Stats_reply
        { Protocol.requests = 0; computations = 0; deduped = 0; overloaded = 0; errors = 0;
          queued = 0; store = None; uptime_s = 0.0; crashed_workers = 0; respawned_workers = 0;
          slow_clients = 0; rejected_conns = 0 } ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_string (Protocol.response_to_string resp) with
      | Ok resp' -> check "response roundtrip" true (resp = resp')
      | Error e -> Alcotest.failf "response decode: %s" e)
    resps

(* The wire form of earlier clients: the same request with the retired
   FMM engine selector ["impl"] added, as they sent it. *)
let with_legacy_impl tag req =
  match Json.of_string (Protocol.request_to_string req) with
  | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (fields @ [ ("impl", Json.String tag) ]))
  | _ -> Alcotest.fail "request did not encode as an object"

let legacy_analyze =
  { (Protocol.default_analyze ~bench:"fibcall") with
    Protocol.mechanism = Pwcet.Mechanism.Shared_reliable_buffer;
    sets = 8;
    ways = 2 }

let legacy_grid =
  { (Protocol.default_grid ~benchmarks:[ "fibcall" ]) with
    Protocol.g_geometries = [ Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () ];
    g_pfails = [ 1e-4 ] }

(* Both old forms decode to the request without the field. *)
let test_protocol_legacy_impl () =
  List.iter
    (fun req ->
      List.iter
        (fun tag ->
          match Protocol.request_of_string (with_legacy_impl tag req) with
          | Ok req' -> check (Printf.sprintf "impl %S ignored" tag) true (req = req')
          | Error e -> Alcotest.failf "legacy request decode: %s" e)
        [ "naive"; "sliced" ])
    [ Protocol.Analyze legacy_analyze; Protocol.Grid legacy_grid ]

let test_protocol_sched_roundtrip () =
  let reqs =
    [ Protocol.Sched Sched.Campaign.default;
      Protocol.Sched
        { Sched.Campaign.default with
          Sched.Campaign.count = 1000;
          n_tasks = 6;
          utilisation = 1.8;
          policy = Sched.Analysis.Edf;
          reexec_budget = 2;
          k_max = 5;
          targets = [ 1e-3; 1e-6 ];
          pfail = 1e-5;
          mechanism = Pwcet.Mechanism.Reliable_way;
          sets = 8;
          ways = 2;
          benchmarks = [ "fibcall"; "bs" ] } ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Ok req' -> check "sched request roundtrip" true (req = req')
      | Error e -> Alcotest.failf "sched request decode: %s" e)
    reqs;
  let resp =
    Protocol.Sched_reply
      { Protocol.analyzed = 1000; passes = 412; degraded = 3;
        digest = "cbb4b8676f3b72b64f4a03fa829b0244"; sched_computed = true }
  in
  (match Protocol.response_of_string (Protocol.response_to_string resp) with
  | Ok resp' -> check "sched reply roundtrip" true (resp = resp')
  | Error e -> Alcotest.failf "sched reply decode: %s" e);
  (* Hostile sched fields are rejected by the decoder, not the pool. *)
  List.iter
    (fun s ->
      match Protocol.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid sched request %s" s)
    [ "{\"op\":\"sched\",\"count\":0}";
      "{\"op\":\"sched\",\"n_tasks\":0}";
      "{\"op\":\"sched\",\"utilisation\":0}";
      "{\"op\":\"sched\",\"policy\":\"fifo\"}";
      "{\"op\":\"sched\",\"reexec\":-1}";
      "{\"op\":\"sched\",\"targets\":[0.5,2.0]}" ];
  (* A minimal sched request takes the campaign defaults. *)
  match Protocol.request_of_string "{\"op\":\"sched\"}" with
  | Ok (Protocol.Sched s) -> check "default sched" true (s = Sched.Campaign.default)
  | Ok _ | Error _ -> Alcotest.fail "minimal sched request rejected"

let test_protocol_validation () =
  let bad =
    [ "{}";
      "{\"op\":\"noop\"}";
      "{\"op\":\"analyze\"}";
      "{\"op\":\"analyze\",\"bench\":\"\"}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"pfail\":0}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"pfail\":1}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"pfail\":\"NaN\"}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"mechanism\":\"tmr\"}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"sets\":0}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"timeout_ms\":0}";
      "{\"op\":\"analyze\",\"bench\":\"crc\",\"delay_ms\":-1}" ]
  in
  List.iter
    (fun s ->
      match Protocol.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid request %s" s)
    bad;
  (* Absent optional fields take the CLI's defaults. *)
  match Protocol.request_of_string "{\"op\":\"analyze\",\"bench\":\"crc\"}" with
  | Ok (Protocol.Analyze a) ->
    check "default analyze" true (a = Protocol.default_analyze ~bench:"crc")
  | Ok _ | Error _ -> Alcotest.fail "minimal analyze request rejected"

(* The wire form of each request kind, byte for byte: deployed clients
   and the daemon's dedup keys depend on these bytes, so a change to a
   request type must leave them alone. Each request must encode to its
   literal and decode back to itself. *)
let test_protocol_wire_bytes () =
  let config sets ways line_bytes = Cache.Config.make ~sets ~ways ~line_bytes () in
  let campaign = function Ok spec -> spec | Error e -> Alcotest.failf "campaign: %s" e in
  let cases =
    [ ( "analyze default",
        Protocol.Analyze (Protocol.default_analyze ~bench:"crc"),
        
        "{\"op\":\"analyze\",\"bench\":\"crc\",\"pfail\":0.0001,\"target\":1.0000000000000001e-15,\"mechanism\":\"none\",\"sets\":16,\"ways\":4,\"line\":16,\"engine\":\"path\",\"exact\":false}" );
      ( "analyze custom",
        Protocol.Analyze
          { (Protocol.default_analyze ~bench:"adpcm") with
            Protocol.pfail = 1e-6;
            target = 1e-12;
            mechanism = Pwcet.Mechanism.Reliable_way;
            sets = 32;
            ways = 2;
            line = 32;
            engine = `Ilp;
            exact = true;
            timeout_ms = Some 250;
            delay_ms = 10 },
        
        "{\"op\":\"analyze\",\"bench\":\"adpcm\",\"pfail\":9.9999999999999995e-07,\"target\":9.9999999999999998e-13,\"mechanism\":\"rw\",\"sets\":32,\"ways\":2,\"line\":32,\"engine\":\"ilp\",\"exact\":true,\"timeout_ms\":250,\"delay_ms\":10}" );
      ( "sched CLI default",
        Protocol.Sched (campaign (Sched.Campaign.make ())),
        
        "{\"op\":\"sched\",\"count\":100,\"n_tasks\":4,\"utilisation\":0.59999999999999998,\"seed\":42,\"policy\":\"rm\",\"reexec\":1,\"k_max\":3,\"targets\":[0.001,1.0000000000000001e-05,9.9999999999999995e-08,1.0000000000000001e-09],\"pfail\":0.0001,\"mechanism\":\"srb\",\"sets\":16,\"ways\":4,\"line\":16,\"fault_rate\":0.0001,\"clock_mhz\":100.0,\"rep_target\":1.0000000000000001e-09,\"max_points\":512,\"benchmarks\":[\"adpcm\",\"bs\",\"bsort100\",\"cnt\",\"cover\",\"crc\",\"edn\",\"expint\",\"fdct\",\"fft\",\"fibcall\",\"fir\",\"insertsort\",\"jfdctint\",\"lcdnum\",\"ludcmp\",\"matmult\",\"minver\",\"ns\",\"nsichneu\",\"prime\",\"qurt\",\"select\",\"statemate\",\"ud\"]}" );
      ( "sched custom",
        Protocol.Sched
          (campaign
             (Sched.Campaign.make ~count:1000 ~n_tasks:6 ~utilisation:1.8 ~seed:7
                ~policy:Sched.Analysis.Edf ~reexec_budget:2 ~k_max:5 ~targets:[ 1e-3; 1e-6 ]
                ~pfail:1e-5 ~mechanism:Pwcet.Mechanism.Reliable_way ~sets:8 ~ways:2 ~line:32
                ~fault_rate:2e-4 ~clock_mhz:200.0 ~rep_target:1e-8 ~max_points:256
                ~benchmarks:[ "fibcall"; "bs" ] ())),
        
        "{\"op\":\"sched\",\"count\":1000,\"n_tasks\":6,\"utilisation\":1.8,\"seed\":7,\"policy\":\"edf\",\"reexec\":2,\"k_max\":5,\"targets\":[0.001,9.9999999999999995e-07],\"pfail\":1.0000000000000001e-05,\"mechanism\":\"rw\",\"sets\":8,\"ways\":2,\"line\":32,\"fault_rate\":0.00020000000000000001,\"clock_mhz\":200.0,\"rep_target\":1e-08,\"max_points\":256,\"benchmarks\":[\"fibcall\",\"bs\"]}" );
      ( "grid default",
        Protocol.Grid (Protocol.default_grid ~benchmarks:[ "fibcall" ]),
        
        "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"geometries\":[\"16x4x16\"],\"mechanisms\":[\"none\",\"srb\",\"rw\"],\"pfail_grid\":[9.9999999999999995e-07,1.0000000000000001e-05,0.0001,0.001],\"targets\":[1.0000000000000001e-15],\"engine\":\"path\",\"exact\":false}" );
      ( "grid custom",
        Protocol.Grid
          { Protocol.g_benchmarks = [ "fibcall"; "bs" ];
            g_geometries = [ config 8 2 16; config 4 4 32 ];
            g_mechanisms =
              [ Pwcet.Mechanism.Shared_reliable_buffer; Pwcet.Mechanism.No_protection ];
            g_pfails = [ 1e-5; 1e-4 ];
            g_targets = [ 1e-15; 1e-9 ];
            g_engine = `Ilp;
            g_exact = true },
        
        "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\",\"bs\"],\"geometries\":[\"8x2x16\",\"4x4x32\"],\"mechanisms\":[\"srb\",\"none\"],\"pfail_grid\":[1.0000000000000001e-05,0.0001],\"targets\":[1.0000000000000001e-15,1.0000000000000001e-09],\"engine\":\"ilp\",\"exact\":true}" ) ]
  in
  List.iter
    (fun (name, req, wire) ->
      check_str (name ^ " bytes") wire (Protocol.request_to_string req);
      match Protocol.request_of_string wire with
      | Ok req' -> check (name ^ " roundtrip") true (req = req')
      | Error e -> Alcotest.failf "%s decode: %s" name e)
    cases

(* --- a live in-process daemon ---------------------------------------------- *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pwcet_test_service.%d.%d.sock" (Unix.getpid ()) !counter)

(* Start a server on a fresh socket, run [f socket scheduler], always
   shut the server down. [on_ready] gates [f]: no polling races. *)
let with_server ?store ?(domains = 2) ?(queue_max = 64) ?(result_cache_max = 64) ?max_conns
    ?read_timeout_s ?chaos f =
  let scheduler =
    Scheduler.create
      { Scheduler.domains; queue_max; store; task_cache_max = 8; result_cache_max; chaos }
  in
  let socket = fresh_socket () in
  let stop = Atomic.make false in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let on_ready () =
    Mutex.lock ready_m;
    ready := true;
    Condition.broadcast ready_c;
    Mutex.unlock ready_m
  in
  let server =
    Thread.create
      (fun () ->
        Server.run
          { Server.socket_path = socket; scheduler; on_ready; stop; max_conns;
            read_timeout_s; chaos })
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server)
    (fun () ->
      Mutex.lock ready_m;
      while not !ready do
        Condition.wait ready_c ready_m
      done;
      Mutex.unlock ready_m;
      f socket scheduler)

let daemon_stats ~socket =
  match Client.request ~socket Protocol.Stats with
  | Ok (Protocol.Stats_reply s) -> s
  | Ok _ -> Alcotest.fail "unexpected response to stats"
  | Error e -> Alcotest.failf "stats failed: %s" e

let test_server_roundtrip_identity () =
  with_server (fun socket _scheduler ->
      (match Client.request ~socket Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "ping failed");
      (* The daemon's answer must be the direct pipeline's answer. *)
      let req =
        { (Protocol.default_analyze ~bench:"crc") with
          Protocol.mechanism = Pwcet.Mechanism.Shared_reliable_buffer }
      in
      let entry = Option.get (Benchmarks.Registry.find "crc") in
      let program = (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program in
      let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
      let task = Pwcet.Estimator.prepare ~program ~config () in
      let est =
        Pwcet.Estimator.estimate task ~pfail:req.Protocol.pfail
          ~mechanism:req.Protocol.mechanism ()
      in
      match Client.request ~socket (Protocol.Analyze req) with
      | Ok (Protocol.Result r) ->
        check_int "pwcet matches direct pipeline"
          (Pwcet.Estimator.pwcet est ~target:req.Protocol.target)
          r.Protocol.pwcet;
        check_int "wcet_ff matches" (Pwcet.Estimator.fault_free_wcet task) r.Protocol.wcet_ff;
        check_str "rung" "exact" r.Protocol.rung;
        check "leader computed" true r.Protocol.computed
      | Ok other ->
        Alcotest.failf "unexpected analyze response: %s" (Protocol.response_to_string other)
      | Error e -> Alcotest.failf "analyze failed: %s" e)

(* One raw frame out, one response back: the bytes an earlier client
   would have sent, which [Client.request] can no longer produce. *)
let raw_request ~socket text =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Frame.write fd text;
      match Frame.read fd with
      | Ok (Some reply) -> (
        match Protocol.response_of_string reply with
        | Ok resp -> resp
        | Error e -> Alcotest.failf "undecodable response: %s" e)
      | Ok None -> Alcotest.fail "daemon closed without a response"
      | Error e -> Alcotest.failf "framing error: %s" e)

(* A daemon answers the old wire form exactly as the new one. The old
   forms go first, so the first of them is the one computed. *)
let test_server_legacy_impl () =
  with_server (fun socket _scheduler ->
      let pwcet text =
        match raw_request ~socket text with
        | Protocol.Result r -> r.Protocol.pwcet
        | other -> Alcotest.failf "unexpected response: %s" (Protocol.response_to_string other)
      in
      let digest text =
        match raw_request ~socket text with
        | Protocol.Grid_reply r -> r.Protocol.grid_digest
        | other -> Alcotest.failf "unexpected response: %s" (Protocol.response_to_string other)
      in
      let analyze = Protocol.Analyze legacy_analyze and grid = Protocol.Grid legacy_grid in
      let naive = pwcet (with_legacy_impl "naive" analyze) in
      let sliced = pwcet (with_legacy_impl "sliced" analyze) in
      let current = pwcet (Protocol.request_to_string analyze) in
      check_int "analyze, impl naive" current naive;
      check_int "analyze, impl sliced" current sliced;
      let naive = digest (with_legacy_impl "naive" grid) in
      let sliced = digest (with_legacy_impl "sliced" grid) in
      let current = digest (Protocol.request_to_string grid) in
      check_str "grid, impl naive" current naive;
      check_str "grid, impl sliced" current sliced)

let test_server_bad_requests () =
  with_server (fun socket _scheduler ->
      (* Every entry point that names a registry program answers an
         unknown name with a typed error; analyze and grid share one
         text, while sched's campaign validation refuses it at decode,
         like every other invalid campaign field. *)
      let reply ?(prefix = "") req =
        match Client.request ~socket req with
        | Ok (Protocol.Error_reply msg) ->
          check "names the unknown benchmark" true
            (String.starts_with ~prefix:(prefix ^ "unknown benchmark") msg);
          msg
        | _ -> Alcotest.fail "unknown benchmark must yield a typed error"
      in
      let analyze_msg =
        reply (Protocol.Analyze (Protocol.default_analyze ~bench:"no-such-benchmark"))
      in
      let grid_msg =
        reply (Protocol.Grid (Protocol.default_grid ~benchmarks:[ "fibcall"; "no-such-benchmark" ]))
      in
      check_str "analyze and grid share one text" analyze_msg grid_msg;
      ignore
        (reply ~prefix:"bad request: "
           (Protocol.Sched
              { Sched.Campaign.default with Sched.Campaign.benchmarks = [ "no-such-benchmark" ] }));
      (* A malformed frame payload gets a typed error too, on a fresh
         connection the server keeps serving. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Frame.write fd "this is not json";
          match Frame.read fd with
          | Ok (Some payload) -> (
            match Protocol.response_of_string payload with
            | Ok (Protocol.Error_reply _) -> ()
            | _ -> Alcotest.fail "malformed request must yield a typed error")
          | _ -> Alcotest.fail "no response to malformed request");
      match Client.request ~socket Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "server died after a malformed request")

(* K identical concurrent requests: exactly one computation; everyone
   gets the same numbers. The delay keeps the computation in flight
   while the followers arrive. *)
let test_dedup_single_computation () =
  with_server (fun socket _scheduler ->
      let k = 6 in
      let req =
        { (Protocol.default_analyze ~bench:"fibcall") with Protocol.delay_ms = 400 }
      in
      let report = Client.load ~socket ~clients:k ~requests:1 [ req ] in
      check_int "all ok" k report.Client.ok;
      check_int "exactly one computation" 1 report.Client.computed;
      check_int "everyone else shared" (k - 1) report.Client.shared;
      let s = daemon_stats ~socket in
      check_int "stats: one computation" 1 s.Protocol.computations;
      check_int "stats: k-1 deduped" (k - 1) s.Protocol.deduped)

(* Different targets on the same (bench, pfail, mechanism) still share
   one computation: the target is read off the shared distribution. *)
let test_dedup_across_targets () =
  with_server (fun socket _scheduler ->
      let base = { (Protocol.default_analyze ~bench:"fibcall") with Protocol.delay_ms = 400 } in
      let targets = [ 1e-9; 1e-12; 1e-15; 1e-18 ] in
      let results = Array.make (List.length targets) 0 in
      let threads =
        List.mapi
          (fun i target ->
            Thread.create
              (fun () ->
                match
                  Client.request ~socket (Protocol.Analyze { base with Protocol.target })
                with
                | Ok (Protocol.Result r) -> results.(i) <- r.Protocol.pwcet
                | _ -> ())
              ())
          targets
      in
      List.iter Thread.join threads;
      let s = daemon_stats ~socket in
      check_int "one computation across targets" 1 s.Protocol.computations;
      check_int "three joined" 3 s.Protocol.deduped;
      (* Monotone: a rarer exceedance target can only raise the bound. *)
      for i = 0 to Array.length results - 2 do
        check "pwcet monotone in target" true (results.(i) <= results.(i + 1));
        check "pwcet positive" true (results.(i) > 0)
      done)

(* A saturated queue sheds with the typed Overloaded response; nothing
   hangs, and the daemon recovers once drained. *)
let test_overload_shedding () =
  with_server ~domains:1 ~queue_max:1 (fun socket _scheduler ->
      let slow = { (Protocol.default_analyze ~bench:"fibcall") with Protocol.delay_ms = 600 } in
      let distinct i =
        (* Different pfail -> different identity key -> no dedup: each
           request needs its own pool slot. *)
        { slow with Protocol.pfail = 1e-4 +. (1e-6 *. float_of_int i) }
      in
      let n = 5 in
      let responses = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                match Client.request ~socket (Protocol.Analyze (distinct i)) with
                | Ok r -> responses.(i) <- Some r
                | Error _ -> ())
              ())
      in
      List.iter Thread.join threads;
      let shed, served =
        Array.fold_left
          (fun (shed, served) r ->
            match r with
            | Some (Protocol.Overloaded { queue_max; _ }) ->
              check_int "queue_max reported" 1 queue_max;
              (shed + 1, served)
            | Some (Protocol.Result _) -> (shed, served + 1)
            | _ -> (shed, served))
          (0, 0) responses
      in
      check_int "every request answered" n (shed + served);
      check "some requests shed" true (shed >= 1);
      check "some requests served" true (served >= 1);
      let s = daemon_stats ~socket in
      check_int "stats agree on shed count" shed s.Protocol.overloaded;
      (* Drained daemon admits again. *)
      match
        Client.request ~socket (Protocol.Analyze (Protocol.default_analyze ~bench:"fibcall"))
      with
      | Ok (Protocol.Result _) -> ()
      | _ -> Alcotest.fail "daemon did not recover after shedding")

(* The retry satellite: a shed request reissued with jittered
   exponential backoff must eventually succeed once the queue drains —
   the daemon said "later", and the client now knows how to come back
   later instead of giving up (the old behaviour, pinned above by
   [test_overload_shedding]'s plain requests). *)
let test_retry_after_shed () =
  with_server ~domains:1 ~queue_max:1 (fun socket _scheduler ->
      let slow i =
        { (Protocol.default_analyze ~bench:"fibcall") with
          Protocol.delay_ms = 600;
          pfail = 1e-4 +. (1e-6 *. float_of_int i) }
      in
      (* Fill the single domain, then the single queue slot — staggered,
         so the first job is already running when the second queues (two
         simultaneous submissions could race each other into the queue
         and shed one occupant instead of the probe). *)
      let outcomes = Array.make 2 None in
      let occupant i =
        Thread.create
          (fun () -> outcomes.(i) <- Some (Client.request ~socket (Protocol.Analyze (slow i))))
          ()
      in
      let first = occupant 0 in
      Thread.delay 0.2;
      let second = occupant 1 in
      let occupants = [ first; second ] in
      Thread.delay 0.2;
      let third = Protocol.Analyze (slow 2) in
      (* Saturated: the plain client is shed immediately... *)
      (match Client.request ~socket third with
      | Ok (Protocol.Overloaded _) -> ()
      | r ->
        Alcotest.failf "expected a shed, got %s"
          (match r with Ok resp -> Protocol.response_to_string resp | Error e -> e));
      (* ...but the retrying client outlives the congestion. Backoff
         sleeps alone sum past the ~1.2 s drain well within 7 attempts. *)
      (match Client.request_with_retry ~socket ~retries:7 ~base_ms:150 ~seed:9 third with
      | Ok (Protocol.Result _) -> ()
      | Ok other ->
        Alcotest.failf "retry ended in %s" (Protocol.response_to_string other)
      | Error e -> Alcotest.failf "retry transport failure: %s" e);
      List.iter Thread.join occupants;
      Array.iter
        (fun o ->
          match o with
          | Some (Ok (Protocol.Result _)) -> ()
          | _ -> Alcotest.fail "an occupant did not hold its slot")
        outcomes;
      let s = daemon_stats ~socket in
      check "sheds were counted" true (s.Protocol.overloaded >= 1))

(* Bulk sched campaigns: the daemon's digest is the direct library
   run's digest, bit for bit; an identical repeat is served from the
   campaign cache without recomputing. *)
let test_sched_bulk_identity () =
  let sched_req =
    match
      Sched.Campaign.make ~count:4 ~n_tasks:2 ~utilisation:0.6 ~seed:11 ~sets:8 ~ways:2
        ~benchmarks:[ "fibcall"; "bs" ] ()
    with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "direct spec rejected: %s" e
  in
  let direct = Sched.Campaign.run ~jobs:1 sched_req in
  with_server (fun socket _scheduler ->
      let ask () =
        match Client.request ~socket (Protocol.Sched sched_req) with
        | Ok (Protocol.Sched_reply r) -> r
        | Ok other ->
          Alcotest.failf "unexpected sched response: %s" (Protocol.response_to_string other)
        | Error e -> Alcotest.failf "sched request failed: %s" e
      in
      let first = ask () in
      check_int "all sets analysed" 4 first.Protocol.analyzed;
      check "leader computed" true first.Protocol.sched_computed;
      check_str "daemon digest = direct run digest" direct.Sched.Campaign.digest
        first.Protocol.digest;
      check_int "no degraded sets" 0 first.Protocol.degraded;
      let again = ask () in
      check "repeat served from the campaign cache" false again.Protocol.sched_computed;
      check_str "cached digest identical" first.Protocol.digest again.Protocol.digest)

(* Bulk comparison grids: the daemon's matrix digest is the direct
   library run's digest, bit for bit; an identical repeat is served
   from the grid cache without recomputing; hostile axes are rejected
   by the decoder. *)
let test_grid_bulk_identity () =
  let grid_req =
    { (Protocol.default_grid ~benchmarks:[ "fibcall"; "bs" ]) with
      Protocol.g_geometries = [ Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () ];
      g_pfails = [ 1e-5; 1e-4 ] }
  in
  (* The request roundtrips the wire unchanged — the dedup key's input
     is the wire form, so lossy encoding would split identical grids. *)
  (match Protocol.request_of_string (Protocol.request_to_string (Protocol.Grid grid_req)) with
  | Ok req' -> check "grid request roundtrip" true (Protocol.Grid grid_req = req')
  | Error e -> Alcotest.failf "grid request decode: %s" e);
  List.iter
    (fun s ->
      match Protocol.request_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid grid request %s" s)
    [ "{\"op\":\"grid\"}";
      "{\"op\":\"grid\",\"benchmarks\":[]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"mechanisms\":[]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"mechanisms\":[\"bogus\"]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"geometries\":[\"9q\"]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"geometries\":[\"3x4\"]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"pfail_grid\":[]}";
      "{\"op\":\"grid\",\"benchmarks\":[\"fibcall\"],\"pfail_grid\":[2.0]}" ];
  let direct =
    let compile name =
      let entry = Option.get (Benchmarks.Registry.find name) in
      (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program
    in
    Grid.run ~jobs:1
      { Grid.benchmarks = [ ("fibcall", compile "fibcall"); ("bs", compile "bs") ];
        configs = [ Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () ];
        mechanisms = Pwcet.Mechanism.all;
        pfail_grid = [ 1e-5; 1e-4 ];
        targets = [ 1e-15 ];
        engine = `Path;
        exact = false;
        impl = `Sliced }
  in
  with_server (fun socket _scheduler ->
      let ask () =
        match Client.request ~socket (Protocol.Grid grid_req) with
        | Ok (Protocol.Grid_reply r) -> r
        | Ok other ->
          Alcotest.failf "unexpected grid response: %s" (Protocol.response_to_string other)
        | Error e -> Alcotest.failf "grid request failed: %s" e
      in
      let first = ask () in
      check_int "all cells evaluated" (List.length direct) first.Protocol.cells;
      check_int "no failed cells" 0 first.Protocol.failed;
      check "leader computed" true first.Protocol.grid_computed;
      check_str "daemon digest = direct run digest" (Grid.digest direct)
        first.Protocol.grid_digest;
      let again = ask () in
      check "repeat served from the grid cache" false again.Protocol.grid_computed;
      check_str "cached digest identical" first.Protocol.grid_digest
        again.Protocol.grid_digest)

(* Budgeted requests: an expired-scale deadline degrades (never fails),
   bypasses dedup, and leaves no artifact behind. *)
let test_budgeted_request_degrades () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pwcet_test_service_store.%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  let store = Store.Artifact.open_store ~dir () in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  with_server ~store (fun socket _scheduler ->
      (* The budget starts when the request is admitted; [delay_ms]
         holds the worker back past the 1 ms deadline before it starts,
         so the deadline has expired whatever the host's speed (crc's
         whole analysis can finish inside 1 ms on a fast host). *)
      let req =
        { (Protocol.default_analyze ~bench:"crc") with
          Protocol.timeout_ms = Some 1;
          delay_ms = 5 }
      in
      (match Client.request ~socket (Protocol.Analyze req) with
      | Ok (Protocol.Result r) ->
        (* The bound degraded but exists — and was counted as its own
           computation. *)
        check "degraded rung" true (r.Protocol.rung <> "exact");
        check "bound still positive" true (r.Protocol.pwcet > 0)
      | Ok other ->
        Alcotest.failf "unexpected budgeted response: %s" (Protocol.response_to_string other)
      | Error e -> Alcotest.failf "budgeted analyze failed: %s" e);
      let s = daemon_stats ~socket in
      (* The budgeted run bypassed the store in both directions. *)
      match s.Protocol.store with
      | Some (_, _, puts) -> check_int "no artifacts from budgeted run" 0 puts
      | None -> Alcotest.fail "store stats missing")

(* Warm requests skip preparation via the store + task cache: the
   second identical request must not write anything new, and must hit
   the store for nothing either (the in-memory task/estimate path
   serves it); results stay bit-identical. *)
(* The in-memory result cache: a serial repeat of an answered request
   returns the shared estimate without recomputing ([computed = false],
   computation count unchanged); with the layer disabled
   ([result_cache_max = 0]) the repeat recomputes. *)
let test_result_cache () =
  let req = Protocol.default_analyze ~bench:"fibcall" in
  let ask socket =
    match Client.request ~socket (Protocol.Analyze req) with
    | Ok (Protocol.Result r) -> r
    | Ok other -> Alcotest.failf "unexpected response: %s" (Protocol.response_to_string other)
    | Error e -> Alcotest.failf "analyze failed: %s" e
  in
  with_server (fun socket _scheduler ->
      let first = ask socket in
      let second = ask socket in
      check "first computed" true first.Protocol.computed;
      check "repeat served from the result cache" false second.Protocol.computed;
      check_int "identical pwcet" first.Protocol.pwcet second.Protocol.pwcet;
      check_int "one computation" 1 (daemon_stats ~socket).Protocol.computations);
  with_server ~result_cache_max:0 (fun socket _scheduler ->
      let first = ask socket in
      let second = ask socket in
      check "first computed" true first.Protocol.computed;
      check "disabled cache recomputes" true second.Protocol.computed;
      check_int "identical pwcet" first.Protocol.pwcet second.Protocol.pwcet;
      check_int "two computations" 2 (daemon_stats ~socket).Protocol.computations)

let test_warm_requests_consistent () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pwcet_test_service_warm.%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  let store = Store.Artifact.open_store ~dir () in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  with_server ~store (fun socket _scheduler ->
      let req = Protocol.default_analyze ~bench:"cnt" in
      let ask () =
        match Client.request ~socket (Protocol.Analyze req) with
        | Ok (Protocol.Result r) -> r
        | Ok other ->
          Alcotest.failf "unexpected response: %s" (Protocol.response_to_string other)
        | Error e -> Alcotest.failf "analyze failed: %s" e
      in
      let cold = ask () in
      let puts_after_cold =
        match (daemon_stats ~socket).Protocol.store with
        | Some (_, _, p) -> p
        | None -> Alcotest.fail "store stats missing"
      in
      check "cold run populated the store" true (puts_after_cold > 0);
      let warm = ask () in
      check_int "warm pwcet identical" cold.Protocol.pwcet warm.Protocol.pwcet;
      check_int "warm wcet_ff identical" cold.Protocol.wcet_ff warm.Protocol.wcet_ff;
      match (daemon_stats ~socket).Protocol.store with
      | Some (_, _, puts) -> check_int "warm run wrote nothing" puts_after_cold puts
      | None -> Alcotest.fail "store stats missing")

(* --- the per-daemon compiled-program memo ------------------------------------ *)

let compile name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program

(* The identity the daemon builds from a program's digest is exactly
   the one [identity_of] derives, and the digest is still the hex MD5
   of the program's pretty-print, so store keys, request keys and
   journal run keys are unchanged. *)
let test_identity_of_digest () =
  List.iter
    (fun (entry : Benchmarks.Registry.entry) ->
      let name = entry.Benchmarks.Registry.name in
      let program = compile name in
      let digest = Pwcet.Estimator.program_digest program in
      check_str (name ^ " digest")
        (Digest.to_hex (Digest.string (Format.asprintf "%a" Isa.Program.pp program)))
        digest;
      List.iter
        (fun config ->
          Alcotest.(check (list (pair string string)))
            (name ^ " identity")
            (Pwcet.Estimator.identity_of ~program ~config)
            (Pwcet.Estimator.identity_of_digest ~digest ~config))
        [ Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 ();
          Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () ])
    (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

(* The memo holds programs, never identities: one benchmark at two
   geometries keys two computations, each equal to the in-process
   estimate at its own geometry, and the repeat of the first is a hit. *)
let test_geometry_isolation () =
  with_server (fun socket _scheduler ->
      let ask (sets, ways) =
        let req = { (Protocol.default_analyze ~bench:"fibcall") with Protocol.sets; ways } in
        let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
        let task = Pwcet.Estimator.prepare ~program:(compile "fibcall") ~config () in
        let est =
          Pwcet.Estimator.estimate task ~pfail:req.Protocol.pfail
            ~mechanism:req.Protocol.mechanism ()
        in
        match Client.request ~socket (Protocol.Analyze req) with
        | Ok (Protocol.Result r) ->
          let tag = Printf.sprintf "%dx%d " sets ways in
          check_int (tag ^ "pwcet") (Pwcet.Estimator.pwcet est ~target:req.Protocol.target)
            r.Protocol.pwcet;
          check_int (tag ^ "wcet_ff") (Pwcet.Estimator.fault_free_wcet task) r.Protocol.wcet_ff;
          r
        | Ok other ->
          Alcotest.failf "unexpected analyze response: %s" (Protocol.response_to_string other)
        | Error e -> Alcotest.failf "analyze failed: %s" e
      in
      let before = (daemon_stats ~socket).Protocol.computations in
      let small = ask (8, 2) in
      let large = ask (16, 4) in
      let again = ask (8, 2) in
      check "first geometry computed" true small.Protocol.computed;
      check "second geometry computed" true large.Protocol.computed;
      check "repeat is a hit" false again.Protocol.computed;
      check_int "two computations" 2 ((daemon_stats ~socket).Protocol.computations - before))

(* --- chaos: shedding, healing, retries -------------------------------------- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Admission cap: with --max-conns 1 and the one slot held by an idle
   connection, every further connection must be answered with the
   typed Overloaded response at accept — counted, never queued, never
   a hang. *)
let test_max_conns_shedding () =
  with_server ~max_conns:1 (fun socket scheduler ->
      let holder = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close holder with Unix.Unix_error _ -> ())
        (fun () ->
          (* Wait until the holder is actually being served. *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            (Scheduler.stats scheduler).Protocol.rejected_conns = 0
            && Unix.gettimeofday () < deadline
            &&
            (match Client.request ~socket Protocol.Ping with
            | Ok (Protocol.Overloaded _) -> false
            | Ok _ | Error _ -> true)
          do
            Unix.sleepf 0.01
          done;
          (match Client.request ~socket Protocol.Ping with
          | Ok (Protocol.Overloaded _) -> ()
          | Ok r ->
            Alcotest.failf "expected typed shed, got %s" (Protocol.response_to_string r)
          | Error e -> Alcotest.failf "expected typed shed, got transport error: %s" e);
          check "rejections counted" true
            ((Scheduler.stats scheduler).Protocol.rejected_conns >= 1)))

(* Slow-loris shedding: a connection that sends 3 bytes of the 8-byte
   length prefix and stalls must be answered with a typed Overloaded
   within the read deadline and counted as a slow client. *)
let test_slow_client_shed () =
  with_server ~read_timeout_s:0.2 (fun socket scheduler ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.write fd (Bytes.of_string "\x03\x00\x00") 0 3);
          let deadline = Robust.Budget.now () +. 5.0 in
          (match Frame.read_within ~deadline fd with
          | Ok (Some payload) -> (
            match Protocol.response_of_string payload with
            | Ok (Protocol.Overloaded _) -> ()
            | Ok r ->
              Alcotest.failf "expected overloaded, got %s" (Protocol.response_to_string r)
            | Error e -> Alcotest.failf "undecodable shed response: %s" e)
          | Ok None -> Alcotest.fail "connection closed without the typed response"
          | Error Frame.Timeout -> Alcotest.fail "daemon never shed the stalled client"
          | Error (Frame.Malformed e) -> Alcotest.failf "malformed shed response: %s" e);
          check_int "slow client counted" 1
            (Scheduler.stats scheduler).Protocol.slow_clients);
      (* A healthy client on a fresh connection is unaffected. *)
      match Client.request ~socket Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "daemon unhealthy after shedding the slow client")

(* Client-side hedging: a transient connect-phase fault is retried on
   the seeded backoff schedule and the request still succeeds; with no
   retry budget the same schedule surfaces the failure. A
   non-idempotent request that dies in the receive phase must fail
   after exactly one attempt, whatever the retry budget. *)
let test_client_transient_retry () =
  with_server (fun socket _scheduler ->
      let refuse_once =
        { Chaos.Plan.name = "refuse";
          rules = [ Chaos.Plan.rule Chaos.Site.client_connect 0.5
                      (Chaos.Plan.Io_error Unix.ECONNREFUSED) ] }
      in
      let seed =
        let rec go seed =
          if seed > 10_000 then Alcotest.fail "no seed: fail then pass"
          else
            let inj = Chaos.Injector.create ~seed refuse_once in
            let d0 = Chaos.Injector.decide inj ~site:Chaos.Site.client_connect in
            let d1 = Chaos.Injector.decide inj ~site:Chaos.Site.client_connect in
            if d0 <> Chaos.Injector.Pass && d1 = Chaos.Injector.Pass then seed
            else go (seed + 1)
        in
        go 0
      in
      let chaos = Chaos.Injector.create ~seed refuse_once in
      (match
         Client.request_with_retry ~socket ~retries:1 ~base_ms:1 ~chaos Protocol.Ping
       with
      | Ok Protocol.Pong -> ()
      | Ok r -> Alcotest.failf "unexpected reply: %s" (Protocol.response_to_string r)
      | Error e -> Alcotest.failf "retry did not heal the refused connect: %s" e);
      let chaos = Chaos.Injector.create ~seed refuse_once in
      (match Client.request_with_retry ~socket ~retries:0 ~base_ms:1 ~chaos Protocol.Ping with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "no-retry request should have surfaced the refusal");
      (* Receive-phase death, non-idempotent: exactly one attempt. *)
      let reset_recv =
        { Chaos.Plan.name = "reset";
          rules = [ Chaos.Plan.rule Chaos.Site.client_recv 1.0
                      (Chaos.Plan.Io_error Unix.ECONNRESET) ] }
      in
      let chaos = Chaos.Injector.create ~seed:0 reset_recv in
      (match
         Client.request_with_retry ~socket ~retries:5 ~base_ms:1 ~idempotent:false ~chaos
           Protocol.Ping
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "mid-reply death must fail a non-idempotent request");
      check_int "non-idempotent: exactly one attempt" 1
        (Chaos.Injector.total_injected chaos);
      (* Same fault, idempotent: the whole retry budget is spent. *)
      let chaos = Chaos.Injector.create ~seed:0 reset_recv in
      (match
         Client.request_with_retry ~socket ~retries:2 ~base_ms:1 ~idempotent:true ~chaos
           Protocol.Ping
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "every receive faults: the request cannot succeed");
      check_int "idempotent: every attempt made" 3 (Chaos.Injector.total_injected chaos))

(* Worker-domain deaths inside the daemon: jobs are requeued, domains
   respawned, and every reply stays bit-identical to an undisturbed
   daemon's. *)
let test_worker_crash_healing () =
  let requests =
    List.init 8 (fun i ->
        { (Protocol.default_analyze ~bench:"fibcall") with
          Protocol.pfail = 1e-6 *. float_of_int (i + 1); sets = 8; ways = 2 })
  in
  let ask socket req =
    match Client.request ~socket (Protocol.Analyze req) with
    | Ok (Protocol.Result r) -> (r.Protocol.wcet_ff, r.Protocol.pwcet, r.Protocol.pbf)
    | Ok r -> Alcotest.failf "unexpected reply: %s" (Protocol.response_to_string r)
    | Error e -> Alcotest.failf "analyze failed: %s" e
  in
  let reference = with_server (fun socket _ -> List.map (ask socket) requests) in
  (* A seed whose schedule kills at least twice early, so the healing
     path provably runs. *)
  let seed =
    let rec go seed =
      if seed > 10_000 then Alcotest.fail "no crashing seed"
      else
        let inj = Chaos.Injector.create ~seed Chaos.Plan.workers_plan in
        let dies = ref 0 in
        for _ = 1 to 16 do
          match Chaos.Injector.decide inj ~site:Chaos.Site.workers_job with
          | Chaos.Injector.Die -> incr dies
          | _ -> ()
        done;
        if !dies >= 2 then seed else go (seed + 1)
    in
    go 0
  in
  let chaos = Chaos.Injector.create ~seed Chaos.Plan.workers_plan in
  with_server ~chaos (fun socket scheduler ->
      let chaotic = List.map (ask socket) requests in
      check "replies bit-identical under worker crashes" true (chaotic = reference);
      let stats = Scheduler.stats scheduler in
      check "workers crashed" true (stats.Protocol.crashed_workers >= 2);
      check "workers respawned" true
        (stats.Protocol.respawned_workers >= stats.Protocol.crashed_workers))

let () =
  Alcotest.run "service"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip
        ; Alcotest.test_case "malformed rejected" `Quick test_json_malformed
        ] )
    ; ( "frame",
        [ Alcotest.test_case "roundtrip + EOF" `Quick test_frame_roundtrip
        ; Alcotest.test_case "hostile lengths" `Quick test_frame_bad_length
        ] )
    ; ( "protocol",
        [ Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip
        ; Alcotest.test_case "sched roundtrip" `Quick test_protocol_sched_roundtrip
        ; Alcotest.test_case "validation" `Quick test_protocol_validation
        ; Alcotest.test_case "legacy impl field ignored" `Quick test_protocol_legacy_impl
        ; Alcotest.test_case "wire bytes pinned" `Quick test_protocol_wire_bytes
        ] )
    ; ( "daemon",
        [ Alcotest.test_case "round-trip identity" `Quick test_server_roundtrip_identity
        ; Alcotest.test_case "typed errors" `Quick test_server_bad_requests
        ; Alcotest.test_case "dedup: K identical -> 1 computation" `Quick
            test_dedup_single_computation
        ; Alcotest.test_case "dedup across targets" `Quick test_dedup_across_targets
        ; Alcotest.test_case "overload shedding" `Quick test_overload_shedding
        ; Alcotest.test_case "retry after shed" `Quick test_retry_after_shed
        ; Alcotest.test_case "sched bulk identity" `Quick test_sched_bulk_identity
        ; Alcotest.test_case "grid bulk identity" `Quick test_grid_bulk_identity
        ; Alcotest.test_case "budgeted request degrades" `Quick test_budgeted_request_degrades
        ; Alcotest.test_case "result cache" `Quick test_result_cache
        ; Alcotest.test_case "warm requests consistent" `Quick test_warm_requests_consistent
        ; Alcotest.test_case "identity_of_digest = identity_of" `Quick test_identity_of_digest
        ; Alcotest.test_case "geometry isolation" `Quick test_geometry_isolation
        ; Alcotest.test_case "legacy impl answered" `Quick test_server_legacy_impl
        ] )
    ; ( "chaos",
        [ Alcotest.test_case "max-conns typed shedding" `Quick test_max_conns_shedding
        ; Alcotest.test_case "slow-loris client shed" `Quick test_slow_client_shed
        ; Alcotest.test_case "client transient retry" `Quick test_client_transient_retry
        ; Alcotest.test_case "worker crash healing" `Quick test_worker_crash_healing
        ] )
    ]
