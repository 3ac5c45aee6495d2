(* Closed-loop benchmark of the pWCET pipeline: one workload per run,
   fixed seeded work, one computing domain, at most one request in
   flight. perfbench/README.md says why each workload exists and which
   layer should move which end-to-end metric. *)

let now = Robust.Budget.now

(* --- the request universe ------------------------------------------------
   Seed-independent: a seed only orders it (and draws the daemon's Zipf
   sequence from it), so every key any seed can produce has a pinned
   expected output in expected.tsv. *)

let geometry sets = Cache.Config.make ~sets ~ways:4 ~line_bytes:16 ()
let paper = geometry 16
let grid_geometries = [ paper; geometry 32 ]

let geometry_tag (c : Cache.Config.t) =
  Printf.sprintf "%dx%dx%d" c.Cache.Config.sets c.Cache.Config.ways c.Cache.Config.line_bytes

let mechanisms = Pwcet.Mechanism.all
let mech_tag = Pwcet.Mechanism.short_name
let analyze_pfail = 1e-4
let target = 1e-15
let grid_pfails = [ 1e-6; 1e-5; 1e-4; 1e-3 ]
let grid_targets = [ 1e-15; 1e-12; 1e-9 ]
let daemon_pfails = [ 1e-5; 1e-4; 1e-3 ]
let names = Array.of_list (List.map (fun e -> e.Benchmarks.Registry.name) Benchmarks.Registry.all)
let panels = Array.concat (List.map (fun c -> Array.map (fun b -> (b, c)) names) grid_geometries)

let daemon_keys =
  Array.concat
    (List.concat_map
       (fun m -> List.map (fun p -> Array.map (fun b -> (b, m, p)) names) daemon_pfails)
       mechanisms)

(* Work per run is fixed by --seconds through these nominal rates (the
   speed at the commit that introduced them), not by a clock: a faster
   program finishes the same work sooner. *)
let analyze_passes seconds = max 1 (int_of_float (Float.round (seconds *. 1.5)))
let grid_passes seconds = max 1 (int_of_float (seconds /. 6.0))
let daemon_requests seconds = max 600 (int_of_float (seconds *. 550.0))

(* --- small utilities ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a = Service.Client.percentile (sorted a) 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* VmHWM of a live process, in MB. *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)))
  in
  float_of_string (List.nth (words line) 1) /. 1024.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rng ~seed salt = Random.State.make [| seed; salt |]

let permutation st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [passes] whole passes over [items], each in a fresh seeded order: every
   run does the same multiset of work, so its latency order statistics
   are comparable across seeds. *)
let in_passes ~seed ~salt ~passes items =
  let st = rng ~seed salt in
  Array.concat (List.init passes (fun _ -> permutation st items))

(* [n] requests whose key counts follow Zipf(s=1) exactly, in a seeded
   order. The popularity order is a fixed permutation and the counts are
   quotas, not draws: a hit's latency grows with the size of the program
   it names, so a per-seed popularity order made the throughput of five
   seeds range over 425-657 req/s, and independent draws still moved the
   median by 7%. The seed orders the requests, which decides which
   request of each key is the cold one. *)
let zipf_sequence ~seed ~n keys =
  let keys = permutation (rng ~seed:0 3) keys in
  let k = Array.length keys in
  let h = ref 0.0 in
  for r = 1 to k do
    h := !h +. (1.0 /. float_of_int r)
  done;
  let quota =
    Array.init k (fun r -> int_of_float (float_of_int n /. (float_of_int (r + 1) *. !h)))
  in
  (* the remainder goes to the most popular keys, one each *)
  let rest = n - Array.fold_left ( + ) 0 quota in
  for r = 0 to rest - 1 do
    quota.(r mod k) <- quota.(r mod k) + 1
  done;
  let requests = Array.concat (Array.to_list (Array.mapi (fun r key -> Array.make quota.(r) key) keys)) in
  permutation (rng ~seed 3) requests

(* --- host-noise record: context for reading a run, not a metric --------- *)

let steal_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | cpu :: _ -> (
    match words cpu with "cpu" :: fields -> int_of_string (List.nth fields 7) | _ -> 0)
  | [] -> 0

let loadavg () =
  String.concat " " (List.filteri (fun i _ -> i < 3) (words (read_file "/proc/loadavg")))
let timed_s = ref 0.0
let steal = ref 0
let loops = ref []

(* --- expected outputs ----------------------------------------------------- *)

let key_id (bench, mech, pfail) = Printf.sprintf "key %s %s %g" bench (mech_tag mech) pfail
let panel_id (bench, config) = Printf.sprintf "panel %s %s" bench (geometry_tag config)
let compile bench =
  match Benchmarks.Registry.find bench with
  | Some e -> (Minic.Compile.compile e.Benchmarks.Registry.program).Minic.Compile.program
  | None -> failwith ("unknown benchmark " ^ bench)

let grid_spec bench program config =
  { Grid.benchmarks = [ (bench, program) ]; configs = [ config ]; mechanisms;
    pfail_grid = grid_pfails; targets = grid_targets; engine = `Path; exact = false;
    impl = `Sliced }

(* The pins come from the library's single-request path
   ([Estimator.estimate] per key, [Grid.run] per panel), so each workload
   is also checked against a path other than the one it times. *)
let write_pins file =
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc
        "# expected outputs of every request key; regenerate: pwbench.exe --pin FILE\n";
      Array.iter
        (fun bench ->
          let program = compile bench in
          let task = Pwcet.Estimator.prepare ~program ~config:paper () in
          List.iter
            (fun mech ->
              List.iter
                (fun pfail ->
                  let est = Pwcet.Estimator.estimate task ~pfail ~mechanism:mech () in
                  Printf.fprintf oc "%s\t%d %d\n" (key_id (bench, mech, pfail))
                    (Pwcet.Estimator.fault_free_wcet task)
                    (Pwcet.Estimator.pwcet est ~target))
                daemon_pfails)
            mechanisms;
          List.iter
            (fun config ->
              Printf.fprintf oc "%s\t%s\n" (panel_id (bench, config))
                (Grid.digest (Grid.run ~jobs:1 (grid_spec bench program config))))
            grid_geometries)
        names)

let load_pins file =
  let pins = Hashtbl.create 512 in
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ id; value ] -> Hashtbl.replace pins id value
         | _ -> ());
  pins

(* Every output goes through one of these two checks and into the
   outputs digest, in request order. *)
let outputs = Buffer.create 4096

let check_key pins key ~wcet_ff ~pwcet =
  let value = Printf.sprintf "%d %d" wcet_ff pwcet in
  Printf.bprintf outputs "%s\t%s\n" (key_id key) value;
  pwcet >= wcet_ff && Hashtbl.find_opt pins (key_id key) = Some value

let check_panel pins panel outcomes =
  let digest = Grid.digest outcomes in
  Printf.bprintf outputs "%s\t%s\n" (panel_id panel) digest;
  List.for_all
    (fun (_, outcome) ->
      match outcome with
      | Ok c -> List.for_all (fun (_, p) -> p >= c.Grid.wcet_ff) c.Grid.pwcets
      | Error _ -> false)
    outcomes
  && Hashtbl.find_opt pins (panel_id panel) = Some digest

(* --- the closed loop ------------------------------------------------------ *)

type loop = { lat : float array; wall : float; failed : int }

(* Runs every function on each item in turn, timing each call. A loop's
   wall is the sum of its request latencies; [between i], run before item
   [i], is outside them. *)
let timed_all ?(between = ignore) items fs =
  let n = Array.length items in
  let runs = List.map (fun f -> (f, Array.make n 0.0, ref 0)) fs in
  let steal0 = steal_ticks () in
  let t0 = now () in
  Array.iteri
    (fun i item ->
      between i;
      List.iter
        (fun (f, lat, failed) ->
          let s = now () in
          let ok =
            try f i item
            with e ->
              Printf.eprintf "request %d raised %s\n%!" i (Printexc.to_string e);
              false
          in
          lat.(i) <- now () -. s;
          if not ok then incr failed)
        runs)
    items;
  timed_s := !timed_s +. (now () -. t0);
  steal := !steal + (steal_ticks () - steal0);
  List.map
    (fun (_, lat, failed) ->
      loops := lat :: !loops;
      { lat; wall = Array.fold_left ( +. ) 0.0 lat; failed = !failed })
    runs

let timed ?between items f = List.hd (timed_all ?between items [ f ])

(* The untraced and the traced version of the same work, interleaved
   request by request so that both see the same machine: their
   difference is the tracing overhead, not the host's drift. *)
let timed_pair items untraced traced =
  match timed_all items [ untraced; traced ] with
  | [ u; t ] -> (u, t)
  | _ -> assert false

(* --- tracing: spans recorded from outside, around each layer call ------- *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  mutable stop : float;
}

let spans = ref []
let next_id = ref 0
let parent = ref (-1)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let count name n =
  Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))
let cur_req = ref (-1)

let span name f =
  let s = { id = !next_id; name; parent = !parent; req = !cur_req; start = now (); stop = 0.0 } in
  incr next_id;
  spans := s :: !spans;
  parent := s.id;
  let finish () =
    s.stop <- now ();
    parent := s.parent
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let request i f =
  cur_req := i;
  span "request" f

(* A traced loop's spans, self times and counts, taken as one section. *)
type section = {
  title : string;
  s_spans : span list;
  self : (string * (int * float)) list;  (* layer -> (calls, self seconds) *)
  s_counts : (string * int) list;
  s_wall : float;
  s_requests : int;
}

let section title loop =
  let all = List.rev !spans in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    all;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.name <> "request" then begin
        let t = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
        let c, acc = Option.value ~default:(0, 0.0) (Hashtbl.find_opt self s.name) in
        Hashtbl.replace self s.name (c + 1, acc +. t)
      end)
    all;
  let sec =
    { title; s_spans = all;
      self = List.sort compare (List.of_seq (Hashtbl.to_seq self));
      s_counts = List.sort compare (List.of_seq (Hashtbl.to_seq counts));
      s_wall = loop.wall; s_requests = Array.length loop.lat }
  in
  spans := [];
  Hashtbl.reset counts;
  sec

let self_total sec = List.fold_left (fun acc (_, (_, t)) -> acc +. t) 0.0 sec.self

(* Mean self time per call of one layer, in ms. *)
let per_call_ms sec name =
  match List.assoc_opt name sec.self with
  | Some (calls, t) -> 1000.0 *. t /. float_of_int calls
  | None -> 0.0

let unaccounted_ms sec = 1000.0 *. (sec.s_wall -. self_total sec)

let print_section sec =
  Printf.printf "-- %s: %d requests, traced wall %.1f ms\n" sec.title sec.s_requests
    (1000.0 *. sec.s_wall);
  Printf.printf "   %-22s %7s %12s %12s %8s\n" "layer" "calls" "self ms" "ms/request" "share";
  let row name calls t =
    Printf.printf "   %-22s %7s %12.2f %12.4f %7.2f%%\n" name calls (1000.0 *. t)
      (1000.0 *. t /. float_of_int (max 1 sec.s_requests))
      (100.0 *. t /. sec.s_wall)
  in
  List.iter (fun (name, (calls, t)) -> row name (string_of_int calls) t) sec.self;
  row "trace.unaccounted" "" (sec.s_wall -. self_total sec);
  List.iter (fun (name, n) -> Printf.printf "   count %-16s %d\n" name n) sec.s_counts

let write_spans oc sec =
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%s\t%.9f\t%.9f\t%d\t%d\t%d\n" sec.title s.name s.start s.stop s.id
        s.parent s.req)
    sec.s_spans;
  List.iter (fun (name, n) -> Printf.fprintf oc "%s\tcount\t%s\t%d\n" sec.title name n) sec.s_counts

(* --- the analysis pipeline, stage by stage --------------------------------
   The same calls [Estimator.prepare]/[fmm_grid]/[estimate_of_fmm] make,
   each under its layer's span; the traced outputs are checked against
   the untraced ones. *)

let traced_compile bench = span "minic.compile" (fun () -> compile bench)

type stages = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  ctx : Cache_analysis.Context.t;
  chmc : Cache_analysis.Chmc.t;
  wcet_ff : int;
}

let traced_prepare program config =
  let graph, loops =
    span "cfg.build" (fun () ->
        let g = Cfg.Graph.build program in
        (g, Cfg.Loop.detect g))
  in
  let ctx, chmc =
    span "cache_analysis.chmc" (fun () ->
        let ctx = Cache_analysis.Context.make ~graph ~loops ~config in
        (ctx, Cache_analysis.Chmc.analyze ~ctx ~graph ~loops ~config ()))
  in
  let wcet_ff =
    span "ipet.wcet" (fun () ->
        match Ipet.Wcet.compute_result ~graph ~loops ~chmc ~config () with
        | Ok (r, _) -> r.Ipet.Wcet.wcet
        | Error e -> Robust.Pwcet_error.raise_error e)
  in
  count "cfg.nodes" (Cfg.Graph.node_count graph);
  count "cache_analysis.refs"
    (Cache_analysis.Chmc.fold_refs (fun ~node:_ ~offset:_ _ n -> n + 1) chmc 0);
  { graph; loops; ctx; chmc; wcet_ff }

let traced_fmms st config mechanisms =
  let fmms =
    span "core.fmm" (fun () ->
        Pwcet.Fmm.compute_multi ~graph:st.graph ~loops:st.loops ~config ~mechanisms ~ctx:st.ctx
          ~baseline:st.chmc ())
  in
  List.iter
    (fun (_, fmm) ->
      count "core.fmm_cells"
        (Array.fold_left
           (fun acc row -> Array.fold_left (fun acc m -> if m > 0 then acc + 1 else acc) acc row)
           0 (Pwcet.Fmm.table fmm)))
    fmms;
  fmms

let traced_pwcets config fmm ~pfail st targets =
  let pbf = Fault.Model.pbf_of_config ~pfail config in
  let dist = span "core.penalty" (fun () -> Pwcet.Penalty.total_distribution ~fmm ~pbf ()) in
  count "prob.support_points" (Prob.Dist.size dist);
  List.map
    (fun target ->
      (target, st.wcet_ff + span "prob.quantile" (fun () -> Prob.Dist.quantile dist ~target)))
    targets

(* --- analyze-cold --------------------------------------------------------- *)

(* [pwcet_tool analyze]'s path for one benchmark at paper geometry. *)
let analyze_request pins programs _ bench =
  let program = Hashtbl.find programs bench in
  let task = Pwcet.Estimator.prepare ~program ~config:paper () in
  List.for_all
    (fun (mech, fmm) ->
      let est = Pwcet.Estimator.estimate_of_fmm task ~fmm ~pfail:analyze_pfail () in
      check_key pins (bench, mech, analyze_pfail) ~wcet_ff:(Pwcet.Estimator.fault_free_wcet task)
        ~pwcet:(Pwcet.Estimator.pwcet est ~target))
    (Pwcet.Estimator.fmm_grid task ~mechanisms ())

let traced_analyze_request pins programs i bench =
  request i (fun () ->
      let st = traced_prepare (Hashtbl.find programs bench) paper in
      List.for_all
        (fun (mech, fmm) ->
          match traced_pwcets paper fmm ~pfail:analyze_pfail st [ target ] with
          | [ (_, pwcet) ] -> check_key pins (bench, mech, analyze_pfail) ~wcet_ff:st.wcet_ff ~pwcet
          | _ -> false)
        (traced_fmms st paper mechanisms))

(* --- grid-pfail ----------------------------------------------------------- *)

let grid_request pins programs cells _ (bench, config) =
  let outcomes = Grid.run ~jobs:1 (grid_spec bench (Hashtbl.find programs bench) config) in
  Hashtbl.replace cells (bench, geometry_tag config) outcomes;
  check_panel pins (bench, config) outcomes

(* The panel's stages one by one; every cell must equal [Grid.run]'s. *)
let traced_grid_request programs cells i (bench, config) =
  request i (fun () ->
      let st = traced_prepare (Hashtbl.find programs bench) config in
      let expected = Hashtbl.find cells (bench, geometry_tag config) in
      List.for_all
        (fun (mech, fmm) ->
          List.for_all
            (fun pfail ->
              let pwcets = traced_pwcets config fmm ~pfail st grid_targets in
              List.exists
                (fun ((p : Grid.point), outcome) ->
                  Pwcet.Mechanism.equal p.mechanism mech && p.pfail = pfail
                  &&
                  match outcome with
                  | Ok c -> c.Grid.wcet_ff = st.wcet_ff && c.Grid.pwcets = pwcets
                  | Error _ -> false)
                expected)
            grid_pfails)
        (traced_fmms st config mechanisms))

(* --- daemon-zipf ---------------------------------------------------------- *)

type daemon = { pid : int; socket : string; store : string }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  rm_rf d.socket;
  rm_rf d.store

let spawn_daemon ~tool ~dir i =
  let socket = Filename.concat dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) i) in
  let store = Filename.concat dir (Printf.sprintf "store%d-%d" (Unix.getpid ()) i) in
  rm_rf socket;
  rm_rf store;
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process tool
      [| tool; "serve"; "--domains"; "1"; "-s"; socket; "--cache-dir"; store |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket; store } in
  let rec wait_pong () =
    match Service.Client.request ~socket Service.Protocol.Ping with
    | Ok Service.Protocol.Pong -> now () -. t0
    | _ when now () -. t0 > 60.0 -> failwith "daemon did not answer ping within 60 s"
    | _ ->
      Unix.sleepf 0.0005;
      wait_pong ()
  in
  match wait_pong () with
  | t -> (t, d)
  | exception e ->
    stop_daemon d;
    raise e

let with_daemon ~tool ~dir i f =
  let _, d = spawn_daemon ~tool ~dir i in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  fd

let analyze_msg (bench, mechanism, pfail) =
  Service.Protocol.Analyze
    { (Service.Protocol.default_analyze ~bench) with
      pfail; target; mechanism; sets = paper.Cache.Config.sets; ways = paper.Cache.Config.ways;
      line = paper.Cache.Config.line_bytes }

let read_reply fd =
  match Service.Frame.read fd with
  | Ok (Some payload) -> payload
  | Ok None -> failwith "daemon closed the connection"
  | Error msg -> failwith msg

(* A reply is correct when it is a pinned, exact result; [cold] collects
   the indices of the requests the daemon computed. *)
let check_reply pins cold i key = function
  | Ok (Service.Protocol.Result r)
    when check_key pins key ~wcet_ff:r.wcet_ff ~pwcet:r.pwcet && r.rung = "exact" ->
    if r.computed then Hashtbl.replace cold i ();
    true
  | _ -> false

let daemon_request pins fd cold i key =
  Service.Frame.write fd (Service.Protocol.request_to_string (analyze_msg key));
  check_reply pins cold i key (Service.Protocol.response_of_string (read_reply fd))

let traced_daemon_request pins fd cold i key =
  request i (fun () ->
      let msg =
        span "service.encode" (fun () -> Service.Protocol.request_to_string (analyze_msg key))
      in
      let reply =
        span "service.rtt" (fun () ->
            Service.Frame.write fd msg;
            read_reply fd)
      in
      check_reply pins cold i key
        (span "service.decode" (fun () -> Service.Protocol.response_of_string reply)))

type daemon_stats = { stats : Service.Protocol.stats_payload; rss_mb : float }

(* A fresh daemon and one client connection to it, both closed after [f]. *)
let with_connection ~tool ~dir i f =
  with_daemon ~tool ~dir i (fun d ->
      let fd = connect d in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f d fd))

let stats_of d =
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  match Service.Client.request ~socket:d.socket Service.Protocol.Stats with
  | Ok (Service.Protocol.Stats_reply stats) -> { stats; rss_mb }
  | _ -> failwith "daemon stats request failed"

(* The daemon must have computed exactly the requests that said so. *)
let stats_agree cold s = s.stats.computations = Hashtbl.length cold && s.stats.errors = 0

let daemon_counts s =
  let hits, misses, puts = Option.value ~default:(0, 0, 0) s.stats.store in
  [ ("service.computations", float_of_int s.stats.computations, "count");
    ("store.hits", float_of_int hits, "count"); ("store.misses", float_of_int misses, "count");
    ("store.puts", float_of_int puts, "count");
    ("store.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio") ]

(* In-process replay of the daemon's cold requests, in order, with the
   reuse the daemon has (one prepared task per benchmark, one FMM per
   benchmark and mechanism): the in-process time of each cold key. *)
let reference_replay pins keys =
  let tasks = Hashtbl.create 32 and fmms = Hashtbl.create 128 in
  timed keys (fun i ((bench, mech, pfail) as key) ->
      request i (fun () ->
          let program = traced_compile bench in
          let st =
            match Hashtbl.find_opt tasks bench with
            | Some s -> s
            | None ->
              let s = traced_prepare program paper in
              Hashtbl.replace tasks bench s;
              s
          in
          let fmm =
            match Hashtbl.find_opt fmms (bench, mech) with
            | Some f -> f
            | None ->
              let f = List.assoc mech (traced_fmms st paper [ mech ]) in
              Hashtbl.replace fmms (bench, mech) f;
              f
          in
          match traced_pwcets paper fmm ~pfail st [ target ] with
          | [ (_, pwcet) ] -> check_key pins key ~wcet_ff:st.wcet_ff ~pwcet
          | _ -> false))

(* --- runs ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  ok : bool;  (* every whole-run check besides the per-request ones *)
  metrics : (string * float * string) list;
  sections : section list;
}

(* --- host speed ------------------------------------------------------------
   The host's speed drifts by a quarter and more, in spells of seconds to
   minutes, with the load of its other tenants (steal time, shared
   cores). Ten seeds of unchanged code run back to back spread by 0.2 to
   0.5 (IQR / median) in raw wall time. Every timing a run reports is
   therefore scaled to one reference speed. [kernel] is fixed work that
   calls nothing of the repository but its clock and allocates nothing
   between its two clock readings, so no GC work owed by the program's
   heap lands in it: a random walk over a 512 KB permutation (dependent
   loads, as in the analysis's pointer chasing) and a float convolution
   (as in [Prob.Dist]), both small enough to stay in cache, so the
   program's own footprint does not change what the kernel measures. It
   is timed at even steps through the timed phase, and every timing is
   multiplied by [reference_ms] over its mean time. A change to the
   program moves the scaled timings as it moves the raw ones, while the
   host's drift slows the kernel with the requests and cancels out. *)

let reference_ms = 12.5
let kernel_reps = 100
let kernel_ms = ref Float.nan

(* A single cycle through 0 .. 2^16 - 1 in a fixed random order. *)
let walk =
  let order = permutation (rng ~seed:0 4) (Array.init (1 lsl 16) Fun.id) in
  let next = Array.make (Array.length order) 0 in
  Array.iteri (fun k x -> next.(x) <- order.((k + 1) mod Array.length order)) order;
  next

let conv_a = Array.init 1060 (fun i -> float_of_int (i land 63) /. 64.0)
let conv_c = Array.make 2120 0.0

let kernel () =
  let p = ref 0 in
  (* one untimed pass brings the walk back into cache *)
  for _ = 1 to Array.length walk do
    p := walk.(!p)
  done;
  let t0 = now () in
  for _ = 1 to 20 * Array.length walk do
    p := walk.(!p)
  done;
  for i = 0 to Array.length conv_a - 1 do
    for j = 0 to Array.length conv_a - 1 do
      conv_c.(i + j) <- conv_c.(i + j) +. (conv_a.(i) *. conv_a.(j))
    done
  done;
  ignore (Sys.opaque_identity !p);
  now () -. t0

(* [reps] calls of [sample], made before requests at even steps through a
   loop of [n] requests and outside every request's latency: spread
   out, they see the same mix of fast and slow spells as the requests. *)
let spread ~reps n sample =
  let every = max 1 (n / reps) and times = ref [] in
  let between i =
    if i mod every = 0 && List.length !times < reps then times := sample () :: !times
  in
  (between, fun () -> Array.of_list !times)

(* Set-up is sampled [setup_reps] times and its median reported. *)
let setup_reps = 50

(* The timed phase of an end-to-end run: the requests, with set-up and
   the kernel sampled through them. *)
let timed_phase items ~setup request =
  let n = Array.length items in
  let setup_between, setup_times = spread ~reps:setup_reps n setup in
  let kernel_between, kernel_times = spread ~reps:kernel_reps n kernel in
  let between i =
    setup_between i;
    kernel_between i
  in
  let loop = timed ~between items request in
  kernel_ms := 1000.0 *. mean (kernel_times ());
  (loop, median (setup_times ()))

(* What an in-process user pays once: compiling the request set. Each
   sample recompiles every program into [programs], which the requests
   read. *)
let compile_into programs () =
  let t0 = now () in
  Array.iter (fun b -> Hashtbl.replace programs b (compile b)) names;
  now () -. t0

(* The p-th quantile of [sorted] by the Harrell-Davis estimator: the mean
   of all order statistics, the i-th weighted by the mass a
   Beta((n+1)p, (n+1)(1-p)) law puts on ((i-1)/n, i/n], integrated by the
   midpoint rule. Few samples near the quantile carry real weight, so a
   regression in the requests there shows, but no single sample decides
   it. A single order statistic sits on cliffs where requests come in
   few distinct kinds: grid-pfail's p90 falls exactly between its 45
   fastest panels and the next, twice as slow, so any one rank there is
   the slowest or the fastest of a few samples, and ten seeds spread by
   0.12 to 0.26. Over the same runs this estimator spread by 0.10 to
   0.11, and elsewhere as the nearest rank did. *)
let quantile sorted p =
  let n = Array.length sorted and k = 16 in
  let a = p *. float_of_int (n + 1) and b = (1.0 -. p) *. float_of_int (n + 1) in
  let log_density j =
    let t = (float_of_int j +. 0.5) /. float_of_int (n * k) in
    ((a -. 1.0) *. log t) +. ((b -. 1.0) *. Float.log1p (-.t))
  in
  let logs = Array.init (n * k) log_density in
  let top = Array.fold_left Float.max Float.neg_infinity logs in
  let sum = ref 0.0 and mass = ref 0.0 in
  Array.iteri
    (fun j l ->
      let w = exp (l -. top) in
      sum := !sum +. (w *. sorted.(j / k));
      mass := !mass +. w)
    logs;
  !sum /. !mass

(* Quantiles of the raw request latencies; every timing scaled to the
   reference speed. The unscaled figures are printed. *)
let end_to_end loop ~setup_s ~rss_mb =
  let scale = reference_ms /. !kernel_ms in
  let lat = sorted loop.lat in
  let n = Array.length lat in
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  Printf.printf "latency samples: %d requests, %d beyond p50, %d beyond p90, %d beyond p99\n" n
    (beyond 0.5) (beyond 0.9) (beyond 0.99);
  let ms p = 1000.0 *. quantile lat p in
  Printf.printf
    "unscaled: throughput %.3f/s, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, setup %.6f s; kernel %.3f ms, scale %.4f\n"
    (float_of_int n /. loop.wall) (ms 0.50) (ms 0.90) (ms 0.99) setup_s !kernel_ms scale;
  [ ("throughput_per_s", float_of_int n /. (scale *. loop.wall), "1/s");
    ("latency_p50_ms", scale *. ms 0.50, "ms"); ("latency_p90_ms", scale *. ms 0.90, "ms");
    ("latency_p99_ms", scale *. ms 0.99, "ms"); ("setup_s", scale *. setup_s, "s");
    ("peak_rss_mb", rss_mb, "MB") ]

let of_loop ?(ok = true) loop metrics =
  { attempted = Array.length loop.lat; failed = loop.failed; ok; metrics; sections = [] }

let run_in_process order request =
  let programs = Hashtbl.create 32 in
  let loop, setup_s = timed_phase order ~setup:(compile_into programs) (request programs) in
  of_loop loop (end_to_end loop ~setup_s ~rss_mb:(peak_rss_mb "self"))

let run_analyze_cold pins ~seed ~seconds =
  run_in_process
    (in_passes ~seed ~salt:1 ~passes:(analyze_passes seconds) names)
    (analyze_request pins)

let run_grid_pfail pins ~seed ~seconds =
  run_in_process
    (in_passes ~seed ~salt:2 ~passes:(grid_passes seconds) panels)
    (fun programs -> grid_request pins programs (Hashtbl.create 64))

(* Set-up is spawning a fresh daemon on a fresh store and waiting for its
   first Pong, while the daemon under test (index 0) idles. *)
let run_daemon_zipf pins ~tool ~dir ~seed ~seconds =
  let seq = zipf_sequence ~seed ~n:(daemon_requests seconds) daemon_keys in
  let spawned = ref 0 in
  let setup () =
    incr spawned;
    let t, d = spawn_daemon ~tool ~dir !spawned in
    stop_daemon d;
    t
  in
  let cold = Hashtbl.create 256 in
  let (loop, setup_s), s =
    with_connection ~tool ~dir 0 (fun d fd ->
        let phase = timed_phase seq ~setup (daemon_request pins fd cold) in
        (phase, stats_of d))
  in
  Printf.printf "daemon: %d requests, %d computed\n" (Array.length seq) (Hashtbl.length cold);
  of_loop ~ok:(stats_agree cold s) loop (end_to_end loop ~setup_s ~rss_mb:s.rss_mb)

(* Traced runs: an untraced and a traced pass over the same half-size
   work, interleaved, then per-layer metrics from the traced sections. *)

let trace_health primary untraced =
  [ ("trace.unaccounted_ms", unaccounted_ms primary, "ms");
    ("trace.overhead_pct", 100.0 *. (primary.s_wall -. untraced.wall) /. untraced.wall, "%") ]

let layer_ms sec =
  List.map
    (fun (name, _) -> (name ^ "_ms", per_call_ms sec name, "ms"))
    sec.self

let count_metrics sec = List.map (fun (n, c) -> (n, float_of_int c, "count")) sec.s_counts

let combine outcomes =
  { attempted = List.fold_left (fun a o -> a + o.attempted) 0 outcomes;
    failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes;
    ok = List.for_all (fun o -> o.ok) outcomes;
    (* the first outcome's value of a metric wins *)
    metrics =
      List.fold_left
        (fun acc o ->
          acc @ List.filter (fun (n, _, _) -> not (List.exists (fun (m, _, _) -> m = n) acc)) o.metrics)
        [] outcomes;
    sections = List.concat_map (fun o -> o.sections) outcomes }

let traced_compile_all () =
  let programs = Hashtbl.create 32 in
  let loop = timed names (fun _ b -> Hashtbl.replace programs b (traced_compile b); true) in
  (programs, section "setup.compile" loop)

let trace_analyze_cold pins ~seed ~seconds =
  let programs, setup = traced_compile_all () in
  let order = in_passes ~seed ~salt:1 ~passes:(max 1 (analyze_passes seconds / 2)) names in
  let untraced, traced =
    timed_pair order (analyze_request pins programs) (traced_analyze_request pins programs)
  in
  let sec = section "analyze-cold" traced in
  { attempted = 2 * Array.length order; failed = untraced.failed + traced.failed; ok = true;
    metrics = layer_ms setup @ layer_ms sec @ count_metrics sec @ trace_health sec untraced;
    sections = [ setup; sec ] }

let trace_grid_pfail pins order =
  let programs, setup = traced_compile_all () in
  let cells = Hashtbl.create 64 in
  let untraced, traced =
    timed_pair order (grid_request pins programs cells) (traced_grid_request programs cells)
  in
  let sec = section "grid-pfail" traced in
  let per_panel_ms t = 1000.0 *. t /. float_of_int (Array.length order) in
  { attempted = 2 * Array.length order; failed = untraced.failed + traced.failed; ok = true;
    metrics =
      layer_ms setup @ layer_ms sec @ count_metrics sec
      @ [ ("grid.dag_overhead_ms", 1000.0 *. mean untraced.lat -. per_panel_ms (self_total sec), "ms") ]
      @ trace_health sec untraced;
    sections = [ setup; sec ] }

let trace_daemon_zipf pins ~tool ~dir ~seed ~n =
  let seq = zipf_sequence ~seed ~n daemon_keys in
  (* two fresh daemons, one per version, each seeing the same sequence *)
  let cold = Hashtbl.create 256 in
  let (untraced, traced), s =
    with_connection ~tool ~dir 0 (fun _ fd_u ->
        with_connection ~tool ~dir 1 (fun d fd ->
            let loops =
              timed_pair seq
                (daemon_request pins fd_u (Hashtbl.create 256))
                (traced_daemon_request pins fd cold)
            in
            (loops, stats_of d)))
  in
  let sec = section "daemon-zipf" traced in
  let cold_keys = Array.of_list (List.filteri (fun i _ -> Hashtbl.mem cold i) (Array.to_list seq)) in
  let replay = reference_replay pins cold_keys in
  let refsec = section "daemon-zipf.reference" replay in
  let rtt_ms is_cold =
    mean
      (Array.of_list
         (List.filter_map
            (fun sp ->
              if sp.name = "service.rtt" && Hashtbl.mem cold sp.req = is_cold then
                Some (1000.0 *. (sp.stop -. sp.start))
              else None)
            sec.s_spans))
  in
  let codec_us = 1000.0 *. (per_call_ms sec "service.encode" +. per_call_ms sec "service.decode") in
  { attempted = (2 * n) + Array.length cold_keys;
    failed = untraced.failed + traced.failed + replay.failed;
    ok = stats_agree cold s;
    metrics =
      layer_ms refsec @ count_metrics refsec
      @ [ ("service.hit_rtt_ms", rtt_ms false, "ms"); ("service.cold_rtt_ms", rtt_ms true, "ms");
          ("service.cold_overhead_ms", rtt_ms true -. (1000.0 *. mean replay.lat), "ms");
          ("service.codec_us", codec_us, "us") ]
      @ daemon_counts s @ trace_health sec untraced;
    sections = [ sec; refsec ] }

(* Every traced run reports every per-layer metric: a layer the workload
   does not reach is measured by a small fixed probe of the workload that
   does (two grid panels, or 600 daemon requests), whose trace-health
   figures are dropped. *)
let probe o =
  let kept (n, _, _) = not (String.starts_with ~prefix:"trace." n) in
  { o with metrics = List.filter kept o.metrics }

let grid_probe pins ~seed =
  probe (trace_grid_pfail pins (Array.sub (in_passes ~seed ~salt:2 ~passes:1 panels) 0 2))
let daemon_probe pins ~tool ~dir ~seed = probe (trace_daemon_zipf pins ~tool ~dir ~seed ~n:600)

let per_layer_names =
  [ "minic.compile_ms"; "cfg.build_ms"; "cfg.nodes"; "cache_analysis.chmc_ms"; "cache_analysis.refs";
    "ipet.wcet_ms"; "core.fmm_ms"; "core.fmm_cells"; "core.penalty_ms"; "prob.support_points";
    "prob.quantile_ms"; "grid.dag_overhead_ms"; "service.hit_rtt_ms"; "service.cold_rtt_ms";
    "service.cold_overhead_ms"; "service.codec_us"; "service.computations"; "store.hits";
    "store.misses"; "store.puts"; "store.hit_ratio";
    "trace.unaccounted_ms"; "trace.overhead_pct" ]

let end_to_end_names =
  [ "throughput_per_s"; "latency_p50_ms"; "latency_p90_ms"; "latency_p99_ms"; "setup_s"; "peak_rss_mb" ]

(* The traced spans must account for the traced wall within this share. *)
let unaccounted_bound = 0.05

(* --- main ------------------------------------------------------------------ *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let tool = ref "" and out = ref "perfbench/_out" and expected = ref "perfbench/expected.tsv" in
  let commit = ref "unknown" and pin = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "analyze-cold | grid-pfail | daemon-zipf");
      ("--seed", Arg.Set_int seed, "N input seed"); ("--seconds", Arg.Set_float seconds, "S work size");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--tool", Arg.Set_string tool, "PATH pwcet_tool executable, run as the daemon");
      ("--out", Arg.Set_string out, "DIR run records and daemon files");
      ("--expected", Arg.Set_string expected, "FILE pinned outputs");
      ("--commit", Arg.Set_string commit, "ID recorded in the host record");
      ("--pin", Arg.Set_string pin, "FILE compute every expected output into FILE and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pwbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !pin <> "" then begin
    write_pins !pin;
    exit 0
  end;
  let usage msg =
    prerr_endline ("pwbench: " ^ msg);
    exit 2
  in
  if not (List.mem !trace [ 0; 1 ]) then usage "--trace must be 0 or 1";
  if !seconds <= 0.0 then usage "--seconds must be given and positive";
  if not (Sys.file_exists !tool) then usage "--tool must name the pwcet_tool executable";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pins = load_pins !expected in
  let seed = !seed and seconds = !seconds and tool = !tool and dir = !out in
  let load0 = loadavg () in
  let o =
    match (!workload, !trace) with
    | "analyze-cold", 0 -> run_analyze_cold pins ~seed ~seconds
    | "grid-pfail", 0 -> run_grid_pfail pins ~seed ~seconds
    | "daemon-zipf", 0 -> run_daemon_zipf pins ~tool ~dir ~seed ~seconds
    | "analyze-cold", _ ->
      combine
        [ trace_analyze_cold pins ~seed ~seconds; grid_probe pins ~seed;
          daemon_probe pins ~tool ~dir ~seed ]
    | "grid-pfail", _ ->
      let passes = max 1 (grid_passes seconds / 2) in
      combine
        [ trace_grid_pfail pins (in_passes ~seed ~salt:2 ~passes panels);
          daemon_probe pins ~tool ~dir ~seed ]
    | "daemon-zipf", _ ->
      combine
        [ trace_daemon_zipf pins ~tool ~dir ~seed ~n:(daemon_requests seconds / 2);
          grid_probe pins ~seed ]
    | w, _ -> usage ("unknown workload " ^ w)
  in
  let names = if !trace = 0 then end_to_end_names else per_layer_names in
  let metrics =
    List.map
      (fun n ->
        match List.find_opt (fun (m, _, _) -> m = n) o.metrics with
        | Some (_, v, unit) -> (n, v, unit)
        | None -> (n, Float.nan, "missing"))
      names
  in
  let health_ok =
    List.for_all (fun sec -> sec.s_wall -. self_total sec <= unaccounted_bound *. sec.s_wall) o.sections
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = o.ok && o.failed = 0 && finite && health_ok in
  (* Host record: what a reader needs to tell a noisy machine from a slow program. *)
  let host =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"commit\": %s, \"nproc\": %d, \
       \"loadavg_start\": %s, \"loadavg_end\": %s, \"timed_s\": %.3f, \"steal_ticks\": %d, \
       \"kernel_ms\": %s}"
      (json_string !workload) seed seconds !trace (json_string !commit)
      (Domain.recommended_domain_count ()) (json_string load0) (json_string (loadavg ())) !timed_s !steal
      (if Float.is_finite !kernel_ms then Printf.sprintf "%.4f" !kernel_ms else "null")
  in
  let stem = Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace) in
  Out_channel.with_open_bin (stem ^ ".host.json") (fun oc -> output_string oc (host ^ "\n"));
  Out_channel.with_open_bin (stem ^ ".latencies.tsv") (fun oc ->
      List.iteri
        (fun loop lat -> Array.iteri (fun i t -> Printf.fprintf oc "%d\t%d\t%.9f\n" loop i t) lat)
        (List.rev !loops));
  if o.sections <> [] then
    Out_channel.with_open_bin (stem ^ ".spans.tsv") (fun oc ->
        output_string oc "# section\tname\tstart_s\tend_s\tid\tparent\trequest\n";
        List.iter (write_spans oc) o.sections);
  List.iter print_section o.sections;
  Printf.printf "host: %s\n" host;
  Printf.printf "outputs_digest: %s\n" (Digest.to_hex (Digest.string (Buffer.contents outputs)));
  Printf.printf "attempted %d, failed %d (failed_share %g), checks %s, spans within %.0f%% of wall: %b\n"
    o.attempted o.failed
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    (if o.ok then "ok" else "FAILED") (100.0 *. unaccounted_bound) health_ok;
  List.iter (fun (n, v, unit) -> Printf.printf "  %-26s %14.6f %s\n" n v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
              (json_string unit))
          metrics));
  exit (if correct then 0 else 1)
