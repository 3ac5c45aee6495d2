(* Tests for the deterministic chaos-injection layer and the
   self-healing responses built on it: the counter-based decision
   schedule (its mixer pinned to fixed values, reproducible from the seed,
   order-independent where the caller owns the numbering), the store's
   retry/quarantine/degraded-mode reactions, torn journal appends, the
   worker pool's crash/respawn protocol, the grid engine's typed,
   jobs-invariant surfacing of killed DAG nodes, and the soak's
   digests. *)

module Plan = Chaos.Plan
module Injector = Chaos.Injector
module Site = Chaos.Site
module Artifact = Store.Artifact
module Journal = Store.Journal
module Workers = Parallel.Workers
module Pool = Parallel.Pool
module E = Robust.Pwcet_error
module M = Pwcet.Mechanism
module D = Prob.Dist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tmp_root = Filename.concat (Filename.get_temp_dir_name ()) "pwcet_chaos_test"

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat tmp_root (Printf.sprintf "case%d.%d" (Unix.getpid ()) !counter)
    in
    Soak.remove_tree dir;
    dir

let program_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  compiled.Minic.Compile.program

(* Deterministic seed discovery: scan for the first seed whose fresh
   injector satisfies [pred]. The found seed is then a constant of the
   test run — same plan, same schedule, every time. *)
let seed_where plan pred =
  let rec go seed =
    if seed > 10_000 then Alcotest.fail "no seed satisfies the predicate"
    else if pred (Injector.create ~seed plan) then seed
    else go (seed + 1)
  in
  go 0

(* --- determinism ------------------------------------------------------------ *)

(* Every fault decision (and every Sim campaign) draws from
   Numeric.Splitmix.mix, so these input/output pairs guard the chaos and
   sim digests: they are the outputs of the mixer the digests were
   recorded with. *)
let test_mixer_pinned () =
  List.iter
    (fun (z, expected) ->
      check_int (Printf.sprintf "mix %d" z) expected (Numeric.Splitmix.mix z))
    [ (0, 0); (1, -260603230713015523); (-1, 4141067727694781590)
    ; (42, -2406073768997157083); (1337, -3464059273073339370)
    ; (max_int, 2070533863847390795); (min_int, -1765070974144174227)
    ; (0x1234_5678_9ABC, 540091957829770135); (-987_654_321, -3055472364189388343) ]

let test_decide_deterministic () =
  let plan = Plan.all_plan in
  let sites = Plan.sites plan in
  let run seed =
    let inj = Injector.create ~seed plan in
    List.concat_map (fun site -> List.init 200 (fun _ -> Injector.decide inj ~site)) sites
  in
  check "same seed, same schedule" true (run 7 = run 7);
  check "different seeds, different schedules" true (run 7 <> run 8);
  (* Caller-owned occurrence numbering must not depend on call order. *)
  let inj = Injector.create ~seed:3 plan in
  let fwd =
    List.init 100 (fun k -> Injector.decide_at inj ~site:Site.pool_node ~occurrence:k)
  in
  let bwd =
    List.rev
      (List.init 100 (fun k ->
           Injector.decide_at inj ~site:Site.pool_node ~occurrence:(99 - k)))
  in
  check "decide_at is order-independent" true (fwd = bwd);
  check "the all plan actually fires" true
    (List.exists (fun o -> o <> Injector.Pass) (run 7))

let test_plan_lookup () =
  List.iter
    (fun name ->
      match Plan.named name with
      | Ok p -> check name true (p.Plan.name = name)
      | Error e -> Alcotest.fail e)
    Plan.all_names;
  match Plan.named "nope" with
  | Ok _ -> Alcotest.fail "bogus plan accepted"
  | Error msg -> check "error names the valid plans" true (String.length msg > 0)

(* --- store self-healing ------------------------------------------------------ *)

(* Under the full store fault plan, a store-backed estimate must stay
   bit-identical to the storeless reference: every injected fault is
   either healed (retried reads, recomputed quarantines) or silently
   absorbed (failed writes just mean a colder cache). *)
let test_store_transparent_under_chaos () =
  let program = program_of "fibcall" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let fingerprint est =
    ( D.support (Pwcet.Estimator.penalty est),
      Pwcet.Estimator.pwcet est ~target:1e-12,
      est.Pwcet.Estimator.pbf )
  in
  let reference =
    let task = Pwcet.Estimator.prepare ~program ~config () in
    fingerprint (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ())
  in
  let faults = ref 0 in
  for seed = 0 to 9 do
    let inj = Injector.create ~seed Plan.store_plan in
    let st = Artifact.open_store ~chaos:inj ~dir:(fresh_dir ()) () in
    let cold =
      let task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
      fingerprint
        (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st ())
    in
    let warm =
      let task = Pwcet.Estimator.prepare ~program ~config ~store:st () in
      fingerprint
        (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.Reliable_way ~store:st ())
    in
    check (Printf.sprintf "cold bit-identical (seed %d)" seed) true (cold = reference);
    check (Printf.sprintf "warm bit-identical (seed %d)" seed) true (warm = reference);
    faults := !faults + Injector.total_injected inj
  done;
  check "the plan injected something across the seeds" true (!faults > 0)

let test_store_degraded_on_enospc () =
  let plan =
    { Plan.name = "enospc";
      rules = [ Plan.rule Site.store_write 1.0 (Io_error Unix.ENOSPC) ] }
  in
  let inj = Injector.create ~seed:0 plan in
  let st = Artifact.open_store ~chaos:inj ~dir:(fresh_dir ()) () in
  check "fresh store is healthy" false (Artifact.degraded st);
  (* Disk full: put must absorb the failure, flip the store into
     degraded mode, and keep the process computing. *)
  Artifact.put st ~key:"k1" ~kind:"test" ~version:1 "payload";
  check "ENOSPC flips degraded mode" true (Artifact.degraded st);
  Artifact.put st ~key:"k2" ~kind:"test" ~version:1 "payload";
  let s = Artifact.stats st in
  check_int "both puts surfaced as unavailable" 2 s.Artifact.unavailable;
  check_int "nothing was written" 0 s.Artifact.puts;
  check "reads still answer (as misses)" true
    (Artifact.get st ~key:"k1" ~kind:"test" ~version:1 = None)

let test_store_read_retry_then_quarantine () =
  (* A transient read fault (first attempt faults, retry passes) must
     be healed into a plain hit... *)
  let transient =
    { Plan.name = "eio"; rules = [ Plan.rule Site.store_read 0.5 (Io_error Unix.EIO) ] }
  in
  let seed =
    seed_where transient (fun inj ->
        Injector.decide inj ~site:Site.store_read <> Injector.Pass
        && Injector.decide inj ~site:Site.store_read = Injector.Pass)
  in
  let inj = Injector.create ~seed transient in
  let st = Artifact.open_store ~chaos:inj ~dir:(fresh_dir ()) () in
  Artifact.put st ~key:"k" ~kind:"test" ~version:1 "payload";
  check "transient read fault healed by retry" true
    (Artifact.get st ~key:"k" ~kind:"test" ~version:1 = Some "payload");
  check_int "and counted as a hit" 1 (Artifact.stats st).Artifact.hits;
  (* ...while a persistent one (both attempts fault) must quarantine
     the entry and report a miss, never raise. *)
  let persistent =
    { Plan.name = "eio"; rules = [ Plan.rule Site.store_read 1.0 (Io_error Unix.EIO) ] }
  in
  let inj = Injector.create ~seed:0 persistent in
  let st = Artifact.open_store ~chaos:inj ~dir:(fresh_dir ()) () in
  Artifact.put st ~key:"k" ~kind:"test" ~version:1 "payload";
  check "persistent read fault becomes a miss" true
    (Artifact.get st ~key:"k" ~kind:"test" ~version:1 = None);
  check "and quarantines the entry" true ((Artifact.stats st).Artifact.corrupt >= 1)

let test_store_bit_flip_caught () =
  let plan =
    { Plan.name = "flip"; rules = [ Plan.rule Site.store_read_data 1.0 Bit_flip ] }
  in
  let inj = Injector.create ~seed:0 plan in
  let st = Artifact.open_store ~chaos:inj ~dir:(fresh_dir ()) () in
  Artifact.put st ~key:"k" ~kind:"test" ~version:1 "payload";
  (* Every readback is corrupted one bit: the envelope check must turn
     that into a quarantined miss — wrong bytes are never returned. *)
  check "flipped readback never served" true
    (Artifact.get st ~key:"k" ~kind:"test" ~version:1 = None);
  check "flip was quarantined" true ((Artifact.stats st).Artifact.corrupt >= 1)

(* --- journal torn appends ---------------------------------------------------- *)

let test_journal_chaotic_appends () =
  let plan =
    { Plan.name = "torn";
      rules =
        [ Plan.rule Site.journal_append 0.35 Short_io;
          Plan.rule Site.journal_append 0.15 (Io_error Unix.ENOSPC) ] }
  in
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let torn = ref 0 and clean = ref 0 in
  for seed = 0 to 199 do
    let inj = Injector.create ~seed plan in
    let path = Filename.concat dir (Printf.sprintf "j%d" seed) in
    let w = Journal.create ~chaos:inj ~path ~run_key:"fuzz" () in
    let appended = ref [] in
    (try
       for r = 0 to 5 do
         let record = Printf.sprintf "record-%d-%d" seed r in
         Journal.append w record;
         appended := record :: !appended
       done;
       incr clean
     with Unix.Unix_error _ -> incr torn);
    Journal.close w;
    (* Whatever the fault left on disk, resume must recover exactly
       the records whose append returned — a torn trailing record is
       dropped, never a poisoned or truncated-in-the-middle replay. *)
    let w2, replayed = Journal.resume ~path ~run_key:"fuzz" () in
    Journal.close w2;
    if replayed <> List.rev !appended then
      Alcotest.failf "seed %d: replay mismatch (%d vs %d records)" seed
        (List.length replayed)
        (List.length !appended)
  done;
  check "fuzz exercised torn appends" true (!torn > 0);
  check "fuzz exercised clean runs" true (!clean > 0)

(* --- worker crash / respawn -------------------------------------------------- *)

let test_workers_crash_and_respawn () =
  (* A seed guaranteed to kill at least twice early in the schedule,
     so the test is deterministic, not probabilistic. *)
  let seed =
    seed_where Plan.workers_plan (fun inj ->
        let dies = ref 0 in
        for _ = 1 to 30 do
          match Injector.decide inj ~site:Site.workers_job with
          | Injector.Die -> incr dies
          | _ -> ()
        done;
        !dies >= 2)
  in
  let inj = Injector.create ~seed Plan.workers_plan in
  let pool = Workers.create ~chaos:inj ~domains:2 ~queue_max:128 () in
  Fun.protect
    ~finally:(fun () -> Workers.shutdown pool)
    (fun () ->
      let jobs = 40 in
      let ran = Array.init jobs (fun _ -> Atomic.make 0) in
      for i = 0 to jobs - 1 do
        check (Printf.sprintf "job %d admitted" i) true
          (Workers.submit pool (fun () -> Atomic.incr ran.(i)))
      done;
      let deadline = Unix.gettimeofday () +. 30.0 in
      let done_count () =
        Array.fold_left (fun a c -> a + min 1 (Atomic.get c)) 0 ran
      in
      while done_count () < jobs && Unix.gettimeofday () < deadline do
        ignore (Workers.ensure_alive pool);
        Unix.sleepf 0.01
      done;
      check_int "every job ran despite the crashes" jobs (done_count ());
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "job %d ran exactly once" i) 1 (Atomic.get c))
        ran;
      check "workers crashed" true (Workers.crashed pool >= 2);
      check "crashed workers were respawned" true
        (Workers.respawned pool >= Workers.crashed pool);
      ignore (Workers.ensure_alive pool);
      check_int "pool back at target headcount" 2 (Workers.live pool))

(* --- typed, jobs-invariant pool faults --------------------------------------- *)

let test_pool_kill_typed_and_jobs_invariant () =
  let plan = { Plan.name = "kill"; rules = [ Plan.rule Site.pool_node 0.3 Kill ] } in
  let items = Array.init 50 Fun.id in
  let run jobs =
    let inj = Injector.create ~seed:5 plan in
    Pool.map_result ~chaos:inj ~jobs (fun i -> i * i) items
  in
  let r1 = run 1 and r3 = run 3 in
  check "outcomes identical at jobs 1 and 3" true (r1 = r3);
  let killed = ref 0 in
  Array.iteri
    (fun i -> function
      | Ok v -> check_int (Printf.sprintf "item %d value" i) (i * i) v
      | Error (E.Worker_crash _) -> incr killed
      | Error e -> Alcotest.failf "item %d: unexpected error %s" i (E.to_string e))
    r1;
  check "some nodes were killed" true (!killed > 0);
  check "most nodes survived" true (!killed < Array.length items)

let test_grid_chaos_digest_jobs_invariant () =
  let program = program_of "fibcall" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let spec =
    { Grid.benchmarks = [ ("fibcall", program) ];
      configs = [ config ];
      mechanisms = [ M.No_protection; M.Shared_reliable_buffer ];
      pfail_grid = [ 1e-5; 1e-4 ];
      targets = [ 1e-12 ];
      engine = `Path;
      exact = false;
      impl = `Sliced }
  in
  let reference = Grid.run ~jobs:1 spec in
  (* A seed whose schedule kills at least one of this grid's nodes, so
     the typed-error path is actually exercised. *)
  let plan = Plan.pool_plan in
  let digest_at jobs seed =
    let inj = Injector.create ~seed plan in
    Grid.run ~jobs ~chaos:inj spec
  in
  let seed =
    let rec go s =
      if s > 200 then Alcotest.fail "no seed kills a node in this grid"
      else if List.exists (fun (_, r) -> Result.is_error r) (digest_at 1 s) then s
      else go (s + 1)
    in
    go 0
  in
  let chaotic1 = digest_at 1 seed and chaotic2 = digest_at 2 seed in
  check "chaotic digests equal across jobs" true
    (Grid.digest chaotic1 = Grid.digest chaotic2);
  List.iter2
    (fun (_, r) (_, r0) ->
      match (r, r0) with
      | Ok c, Ok c0 ->
        check "surviving cell bit-identical to reference" true
          (Grid.cell_to_wire c = Grid.cell_to_wire c0)
      | Error (E.Worker_crash _), _ -> ()
      | Error e, _ -> Alcotest.failf "unexpected cell error: %s" (E.to_string e)
      | Ok _, Error _ -> Alcotest.fail "reference grid has an error cell")
    chaotic1 reference

(* --- the soak ------------------------------------------------------------------ *)

(* The soak digests scripts/check_chaos.sh's `pwcet_tool chaos` runs
   print, recorded from the command line before the soak moved into the
   library: 200 campaigns at seed 7 (the same at jobs 1 and 3) and 40 at
   seed 1234, under the `all` plan. *)
let test_soak_digests_pinned () =
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let soak ~campaigns ~seed ~jobs expected =
    let dir = fresh_dir () in
    let report = Soak.run ~campaigns ~seed ~plan:Plan.all_plan ~jobs ~dir in
    let label = Printf.sprintf "%d campaigns, seed %d, jobs %d" campaigns seed jobs in
    check_int (label ^ ": no corrupt or escape") 0
      (Soak.count report Soak.Corrupt + Soak.count report Soak.Escape);
    check (label ^ ": faults injected") true (report.Soak.injected > 0);
    check_int (label ^ ": one verdict per campaign") campaigns
      (List.length report.Soak.campaigns);
    check (label ^ ": scratch removed") false (Sys.file_exists dir);
    Alcotest.(check string) (label ^ ": digest") expected report.Soak.digest
  in
  soak ~campaigns:200 ~seed:7 ~jobs:1 "874790f3bbfd7313f356d2e71eac4719";
  soak ~campaigns:200 ~seed:7 ~jobs:3 "874790f3bbfd7313f356d2e71eac4719";
  soak ~campaigns:40 ~seed:1234 ~jobs:2 "69562e711babec1691fa0c7f823597df"

let () =
  Alcotest.run "chaos"
    [ ( "determinism",
        [ Alcotest.test_case "mixer pinned to fixed values" `Quick test_mixer_pinned
        ; Alcotest.test_case "decide is seeded and pure" `Quick test_decide_deterministic
        ; Alcotest.test_case "plan lookup" `Quick test_plan_lookup
        ] )
    ; ( "store",
        [ Alcotest.test_case "estimates transparent under chaos" `Quick
            test_store_transparent_under_chaos
        ; Alcotest.test_case "ENOSPC degrades, never aborts" `Quick
            test_store_degraded_on_enospc
        ; Alcotest.test_case "read retry then quarantine" `Quick
            test_store_read_retry_then_quarantine
        ; Alcotest.test_case "readback bit flip caught" `Quick test_store_bit_flip_caught
        ] )
    ; ( "journal",
        [ Alcotest.test_case "chaotic appends, clean replays (200 seeds)" `Quick
            test_journal_chaotic_appends
        ] )
    ; ( "workers",
        [ Alcotest.test_case "crash, requeue, respawn" `Quick
            test_workers_crash_and_respawn
        ] )
    ; ( "pool",
        [ Alcotest.test_case "kills typed and jobs-invariant" `Quick
            test_pool_kill_typed_and_jobs_invariant
        ; Alcotest.test_case "grid digest jobs-invariant under chaos" `Quick
            test_grid_chaos_digest_jobs_invariant
        ] )
    ; ( "soak",
        [ Alcotest.test_case "digests pinned" `Quick test_soak_digests_pinned ] )
    ]
