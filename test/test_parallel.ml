(* Tests for the domain pool and for the determinism contract of the
   parallel analysis paths: any [jobs] value must produce bit-identical
   FMM tables and penalty distributions. All randomness is seeded. *)

module Pool = Parallel.Pool
module Fmm = Pwcet.Fmm
module M = Pwcet.Mechanism
module D = Prob.Dist

(* --- pool ----------------------------------------------------------------- *)

let test_pool_matches_array_map () =
  let state = Random.State.make [| 3 |] in
  List.iter
    (fun jobs ->
      for _ = 1 to 5 do
        let n = Random.State.int state 200 in
        let input = Array.init n (fun i -> i + Random.State.int state 10) in
        let f x = (x * x) - (3 * x) in
        Alcotest.(check (array int))
          (Printf.sprintf "jobs=%d n=%d" jobs n)
          (Array.map f input) (Pool.map ~jobs f input)
      done)
    [ 0; 1; 2; 4; 13 ]

let test_pool_mapi_indexes () =
  let input = Array.init 50 (fun i -> 2 * i) in
  let expected = Array.mapi (fun i x -> (i, x)) input in
  Alcotest.(check (array (pair int int))) "mapi" expected
    (Pool.mapi ~jobs:4 (fun i x -> (i, x)) input)

let test_pool_preserves_order_under_skew () =
  (* Uneven per-element cost exercises the dynamic scheduler: late
     indexes can finish first, but the result must stay in order. *)
  let n = 64 in
  let input = Array.init n (fun i -> i) in
  let f i =
    let spins = if i mod 7 = 0 then 20_000 else 10 in
    let acc = ref i in
    for _ = 1 to spins do
      acc := (!acc * 48271) mod 0x7fffffff
    done;
    (i, !acc)
  in
  let seq = Array.map f input in
  Alcotest.(check (array (pair int int))) "ordered" seq (Pool.map ~jobs:8 f input)

exception Boom of int

let test_pool_propagates_exception () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun x -> if x = 17 then raise (Boom x) else x) (Array.init 40 Fun.id) with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom 17 -> ())
    [ 1; 4 ]

(* Regression for the spawn-failure domain leak: when [Domain.spawn]
   raises partway through fan-out (injected here; the domain limit in
   production), the domains that did spawn must be drained and joined
   before the exception propagates.  Pre-fix they leaked and kept
   processing items — observable as the item counter still advancing
   after the call has already raised. *)
let test_pool_spawn_failure_joins_workers () =
  let run map_call =
    let n = 512 in
    let processed = Atomic.make 0 in
    let f _i _x =
      (* Slow items keep the leaked (pre-fix) worker busy well past the
         exception, so the post-raise counter freeze is discriminating. *)
      Unix.sleepf 0.0005;
      Atomic.incr processed;
      0
    in
    Pool.inject_spawn_failure_after (Some 1);
    Fun.protect
      ~finally:(fun () -> Pool.inject_spawn_failure_after None)
      (fun () ->
        (match map_call f (Array.init n Fun.id) with
        | (_ : int array) -> Alcotest.fail "expected the injected spawn failure to propagate"
        | exception Failure _ -> ());
        (* All spawned domains are joined, so no item can complete after
           the call returns: the counter must be frozen. *)
        let at_raise = Atomic.get processed in
        Unix.sleepf 0.05;
        Alcotest.(check int) "no worker survived the call" at_raise (Atomic.get processed))
  in
  run (fun f input -> Pool.mapi ~jobs:4 f input);
  run (fun f input ->
      Array.map
        (function Ok v -> v | Error _ -> -1)
        (Pool.mapi_result ~jobs:4 f input))

(* The persistent pool behind the analysis service: jobs run exactly
   once, the queue bound sheds overflow instead of queuing unboundedly,
   and shutdown drains everything already accepted. *)
let test_workers_run_shed_shutdown () =
  let w = Parallel.Workers.create ~domains:2 ~queue_max:64 () in
  let counter = Atomic.make 0 in
  let accepted = ref 0 in
  for _ = 1 to 50 do
    if Parallel.Workers.submit w (fun () -> Atomic.incr counter) then incr accepted
  done;
  Parallel.Workers.shutdown w;
  Alcotest.(check int) "every accepted job ran before shutdown returned" !accepted
    (Atomic.get counter);
  Alcotest.(check bool) "submit after shutdown refused" false
    (Parallel.Workers.submit w (fun () -> Atomic.incr counter));
  (* A single worker blocked on a gate, queue_max 2: at most
     1 running + 2 queued submissions can be accepted; the rest shed. *)
  let slow = Parallel.Workers.create ~domains:1 ~queue_max:2 () in
  let gate = Atomic.make false in
  let ran = Atomic.make 0 in
  let job () =
    while not (Atomic.get gate) do
      Unix.sleepf 0.0005
    done;
    Atomic.incr ran
  in
  let flags = List.init 8 (fun _ -> Parallel.Workers.submit slow job) in
  let accepted = List.length (List.filter Fun.id flags) in
  Alcotest.(check bool) "overflow shed" true (accepted <= 3);
  Alcotest.(check bool) "queue filled before shedding" true (accepted >= 2);
  Atomic.set gate true;
  Parallel.Workers.shutdown slow;
  Alcotest.(check int) "accepted jobs all drained" accepted (Atomic.get ran)

let test_pool_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |] (Pool.map ~jobs:4 (fun x -> x * 3) [| 3 |])

(* --- crash-isolating result variants --------------------------------------- *)

let outcome_testable =
  let pp fmt = function
    | Ok v -> Format.fprintf fmt "Ok %d" v
    | Error e -> Format.fprintf fmt "Error (%s)" (Robust.Pwcet_error.to_string e)
  in
  Alcotest.testable pp ( = )

let test_mapi_result_isolates_crash () =
  (* One raising item must poison only its own slot: all 39 siblings
     keep their values, and the error carries the original exception
     text. *)
  List.iter
    (fun jobs ->
      let results =
        Pool.mapi_result ~jobs
          (fun _ x -> if x = 17 then raise (Boom x) else x * 2)
          (Array.init 40 Fun.id)
      in
      Array.iteri
        (fun i r ->
          if i = 17 then
            match r with
            | Error (Robust.Pwcet_error.Worker_crash msg) ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d original text" jobs)
                true
                (String.length msg > 0
                && String.sub msg (String.length msg - 3) 3 = "17)")
            | _ -> Alcotest.failf "jobs=%d: item 17 should be Worker_crash" jobs
          else
            Alcotest.check outcome_testable
              (Printf.sprintf "jobs=%d item %d" jobs i)
              (Ok (i * 2)) r)
        results)
    [ 1; 4; 13 ]

let test_mapi_result_deterministic_across_jobs () =
  let input = Array.init 60 Fun.id in
  let f _ x = if x mod 11 = 3 then failwith "planned" else x * x in
  let reference = Pool.mapi_result ~jobs:1 f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array outcome_testable))
        (Printf.sprintf "jobs=%d" jobs)
        reference
        (Pool.mapi_result ~jobs f input))
    [ 2; 4; 13 ]

let test_map_result_deadline () =
  (* A deadline in the past refuses every item without running it. *)
  let ran = Atomic.make 0 in
  let results =
    Pool.map_result ~deadline:0.0 ~jobs:4
      (fun x ->
        Atomic.incr ran;
        x)
      (Array.init 20 Fun.id)
  in
  Alcotest.(check int) "nothing ran" 0 (Atomic.get ran);
  Array.iter
    (function
      | Error (Robust.Pwcet_error.Budget_exhausted _) -> ()
      | _ -> Alcotest.fail "expected Budget_exhausted on every item")
    results

let test_map_result_matches_map_when_clean () =
  let input = Array.init 50 (fun i -> i + 1) in
  let f x = (x * 7) mod 13 in
  Alcotest.(check (array outcome_testable)) "clean run"
    (Array.map (fun x -> Ok (f x)) input)
    (Pool.map_result ~jobs:4 f input)

let test_reduce_pairs_result_clean () =
  (* The tree shape is fixed (adjacent pairs, odd leftover at the end of
     its layer), so even a non-associative combination gives the same
     result for every jobs value. *)
  let combine a b = "(" ^ a ^ " " ^ b ^ ")" in
  let leaves n = Array.init n string_of_int in
  Alcotest.(check (option string)) "tree shape" (Some "(((0 1) (2 3)) 4)")
    (Pool.reduce_pairs ~jobs:1 combine (leaves 5));
  let reference = Pool.reduce_pairs ~jobs:1 combine (leaves 37) in
  List.iter
    (fun jobs ->
      Alcotest.(check (option string))
        (Printf.sprintf "jobs=%d" jobs)
        reference
        (Pool.reduce_pairs ~jobs combine (leaves 37)))
    [ 1; 3; 8 ]

(* --- work-stealing DAG executor -------------------------------------------- *)

(* A deterministic random DAG with uneven node costs: node i depends on
   a few earlier nodes and combines their values, so any scheduling
   error (missing dependency, lost update, wrong merge order) shows up
   as a value difference against the sequential reference. *)
let make_random_dag state n =
  Array.init n (fun i ->
      let n_deps = if i = 0 then 0 else Random.State.int state (min i 4) in
      let deps =
        Array.init n_deps (fun _ -> Random.State.int state i)
      in
      let spins = if i mod 5 = 0 then 5_000 else 10 in
      let run values =
        let acc = ref (i + 1) in
        for _ = 1 to spins do
          acc := (!acc * 48271) mod 0x7fffffff
        done;
        Array.fold_left (fun a v -> (a + v) mod 1_000_003) (!acc mod 1_000_003) values
      in
      { Pool.deps; run })

let test_run_dag_deterministic_across_jobs () =
  let state = Random.State.make [| 11 |] in
  let dag = make_random_dag state 120 in
  let reference = Pool.run_dag ~jobs:1 dag in
  Array.iter
    (function Ok _ -> () | Error _ -> Alcotest.fail "clean DAG must not error")
    reference;
  List.iter
    (fun jobs ->
      Alcotest.(check (array outcome_testable))
        (Printf.sprintf "jobs=%d" jobs)
        reference
        (Pool.run_dag ~jobs dag))
    [ 2; 4; 13 ]

let test_run_dag_crash_isolation_and_propagation () =
  (* Node 5 crashes; 9 depends on 5, 12 depends on 9 — all three must
     carry the original crash, everything else its clean value. *)
  let dag =
    Array.init 20 (fun i ->
        let deps =
          if i = 9 then [| 5 |] else if i = 12 then [| 9; 3 |] else [||]
        in
        let run values =
          if i = 5 then raise (Boom i) else Array.fold_left ( + ) (i * 2) values
        in
        { Pool.deps; run })
  in
  List.iter
    (fun jobs ->
      let results = Pool.run_dag ~jobs dag in
      Array.iteri
        (fun i r ->
          let tag = Printf.sprintf "jobs=%d node %d" jobs i in
          match (i, r) with
          | (5 | 9 | 12), Error (Robust.Pwcet_error.Worker_crash msg) ->
            Alcotest.(check bool) tag true
              (String.length msg >= 2 && String.sub msg (String.length msg - 2) 2 = "5)")
          | (5 | 9 | 12), _ -> Alcotest.failf "%s: expected the propagated crash" tag
          | _, Ok _ -> ()
          | _, Error _ -> Alcotest.failf "%s: clean node errored" tag)
        results)
    [ 1; 4 ]

let test_run_dag_deadline () =
  (* A deadline in the past refuses every root without running it, and
     dependents propagate the roots' starvation. *)
  let ran = Atomic.make 0 in
  let dag =
    Array.init 16 (fun i ->
        {
          Pool.deps = (if i < 8 then [||] else [| i - 8 |]);
          run =
            (fun _ ->
              Atomic.incr ran;
              i);
        })
  in
  let results = Pool.run_dag ~deadline:0.0 ~jobs:4 dag in
  Alcotest.(check int) "nothing ran" 0 (Atomic.get ran);
  Array.iter
    (function
      | Error (Robust.Pwcet_error.Budget_exhausted _) -> ()
      | _ -> Alcotest.fail "expected Budget_exhausted everywhere")
    results

let test_run_dag_rejects_forward_deps () =
  let bad = [| { Pool.deps = [| 0 |]; run = (fun _ -> 0) } |] in
  (match Pool.run_dag ~jobs:1 bad with
  | _ -> Alcotest.fail "self-dependency must be rejected"
  | exception Invalid_argument _ -> ());
  let forward =
    [| { Pool.deps = [| 1 |]; run = (fun _ -> 0) }; { Pool.deps = [||]; run = (fun _ -> 1) } |]
  in
  match Pool.run_dag ~jobs:4 forward with
  | _ -> Alcotest.fail "forward dependency must be rejected"
  | exception Invalid_argument _ -> ()

let test_run_dag_spawn_failure_joins_workers () =
  let n = 256 in
  let processed = Atomic.make 0 in
  let dag =
    Array.init n (fun i ->
        {
          Pool.deps = [||];
          run =
            (fun _ ->
              Unix.sleepf 0.0005;
              Atomic.incr processed;
              i);
        })
  in
  Pool.inject_spawn_failure_after (Some 1);
  Fun.protect
    ~finally:(fun () -> Pool.inject_spawn_failure_after None)
    (fun () ->
      (match Pool.run_dag ~jobs:4 dag with
      | _ -> Alcotest.fail "expected the injected spawn failure to propagate"
      | exception Failure _ -> ());
      let at_raise = Atomic.get processed in
      Unix.sleepf 0.05;
      Alcotest.(check int) "no worker survived the call" at_raise (Atomic.get processed))

let test_run_dag_empty_and_singleton () =
  Alcotest.(check int) "empty" 0 (Array.length (Pool.run_dag ~jobs:4 ([||] : int Pool.dag_node array)));
  match Pool.run_dag ~jobs:4 [| { Pool.deps = [||]; run = (fun _ -> 41) } |] with
  | [| Ok 41 |] -> ()
  | _ -> Alcotest.fail "singleton"

(* --- parallel FMM determinism ---------------------------------------------- *)

let task_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let program = compiled.Minic.Compile.program in
  let graph = Cfg.Graph.build program in
  let loops = Cfg.Loop.detect graph in
  (graph, loops)

let test_fmm_jobs_bit_identical () =
  let config = Cache.Config.paper_default in
  List.iter
    (fun name ->
      let graph, loops = task_of name in
      List.iter
        (fun mechanism ->
          let compute jobs =
            snd
              (List.hd (Fmm.compute_multi ~graph ~loops ~config ~mechanisms:[ mechanism ] ~jobs ()))
          in
          let seq = compute 1 and par = compute 4 in
          Alcotest.(check (array (array int)))
            (Printf.sprintf "%s/%s table" name (M.name mechanism))
            (Fmm.table seq) (Fmm.table par))
        M.all)
    [ "fibcall"; "bs"; "crc" ]

let test_penalty_jobs_bit_identical () =
  let config = Cache.Config.paper_default in
  let graph, loops = task_of "crc" in
  let fmm =
    snd (List.hd (Fmm.compute_multi ~graph ~loops ~config ~mechanisms:[ M.No_protection ] ()))
  in
  let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
  let seq = Pwcet.Penalty.total_distribution ~jobs:1 ~fmm ~pbf () in
  let par = Pwcet.Penalty.total_distribution ~jobs:4 ~fmm ~pbf () in
  Alcotest.(check (list (pair int (float 0.)))) "penalty distribution"
    (D.support seq) (D.support par)

(* The Monte-Carlo campaign engine: the RNG is split per sample index —
   not per domain — and partial results merge in a fixed chunk order,
   so every [jobs] value must produce the bit-identical histogram,
   moments, and counters. pbf is high enough that the SRB merged-replay
   path runs inside the sampled window. *)
let test_sim_campaign_jobs_bit_identical () =
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let entry = Option.get (Benchmarks.Registry.find "crc") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let trace =
    Sim.Campaign.trace ~program:compiled.Minic.Compile.program ~data:compiled.Minic.Compile.data
      ~config
  in
  List.iter
    (fun mechanism ->
      let run jobs =
        Sim.Campaign.run
          (Sim.Campaign.prepare trace
             {
               Sim.Campaign.mechanism;
               pbf = 0.3;
               samples = 4000;
               seed = 5;
               jobs;
               bound = None;
             })
      in
      let reference = run 1 in
      List.iter
        (fun jobs ->
          let r = run jobs in
          let tag s = Printf.sprintf "jobs=%d %s" jobs s in
          Alcotest.(check (array int)) (tag "histogram") reference.Sim.Campaign.counts
            r.Sim.Campaign.counts;
          Alcotest.(check int)
            (tag "merged replays")
            reference.Sim.Campaign.srb_merged_replays r.Sim.Campaign.srb_merged_replays;
          Alcotest.(check string)
            (tag "digest (moment bits included)")
            (Sim.Campaign.digest reference) (Sim.Campaign.digest r))
        [ 2; 4; 13 ])
    [ Sim.Campaign.No_protection
    ; Sim.Campaign.Reliable_way
    ; Sim.Campaign.Shared_reliable_buffer
    ]

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "matches Array.map" `Quick test_pool_matches_array_map
        ; Alcotest.test_case "mapi" `Quick test_pool_mapi_indexes
        ; Alcotest.test_case "ordered under skew" `Quick test_pool_preserves_order_under_skew
        ; Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception
        ; Alcotest.test_case "edge sizes" `Quick test_pool_empty_and_singleton
        ; Alcotest.test_case "spawn failure joins workers" `Quick
            test_pool_spawn_failure_joins_workers
        ; Alcotest.test_case "persistent workers run/shed/shutdown" `Quick
            test_workers_run_shed_shutdown
        ; Alcotest.test_case "mapi_result crash isolation" `Quick test_mapi_result_isolates_crash
        ; Alcotest.test_case "mapi_result deterministic" `Quick
            test_mapi_result_deterministic_across_jobs
        ; Alcotest.test_case "map_result deadline" `Quick test_map_result_deadline
        ; Alcotest.test_case "map_result clean run" `Quick test_map_result_matches_map_when_clean
        ; Alcotest.test_case "reduce_pairs_result clean" `Quick test_reduce_pairs_result_clean
        ] )
    ; ( "run_dag",
        [ Alcotest.test_case "deterministic across jobs" `Quick
            test_run_dag_deterministic_across_jobs
        ; Alcotest.test_case "crash isolation + propagation" `Quick
            test_run_dag_crash_isolation_and_propagation
        ; Alcotest.test_case "deadline refusal" `Quick test_run_dag_deadline
        ; Alcotest.test_case "rejects forward deps" `Quick test_run_dag_rejects_forward_deps
        ; Alcotest.test_case "spawn failure joins workers" `Quick
            test_run_dag_spawn_failure_joins_workers
        ; Alcotest.test_case "edge sizes" `Quick test_run_dag_empty_and_singleton
        ] )
    ; ( "determinism",
        [ Alcotest.test_case "fmm jobs 1 = 4" `Quick test_fmm_jobs_bit_identical
        ; Alcotest.test_case "penalty jobs 1 = 4" `Quick test_penalty_jobs_bit_identical
        ; Alcotest.test_case "sim campaign jobs 1 = 2 = 4 = 13" `Quick
            test_sim_campaign_jobs_bit_identical
        ] )
    ]
