(* Tests for lib/sched: UUniFast generation, the bounded re-execution
   model, deadline-failure analysis monotonicity, campaign determinism
   and the wire round trip. Synthetic laws keep the property tests off
   the estimator; one small two-benchmark campaign exercises the real
   pipeline end to end. *)

module T = Sched.Taskset
module A = Sched.Analysis
module Re = Sched.Reexec
module C = Sched.Campaign
module D = Prob.Dist

let feq = Alcotest.(check (float 1e-12))
let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

(* --- UUniFast ---------------------------------------------------------- *)

let benches = [ "fibcall"; "bs"; "cnt"; "crc" ]

let gen_taskset_spec =
  QCheck2.Gen.(
    let* n_tasks = int_range 1 8 in
    (* Per-task average utilisation capped at 0.65: UUniFast-discard's
       acceptance probability collapses as U approaches n (every
       component must stay within (0,1]); campaigns live well below
       that, and the hard failure past 10k redraws has its own test. *)
    let* frac = float_range 0.05 0.65 in
    let* seed = int_range 0 10_000 in
    let* index = int_range 0 500 in
    return ({ T.n_tasks; utilisation = frac *. float_of_int n_tasks; seed; benchmarks = benches }, index))

let uunifast_props =
  [ prop "utilisations sum to U, each in (0,1]" gen_taskset_spec (fun (spec, index) ->
        let ts = T.generate spec ~index in
        List.length ts.T.tasks = spec.T.n_tasks
        && Float.abs (T.total_utilisation ts -. spec.T.utilisation) < 1e-9
        && List.for_all
             (fun (t : T.task) ->
               t.T.utilisation > 0.0 && t.T.utilisation <= 1.0 && List.mem t.T.bench benches)
             ts.T.tasks)
  ; prop "generation is pure in (spec, index)" gen_taskset_spec (fun (spec, index) ->
        T.generate spec ~index = T.generate spec ~index)
  ; prop "neighbouring indices draw independently" gen_taskset_spec (fun (spec, index) ->
        (* Generating index+1 first must not disturb index. *)
        let b = T.generate spec ~index:(index + 1) in
        let a = T.generate spec ~index in
        ignore b;
        a = T.generate spec ~index)
  ]

let test_uunifast_discard_exhausts () =
  (* U within a hair of n: essentially every redraw has a component
     above 1, and the discard loop must fail loudly instead of spinning
     forever. *)
  let spec = { T.n_tasks = 6; utilisation = 5.94; seed = 1; benchmarks = benches } in
  match T.generate spec ~index:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the discard loop to give up"

(* --- re-execution model ------------------------------------------------- *)

let test_attempt_weights () =
  let p = 0.3 and budget = 4 in
  let weights, residual = Re.attempt_weights ~p ~budget in
  Alcotest.(check int) "length" (budget + 1) (Array.length weights);
  for j = 0 to budget do
    feq (Printf.sprintf "w(%d)" j) ((p ** float_of_int j) *. (1.0 -. p)) weights.(j)
  done;
  feq "residual" (p ** 5.0) residual;
  feq "total" 1.0 (Numeric.Kahan.sum_array weights +. residual);
  (* Deep regime: tiny p keeps the first weight near 1 and the residual
     exactly p^(budget+1) — products of exact powers, no cancellation. *)
  let w, r = Re.attempt_weights ~p:1e-9 ~budget:2 in
  feq "tiny residual" 1e-27 r;
  Alcotest.(check bool) "tiny head" true (w.(0) > 1.0 -. 1e-8)

let exec_law = D.of_points [ (100, 0.9); (150, 0.09); (400, 0.01) ]

let test_demand_masses () =
  let p = 0.2 and budget = 3 in
  let powers = Re.powers ~budget exec_law in
  Alcotest.(check int) "ladder length" (budget + 1) (Array.length powers);
  for j = 0 to budget do
    Alcotest.(check (list (pair int (float 1e-12))))
      (Printf.sprintf "ladder %d = convolve_pow %d" j (j + 1))
      (D.support (D.convolve_pow exec_law (j + 1)))
      (D.support powers.(j))
  done;
  let own = Re.own_demand ~p ~budget powers in
  let interference = Re.interference_demand ~p ~budget powers in
  feq "own mass misses the residual" (1.0 -. (p ** 4.0)) (D.total_mass own);
  feq "interference mass is 1" 1.0 (D.total_mass interference);
  (* Interference dominates own demand: same mixture plus the residual
     on the top rung. *)
  List.iter
    (fun (x, _) ->
      Alcotest.(check bool) "interference >= own" true
        (D.exceedance interference x +. 1e-12 >= D.exceedance own x))
    (D.support interference)

let test_p_exec_deep () =
  (* 36 seconds of a 100 MHz hour at rate 1e-12/hour: the per-execution
     probability is rate/100 and must not round to 0. *)
  let cycles_per_hour = 3.6e11 in
  let p = Re.p_exec ~fault_rate_per_hour:1e-12 ~cycles_per_hour ~exec_cycles:3_600_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "deep rate survives (%g)" p)
    true
    (p > 0.99e-14 && p < 1.01e-14);
  feq "zero rate" 0.0 (Re.p_exec ~fault_rate_per_hour:0.0 ~cycles_per_hour ~exec_cycles:1000)

(* --- analysis monotonicity ---------------------------------------------- *)

let params ?(policy = A.Rm) ?(budget = 0) ?(k_max = budget) ?(max_points = 4096) () =
  { A.policy; budget; k_max; max_points; cycles_per_hour = 3.6e11; targets = [ 1e-3; 1e-9 ] }

let gen_law =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* xs = list_size (return n) (int_range 1 500) in
    let* ws = list_size (return n) (float_range 0.05 1.0) in
    let total = List.fold_left ( +. ) 0.0 ws in
    let pts = List.map2 (fun x w -> (x, w /. total)) xs ws in
    (* of_points merges duplicate penalties. *)
    return (D.of_points pts))

let p_job_of verdict = (List.hd verdict.A.tasks).A.p_job

let monotonicity_props =
  [ prop "single-task p_job non-increasing in re-execution budget k"
      QCheck2.Gen.(triple gen_law (float_range 0.01 0.5) (float_range 0.05 0.8))
      (fun (law, p_exec, rep_target) ->
        let period = max 1 (D.quantile law ~target:rep_target) in
        let model =
          { A.bench = "syn"; utilisation = 1.0; exec = law; period; p_exec
          ; rung = Robust.Rung.Exact }
        in
        let at k = p_job_of (A.analyze ~params:(params ~budget:k ()) ~set_index:0 [| model |]) in
        let ok = ref true in
        let prev = ref (at 0) in
        for k = 1 to 4 do
          let v = at k in
          if v > !prev +. 1e-12 then ok := false;
          prev := v
        done;
        !ok)
  ; prop "p_system non-decreasing in the fault-penalty mass (fixed periods)"
      QCheck2.Gen.(triple (float_range 0.0 0.4) (float_range 0.0 0.5) (float_range 0.01 0.3))
      (fun (q, dq, p_exec) ->
        (* Higher pfail shifts law mass onto the penalty rung; periods
           stay fixed so only the stochastic order of the laws moves. *)
        let law q = D.of_points [ (100, 1.0 -. q); (260, q) ] in
        let interferer = D.of_points [ (80, 0.95); (120, 0.05) ] in
        let models q =
          [| { A.bench = "victim"; utilisation = 0.5; exec = law q; period = 400; p_exec
             ; rung = Robust.Rung.Exact }
           ; { A.bench = "noise"; utilisation = 0.5; exec = interferer; period = 150
             ; p_exec; rung = Robust.Rung.Exact }
          |]
        in
        let run q =
          (A.analyze ~params:(params ~budget:1 ()) ~set_index:0 (models q)).A.p_system_hour
        in
        run (q +. (dq *. (1.0 -. q))) +. 1e-12 >= run q)
  ; prop "p_system non-decreasing in p_exec (fixed laws and periods)"
      QCheck2.Gen.(pair (float_range 0.01 0.4) (float_range 0.0 0.5))
      (fun (p, dp) ->
        let law = D.of_points [ (100, 0.9); (260, 0.1) ] in
        let models p =
          [| { A.bench = "a"; utilisation = 0.5; exec = law; period = 400; p_exec = p
             ; rung = Robust.Rung.Exact }
           ; { A.bench = "b"; utilisation = 0.5; exec = law; period = 150; p_exec = p
             ; rung = Robust.Rung.Exact }
          |]
        in
        let run p =
          (A.analyze ~params:(params ~budget:1 ()) ~set_index:0 (models p)).A.p_system_hour
        in
        run (p +. (dp *. (1.0 -. p))) +. 1e-12 >= run p)
  ]

let test_capping_conservative_and_recorded () =
  let law = D.of_points (List.init 64 (fun i -> (10 + (7 * i), 1.0 /. 64.0))) in
  let model =
    { A.bench = "wide"; utilisation = 0.8; exec = law
    ; period = 600; p_exec = 0.1; rung = Robust.Rung.Exact }
  in
  let models = [| model; { model with A.bench = "peer"; period = 170 } |] in
  let exact = A.analyze ~params:(params ~budget:2 ~max_points:65536 ()) ~set_index:0 models in
  let capped = A.analyze ~params:(params ~budget:2 ~max_points:8 ()) ~set_index:0 models in
  Alcotest.(check bool) "capping recorded" true capped.A.capped;
  Alcotest.(check bool) "rung at least Relaxed" true
    (Robust.Rung.worst capped.A.rung Robust.Rung.Relaxed = capped.A.rung);
  Alcotest.(check bool) "uncapped run is exact-rung" false exact.A.capped;
  List.iter2
    (fun (c : A.task_verdict) (e : A.task_verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "capped p_job %.6g >= exact %.6g" c.A.p_job e.A.p_job)
        true
        (c.A.p_job +. 1e-12 >= e.A.p_job))
    capped.A.tasks exact.A.tasks

let test_expired_budget_degrades () =
  let b = Robust.Budget.make ~timeout:0.0 () in
  while not (Robust.Budget.expired b) do () done;
  let model =
    { A.bench = "syn"; utilisation = 0.5; exec = exec_law
    ; period = 300; p_exec = 0.1; rung = Robust.Rung.Exact }
  in
  let v = A.analyze ~budget:b ~params:(params ()) ~set_index:7 [| model; model |] in
  Alcotest.(check bool) "degraded" true v.A.degraded;
  Alcotest.(check (float 0.)) "sound upper bound" 1.0 v.A.p_system_hour;
  List.iter
    (fun (tv : A.task_verdict) ->
      Alcotest.(check (float 0.)) "p_job = 1" 1.0 tv.A.p_job;
      Alcotest.(check bool) "structural rung" true (tv.A.task_rung = Robust.Rung.Structural);
      Alcotest.(check bool) "budget-exhausted error" true
        (match tv.A.error with
        | Some (Robust.Pwcet_error.Budget_exhausted _) -> true
        | _ -> false))
    v.A.tasks

(* --- campaign: determinism, wire, Monte-Carlo ---------------------------- *)

let small_spec =
  match
    C.make ~count:6 ~n_tasks:2 ~utilisation:0.6 ~seed:11 ~benchmarks:[ "fibcall"; "bs" ]
      ~sets:8 ~ways:2 ()
  with
  | Ok s -> s
  | Error e -> failwith e

(* Laws once: the expensive static-analysis half of the campaign. *)
let small_laws = lazy (C.laws small_spec)

let test_campaign_jobs_deterministic () =
  let laws = Lazy.force small_laws in
  let r1 = C.run_with_laws ~jobs:1 small_spec laws in
  let r3 = C.run_with_laws ~jobs:3 small_spec laws in
  Alcotest.(check string) "jobs 1 = jobs 3 digest" r1.C.digest r3.C.digest;
  Alcotest.(check int) "all sets analysed" small_spec.C.count (List.length r1.C.results);
  Alcotest.(check bool) "zero aborts" true
    (List.for_all (fun (r : C.set_result) -> not r.C.degraded) r1.C.results)

let test_campaign_set_isolation () =
  (* Analysing one set in isolation reproduces the campaign's entry:
     no hidden state flows between sets. *)
  let laws = Lazy.force small_laws in
  let full = C.run_with_laws ~jobs:1 small_spec laws in
  let solo, _ = C.analyze_set small_spec laws ~index:3 in
  let from_run = List.nth full.C.results 3 in
  Alcotest.(check string) "set 3 alone = set 3 of the run"
    (Digest.to_hex (Digest.string (C.result_to_wire from_run)))
    (Digest.to_hex (Digest.string (C.result_to_wire solo)))

let test_campaign_batched_equals_independent () =
  (* Laws computed once for the whole campaign give every set the same
     result as laws re-derived for that set from only its own
     benchmarks: batching may save work, never change a verdict. *)
  let laws = Lazy.force small_laws in
  let batched = C.run_with_laws ~jobs:1 small_spec laws in
  List.iteri
    (fun index (from_batch : C.set_result) ->
      let ts = T.generate (C.taskset_spec small_spec) ~index in
      let benches =
        List.fold_left
          (fun acc (t : T.task) -> if List.mem t.T.bench acc then acc else acc @ [ t.T.bench ])
          [] ts.T.tasks
      in
      let own = C.laws { small_spec with C.benchmarks = benches } in
      let independent, _ = C.analyze_set small_spec own ~index in
      Alcotest.(check string)
        (Printf.sprintf "set %d batched = independent" index)
        (C.result_to_wire from_batch) (C.result_to_wire independent))
    batched.C.results

let test_campaign_wire_roundtrip () =
  let laws = Lazy.force small_laws in
  let r = C.run_with_laws ~jobs:1 small_spec laws in
  List.iter
    (fun (sr : C.set_result) ->
      let wire = C.result_to_wire sr in
      match C.result_of_wire wire with
      | Error e -> Alcotest.fail ("round trip failed: " ^ e)
      | Ok back ->
        Alcotest.(check string) "canonical bytes stable" (Digest.to_hex (Digest.string wire))
          (Digest.to_hex (Digest.string (C.result_to_wire back))))
    r.C.results;
  (* Raw wire bytes are not self-checking (integrity is the store
     codec's job), but a truncated record must be rejected — decode
     demands exact consumption. *)
  let wire = C.result_to_wire (List.hd r.C.results) in
  (match C.result_of_wire (String.sub wire 0 (String.length wire - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated wire accepted")

let test_campaign_skip_on_result () =
  (* Journal replay: skipped sets are taken as given — neither analysed
     nor Monte-Carlo validated — and [on_result] sees exactly the fresh
     ones, once each, on any domain; results and digest keep set order. *)
  let laws = Lazy.force small_laws in
  let full = C.run_with_laws ~jobs:1 small_spec laws in
  let replayed = List.filter (fun (r : C.set_result) -> r.C.set_index mod 2 = 0) full.C.results in
  let lock = Mutex.create () and seen = ref [] in
  let resumed =
    C.run_with_laws ~jobs:3 ~mc_samples:200
      ~skip:(fun index -> List.find_opt (fun (r : C.set_result) -> r.C.set_index = index) replayed)
      ~on_result:(fun (r : C.set_result) ->
        Mutex.protect lock (fun () -> seen := r.C.set_index :: !seen))
      small_spec laws
  in
  Alcotest.(check string) "digest as uninterrupted" full.C.digest resumed.C.digest;
  Alcotest.(check (list int)) "on_result sees the fresh sets" [ 1; 3; 5 ]
    (List.sort compare !seen);
  Alcotest.(check (list int)) "only fresh sets validated" [ 1; 3; 5 ] (List.map fst resumed.C.mc)

let test_campaign_montecarlo_bounds () =
  let laws = Lazy.force small_laws in
  let _, mc = C.analyze_set ~mc_samples:2000 small_spec laws ~index:0 in
  match mc with
  | None -> Alcotest.fail "expected a Monte-Carlo report"
  | Some (mc : Sched.Montecarlo.t) ->
    Alcotest.(check int) "samples" 2000 mc.Sched.Montecarlo.samples;
    Alcotest.(check bool) "analytic bounds empirical" true mc.Sched.Montecarlo.pass

(* The spec's range checks are the request vocabulary's: every target
   strictly inside (0, 1), as on the CLI and the wire, so a target of
   1.0 is refused; a zero fault rate is allowed; an omitted field takes
   [C.default] and an empty benchmark list means the whole registry. *)
let test_campaign_spec_validation () =
  let rejected name r = Alcotest.(check bool) name true (Result.is_error r) in
  rejected "target 1.0" (C.make ~targets:[ 1.0 ] ());
  rejected "target 0" (C.make ~targets:[ 1e-3; 0.0 ] ());
  rejected "no targets" (C.make ~targets:[] ());
  rejected "fault rate 1" (C.make ~fault_rate:1.0 ());
  rejected "geometry 3x4" (C.make ~sets:3 ());
  Alcotest.(check bool) "fault rate 0" true (Result.is_ok (C.make ~fault_rate:0.0 ()));
  Alcotest.(check bool) "defaults" true (C.make () = Ok C.default);
  Alcotest.(check bool) "empty benchmarks = registry" true (C.make ~benchmarks:[] () = Ok C.default)

let () =
  Alcotest.run "sched"
    [ ("uunifast", uunifast_props
        @ [ Alcotest.test_case "discard gives up near U = n" `Quick test_uunifast_discard_exhausts ])
    ; ( "reexec",
        [ Alcotest.test_case "attempt weights" `Quick test_attempt_weights
        ; Alcotest.test_case "demand masses" `Quick test_demand_masses
        ; Alcotest.test_case "deep p_exec" `Quick test_p_exec_deep
        ] )
    ; ("monotonicity", monotonicity_props)
    ; ( "analysis",
        [ Alcotest.test_case "capping conservative" `Quick test_capping_conservative_and_recorded
        ; Alcotest.test_case "expired budget degrades" `Quick test_expired_budget_degrades
        ] )
    ; ( "campaign",
        [ Alcotest.test_case "jobs determinism" `Quick test_campaign_jobs_deterministic
        ; Alcotest.test_case "set isolation" `Quick test_campaign_set_isolation
        ; Alcotest.test_case "batched = independent laws" `Quick
            test_campaign_batched_equals_independent
        ; Alcotest.test_case "wire round trip" `Quick test_campaign_wire_roundtrip
        ; Alcotest.test_case "skip and on_result" `Quick test_campaign_skip_on_result
        ; Alcotest.test_case "monte-carlo bounds" `Quick test_campaign_montecarlo_bounds
        ; Alcotest.test_case "spec validation" `Quick test_campaign_spec_validation
        ] )
    ]
