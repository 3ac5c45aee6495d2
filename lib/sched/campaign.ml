type spec = {
  count : int;
  n_tasks : int;
  utilisation : float;
  seed : int;
  policy : Analysis.policy;
  reexec_budget : int;
  k_max : int;
  targets : float list;
  pfail : float;
  mechanism : Pwcet.Mechanism.t;
  sets : int;
  ways : int;
  line : int;
  fault_rate : float;
  clock_mhz : float;
  rep_target : float;
  max_points : int;
  benchmarks : string list;
}

let taskset_spec spec =
  {
    Taskset.n_tasks = spec.n_tasks;
    utilisation = spec.utilisation;
    seed = spec.seed;
    benchmarks = spec.benchmarks;
  }

let cycles_per_hour spec = spec.clock_mhz *. 1e6 *. 3600.0

let default =
  let paper = Cache.Config.paper_default in
  {
    count = 100;
    n_tasks = 4;
    utilisation = 0.6;
    seed = 42;
    policy = Analysis.Rm;
    reexec_budget = 1;
    k_max = 3;
    targets = Analysis.default_targets;
    pfail = Pwcet.Param.pfail;
    mechanism = Pwcet.Mechanism.Shared_reliable_buffer;
    sets = paper.sets;
    ways = paper.ways;
    line = paper.line_bytes;
    fault_rate = 1e-4;
    clock_mhz = 100.0;
    rep_target = 1e-9;
    max_points = 512;
    benchmarks = Benchmarks.Registry.names;
  }

let validate spec =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let field name check x =
    Result.map_error (fun msg -> name ^ ": " ^ msg) (Result.map ignore (check x))
  in
  let* () = check (spec.count >= 1) "count must be at least 1" in
  let* () = Taskset.validate (taskset_spec spec) in
  let* () =
    match List.find_opt (fun b -> Benchmarks.Registry.find b = None) spec.benchmarks with
    | Some b -> Error (Printf.sprintf "unknown benchmark %s" b)
    | None -> Ok ()
  in
  let* () = check (spec.reexec_budget >= 0) "re-execution budget must be non-negative" in
  let* () = check (spec.k_max >= spec.reexec_budget) "k_max must be at least the budget" in
  let* () = check (spec.max_points >= 2) "max_points must be at least 2" in
  let* () = field "pfail" Pwcet.Param.probability spec.pfail in
  let* () = field "fault_rate" Pwcet.Param.rate spec.fault_rate in
  let* () = field "clock_mhz" Pwcet.Param.positive spec.clock_mhz in
  let* () = field "rep_target" Pwcet.Param.probability spec.rep_target in
  let* () = check (spec.targets <> []) "target list is empty" in
  let* () =
    List.fold_left
      (fun acc t ->
        let* () = acc in
        field "target" Pwcet.Param.probability t)
      (Ok ()) spec.targets
  in
  Result.map ignore
    (Cache.Config.of_geometry ~sets:spec.sets ~ways:spec.ways ~line_bytes:spec.line)

let make ?(count = default.count) ?(n_tasks = default.n_tasks)
    ?(utilisation = default.utilisation) ?(seed = default.seed) ?(policy = default.policy)
    ?(reexec_budget = default.reexec_budget) ?(k_max = default.k_max)
    ?(targets = default.targets) ?(pfail = default.pfail) ?(mechanism = default.mechanism)
    ?(sets = default.sets) ?(ways = default.ways) ?(line = default.line)
    ?(fault_rate = default.fault_rate) ?(clock_mhz = default.clock_mhz)
    ?(rep_target = default.rep_target) ?(max_points = default.max_points)
    ?(benchmarks = default.benchmarks) () =
  let benchmarks = if benchmarks = [] then default.benchmarks else benchmarks in
  let spec =
    {
      count;
      n_tasks;
      utilisation;
      seed;
      policy;
      reexec_budget;
      k_max;
      targets;
      pfail;
      mechanism;
      sets;
      ways;
      line;
      fault_rate;
      clock_mhz;
      rep_target;
      max_points;
      benchmarks;
    }
  in
  Result.map (fun () -> spec) (validate spec)

let identity spec =
  [
    ("kind", "sched-campaign");
    ("code", Pwcet.Estimator.code_version);
    ("count", string_of_int spec.count);
    ("n_tasks", string_of_int spec.n_tasks);
    ("utilisation", Pwcet.Estimator.float_key spec.utilisation);
    ("seed", string_of_int spec.seed);
    ("policy", Analysis.policy_name spec.policy);
    ("budget", string_of_int spec.reexec_budget);
    ("k_max", string_of_int spec.k_max);
    ("targets", String.concat "," (List.map Pwcet.Estimator.float_key spec.targets));
    ("pfail", Pwcet.Estimator.float_key spec.pfail);
    ("mechanism", Pwcet.Mechanism.short_name spec.mechanism);
    ("sets", string_of_int spec.sets);
    ("ways", string_of_int spec.ways);
    ("line", string_of_int spec.line);
    ("fault_rate", Pwcet.Estimator.float_key spec.fault_rate);
    ("clock_mhz", Pwcet.Estimator.float_key spec.clock_mhz);
    ("rep_target", Pwcet.Estimator.float_key spec.rep_target);
    ("max_points", string_of_int spec.max_points);
    ("benchmarks", String.concat "," spec.benchmarks);
  ]

(* --- per-benchmark laws ------------------------------------------------ *)

type bench_law = {
  bench : string;
  law : Prob.Dist.t;
  wcet_ff : int;
  law_rung : Robust.Rung.t;
}

let law_of_estimate spec ~bench (est : Pwcet.Estimator.estimate) =
  let wcet_ff = Pwcet.Estimator.fault_free_wcet est.task in
  (* Shift reuses the penalty's exceedance array bit-for-bit; the
     weight-1 mixture is the engine's own upward-conservative re-cap
     down to the sched layer's (much smaller) point budget. *)
  let law =
    Prob.Dist.mixture ~max_points:spec.max_points
      [ (1.0, Prob.Dist.shift wcet_ff est.penalty) ]
  in
  { bench; law; wcet_ff; law_rung = Pwcet.Estimator.worst_rung est }

let distinct_benchmarks spec =
  let seen = Hashtbl.create 31 in
  List.filter
    (fun b ->
      if Hashtbl.mem seen b then false
      else begin
        Hashtbl.add seen b ();
        true
      end)
    spec.benchmarks

let laws ?store ?budget ?(jobs = 1) spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Campaign.laws: " ^ msg));
  let config = Cache.Config.make ~sets:spec.sets ~ways:spec.ways ~line_bytes:spec.line () in
  let compute bench =
    let entry = Option.get (Benchmarks.Registry.find bench) in
    let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
    let task =
      Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ?budget ?store ()
    in
    let est =
      Pwcet.Estimator.estimate task ~pfail:spec.pfail ~mechanism:spec.mechanism ?budget ?store
        ()
    in
    law_of_estimate spec ~bench est
  in
  Array.to_list (Parallel.Pool.map ~jobs compute (Array.of_list (distinct_benchmarks spec)))

(* --- results ----------------------------------------------------------- *)

type task_row = {
  bench : string;
  utilisation : float;
  period : int;
  p_exec : float;
  p_job : float;
  p_hour : float;
  jobs_per_hour : float;
  task_rung : Robust.Rung.t;
  capped : bool;
  error : Robust.Pwcet_error.t option;
}

type set_result = {
  set_index : int;
  rows : task_row list;
  p_system_hour : float;
  rung : Robust.Rung.t;
  capped : bool;
  degraded : bool;
  passes : (float * bool) list;
  min_budget : (float * int option) list;
}

let result_of_verdict (v : Analysis.verdict) =
  {
    set_index = v.set_index;
    rows =
      List.map
        (fun (tv : Analysis.task_verdict) ->
          {
            bench = tv.model.bench;
            utilisation = tv.model.utilisation;
            period = tv.model.period;
            p_exec = tv.model.p_exec;
            p_job = tv.p_job;
            p_hour = tv.p_hour;
            jobs_per_hour = tv.jobs_per_hour;
            task_rung = tv.task_rung;
            capped = tv.capped;
            error = tv.error;
          })
        v.tasks;
    p_system_hour = v.p_system_hour;
    rung = v.rung;
    capped = v.capped;
    degraded = v.degraded;
    passes = v.passes;
    min_budget = v.min_budget;
  }

let put_bool w b = Store.Wire.put_int w (if b then 1 else 0)

let get_bool r =
  match Store.Wire.get_int r with
  | 0 -> false
  | 1 -> true
  | n -> Store.Wire.malformed (Printf.sprintf "bad boolean %d" n)

let put_rung w rung = Store.Wire.put_int w (Robust.Rung.to_tag rung)

let get_rung r =
  match Robust.Rung.of_tag (Store.Wire.get_int r) with
  | Some rung -> rung
  | None -> Store.Wire.malformed "unknown rung tag"

let result_to_wire res =
  let w = Store.Wire.writer () in
  Store.Wire.put_int w res.set_index;
  Store.Wire.put_int w (List.length res.rows);
  List.iter
    (fun row ->
      Store.Wire.put_string w row.bench;
      Store.Wire.put_float w row.utilisation;
      Store.Wire.put_int w row.period;
      Store.Wire.put_float w row.p_exec;
      Store.Wire.put_float w row.p_job;
      Store.Wire.put_float w row.p_hour;
      Store.Wire.put_float w row.jobs_per_hour;
      put_rung w row.task_rung;
      put_bool w row.capped;
      match row.error with
      | None ->
        Store.Wire.put_string w "";
        Store.Wire.put_string w ""
      | Some e ->
        Store.Wire.put_string w (Robust.Pwcet_error.category e);
        Store.Wire.put_string w (Robust.Pwcet_error.message e))
    res.rows;
  Store.Wire.put_float w res.p_system_hour;
  put_rung w res.rung;
  put_bool w res.capped;
  put_bool w res.degraded;
  Store.Wire.put_int w (List.length res.passes);
  List.iter
    (fun (target, ok) ->
      Store.Wire.put_float w target;
      put_bool w ok)
    res.passes;
  Store.Wire.put_int w (List.length res.min_budget);
  List.iter
    (fun (target, k) ->
      Store.Wire.put_float w target;
      Store.Wire.put_int w (match k with None -> -1 | Some k -> k))
    res.min_budget;
  Store.Wire.contents w

let result_of_wire data =
  Store.Wire.decode data (fun r ->
      let set_index = Store.Wire.get_int r in
      let n_rows = Store.Wire.get_int r in
      if n_rows < 0 then Store.Wire.malformed "negative row count";
      let rows =
        List.init n_rows (fun _ ->
            let bench = Store.Wire.get_string r in
            let utilisation = Store.Wire.get_float r in
            let period = Store.Wire.get_int r in
            let p_exec = Store.Wire.get_float r in
            let p_job = Store.Wire.get_float r in
            let p_hour = Store.Wire.get_float r in
            let jobs_per_hour = Store.Wire.get_float r in
            let task_rung = get_rung r in
            let capped = get_bool r in
            let cat = Store.Wire.get_string r in
            let msg = Store.Wire.get_string r in
            let error =
              if cat = "" then None
              else
                match Robust.Pwcet_error.of_category cat msg with
                | Some e -> Some e
                | None -> Store.Wire.malformed ("unknown error category " ^ cat)
            in
            {
              bench;
              utilisation;
              period;
              p_exec;
              p_job;
              p_hour;
              jobs_per_hour;
              task_rung;
              capped;
              error;
            })
      in
      let p_system_hour = Store.Wire.get_float r in
      let rung = get_rung r in
      let capped = get_bool r in
      let degraded = get_bool r in
      let n_passes = Store.Wire.get_int r in
      if n_passes < 0 then Store.Wire.malformed "negative pass count";
      let passes =
        List.init n_passes (fun _ ->
            let target = Store.Wire.get_float r in
            let ok = get_bool r in
            (target, ok))
      in
      let n_min = Store.Wire.get_int r in
      if n_min < 0 then Store.Wire.malformed "negative min-budget count";
      let min_budget =
        List.init n_min (fun _ ->
            let target = Store.Wire.get_float r in
            let k = Store.Wire.get_int r in
            (target, if k < 0 then None else Some k))
      in
      { set_index; rows; p_system_hour; rung; capped; degraded; passes; min_budget })

let digest_of_results results =
  Digest.to_hex (Digest.string (String.concat "" (List.map result_to_wire results)))

(* --- analysis ---------------------------------------------------------- *)

let params_of_spec spec =
  {
    Analysis.policy = spec.policy;
    budget = spec.reexec_budget;
    k_max = spec.k_max;
    max_points = spec.max_points;
    cycles_per_hour = cycles_per_hour spec;
    targets = spec.targets;
  }

let models_of_set spec laws (ts : Taskset.t) =
  let cph = cycles_per_hour spec in
  Array.map
    (fun (t : Taskset.task) ->
      match List.find_opt (fun (bl : bench_law) -> bl.bench = t.bench) laws with
      | None -> invalid_arg (Printf.sprintf "Campaign: no law for benchmark %s" t.bench)
      | Some bl ->
        Analysis.model_of_law ~bench:t.bench ~utilisation:t.utilisation ~law:bl.law
          ~rep_target:spec.rep_target ~fault_rate_per_hour:spec.fault_rate ~cycles_per_hour:cph
          ~rung:bl.law_rung)
    (Array.of_list ts.tasks)

let analyze_set ?budget ?(mc_samples = 0) ?mc_seed spec laws ~index =
  let ts = Taskset.generate (taskset_spec spec) ~index in
  let models = models_of_set spec laws ts in
  let verdict = Analysis.analyze ?budget ~params:(params_of_spec spec) ~set_index:index models in
  let result = result_of_verdict verdict in
  let mc =
    if mc_samples <= 0 then None
    else begin
      let base = Option.value mc_seed ~default:spec.seed in
      (* Per-set seed: avalanche-mixed so sets don't share sample
         streams; still a pure function of (spec seed, index). *)
      let seed = Sim.Rng.mix (base + (index * 0x9e3779)) in
      let analytic =
        Array.of_list (List.map (fun (tv : Analysis.task_verdict) -> tv.p_job) verdict.tasks)
      in
      Some
        (Montecarlo.run ~seed ~samples:mc_samples ~reexec_budget:spec.reexec_budget
           ~policy:spec.policy ~models ~analytic)
    end
  in
  (result, mc)

type t = {
  spec : spec;
  results : set_result list;
  mc : (int * Montecarlo.t) list;
  digest : string;
}

let run_with_laws ?budget ?(jobs = 1) ?mc_samples ?mc_seed ?(skip = fun _ -> None)
    ?(on_result = ignore) spec laws =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Campaign.run: " ^ msg));
  let out =
    Parallel.Pool.map ~jobs
      (fun index ->
        match skip index with
        | Some r -> (r, None)
        | None ->
          let ((r, _) as fresh) = analyze_set ?budget ?mc_samples ?mc_seed spec laws ~index in
          on_result r;
          fresh)
      (Array.init spec.count (fun i -> i))
  in
  let results = Array.to_list (Array.map fst out) in
  let mc =
    Array.to_list out
    |> List.concat_map (fun ((r : set_result), m) ->
           match m with Some m -> [ (r.set_index, m) ] | None -> [])
  in
  { spec; results; mc; digest = digest_of_results results }

let run ?store ?budget ?jobs ?mc_samples ?mc_seed spec =
  let bench_laws = laws ?store ?budget ?jobs spec in
  run_with_laws ?budget ?jobs ?mc_samples ?mc_seed spec bench_laws
