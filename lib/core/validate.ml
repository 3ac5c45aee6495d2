type campaign_check = {
  mechanism : Mechanism.t;
  samples : int;
  seed : int;
  jobs : int;
  wcet_ff : int;
  result : Sim.Campaign.result;
  elapsed_s : float;
  samples_per_sec : float;
  curve_points : int;
  max_gap : float;
  curve_ok : bool;
  bound_ok : bool;
  digest : string;
}

let ok c = c.curve_ok && c.bound_ok

let sim_mechanism : Mechanism.t -> Sim.Campaign.mechanism = function
  | Mechanism.No_protection -> Sim.Campaign.No_protection
  | Mechanism.Reliable_way -> Sim.Campaign.Reliable_way
  | Mechanism.Shared_reliable_buffer -> Sim.Campaign.Shared_reliable_buffer

(* The analytic side reads the upper law cut far below one sample's
   weight. A sampled pattern's penalty is at most its FMM bound, which
   lies above the cut with probability at most [depth], so a campaign
   of [samples] puts a sample there with probability at most 1e-9, and
   every observed value is read where the cut law's points are the
   whole law's. Above the cut the upper law's exceedance, the lumped
   mass, only raises the analytic side, by at most [depth]. *)
let depth ~samples = 1e-9 /. float_of_int samples

(* Empirical vs analytic exceedance at every observed execution time.
   Both sides use the weak form P(X >= x): the analytic distribution is
   [wcet_ff + penalty], so P(X >= x) = P(penalty > x - 1 - wcet_ff) at
   the integer support (the Audit.check_dominance convention). The
   empirical frequency is allowed the campaign's binomial noise slack
   (5 sigma + 1/n, [Sim.Campaign.noise_allowance]). *)
let compare_curve ~(est : Estimator.estimate) (r : Sim.Campaign.result) =
  let wcet_ff = est.Estimator.task.Estimator.wcet_ff in
  let penalty = Estimator.law est ~depth:(depth ~samples:r.Sim.Campaign.samples) in
  let n = float_of_int r.Sim.Campaign.samples in
  let points = ref 0 in
  let max_gap = ref neg_infinity in
  let all_ok = ref true in
  let above = ref 0 in
  let counts = r.Sim.Campaign.counts in
  for d = Array.length counts - 1 downto 0 do
    above := !above + counts.(d);
    if counts.(d) > 0 then begin
      let x = Sim.Campaign.cycles_of_bucket r d in
      let empirical = float_of_int !above /. n in
      let analytic = Prob.Dist.exceedance penalty (x - 1 - wcet_ff) in
      let noise = Sim.Campaign.noise_allowance ~samples:r.Sim.Campaign.samples analytic in
      incr points;
      let gap = empirical -. analytic in
      if gap > !max_gap then max_gap := gap;
      if empirical > analytic +. noise then all_ok := false
    end
  done;
  (!points, (if !points = 0 then 0.0 else !max_gap), !all_ok)

let check ~trace ~(est : Estimator.estimate) ~samples ~seed ~jobs =
  let spec =
    {
      Sim.Campaign.mechanism = sim_mechanism est.Estimator.mechanism;
      pbf = est.Estimator.pbf;
      samples;
      seed;
      jobs;
      bound =
        Some
          {
            Sim.Campaign.bound_base = est.Estimator.task.Estimator.wcet_ff;
            bound_misses = Fmm.table est.Estimator.fmm;
          };
    }
  in
  let t0 = Robust.Budget.now () in
  let campaign = Sim.Campaign.prepare trace spec in
  let result = Sim.Campaign.run campaign in
  let elapsed = Float.max 1e-9 (Robust.Budget.now () -. t0) in
  let curve_points, max_gap, curve_ok = compare_curve ~est result in
  {
    mechanism = est.Estimator.mechanism;
    samples;
    seed;
    jobs;
    wcet_ff = est.Estimator.task.Estimator.wcet_ff;
    result;
    elapsed_s = elapsed;
    samples_per_sec = float_of_int samples /. elapsed;
    curve_points;
    max_gap;
    curve_ok;
    bound_ok = result.Sim.Campaign.bound_violations = 0;
    digest = Sim.Campaign.digest result;
  }

let write_json ~path ~git_commit ~(config : Cache.Config.t) ~pfail ~rows =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema_version\": 2,\n";
  p "  \"git_commit\": %S,\n" git_commit;
  p "  \"sets\": %d,\n" config.Cache.Config.sets;
  p "  \"ways\": %d,\n" config.Cache.Config.ways;
  p "  \"line_bytes\": %d,\n" config.Cache.Config.line_bytes;
  p "  \"hit_latency\": %d,\n" config.Cache.Config.hit_latency;
  p "  \"miss_latency\": %d,\n" config.Cache.Config.miss_latency;
  p "  \"pfail\": %.17g,\n" pfail;
  p "  \"campaigns\": [";
  List.iteri
    (fun i (benchmark, c) ->
      let r = c.result in
      if i > 0 then p ",";
      p "\n    {\n";
      p "      \"benchmark\": %S,\n" benchmark;
      p "      \"mechanism\": %S,\n" (Mechanism.short_name c.mechanism);
      p "      \"samples\": %d,\n" c.samples;
      p "      \"seed\": %d,\n" c.seed;
      p "      \"jobs\": %d,\n" c.jobs;
      p "      \"elapsed_s\": %.6f,\n" c.elapsed_s;
      p "      \"samples_per_sec\": %.1f,\n" c.samples_per_sec;
      p "      \"accesses\": %d,\n" r.Sim.Campaign.accesses;
      p "      \"wcet_ff\": %d,\n" c.wcet_ff;
      p "      \"fault_free_cycles_sim\": %d,\n" r.Sim.Campaign.fault_free_cycles;
      p "      \"fault_free_misses\": %d,\n" r.Sim.Campaign.fault_free_misses;
      p "      \"min_cycles\": %d,\n" r.Sim.Campaign.min_cycles;
      p "      \"max_cycles\": %d,\n" r.Sim.Campaign.max_cycles;
      p "      \"mean_cycles\": %.3f,\n" r.Sim.Campaign.mean_cycles;
      p "      \"curve_points\": %d,\n" c.curve_points;
      p "      \"max_gap\": %.6g,\n" c.max_gap;
      p "      \"curve_ok\": %b,\n" c.curve_ok;
      p "      \"bound_violations\": %d,\n" r.Sim.Campaign.bound_violations;
      p "      \"srb_merged_replays\": %d,\n" r.Sim.Campaign.srb_merged_replays;
      p "      \"digest\": %S\n" c.digest;
      p "    }")
    rows;
  p "\n  ]\n}\n";
  close_out oc
