type policy = Rm | Edf

let policy_name = function Rm -> "rm" | Edf -> "edf"

let policy_of_string =
  Pwcet.Param.lookup ~what:"policy" ~names:[ "rm"; "edf" ] (function
    | "rm" -> Some Rm
    | "edf" -> Some Edf
    | _ -> None)

type model = {
  bench : string;
  utilisation : float;
  exec : Prob.Dist.t;
  period : int;
  p_exec : float;
  rung : Robust.Rung.t;
}

let model_of_law ~bench ~utilisation ~law ~rep_target ~fault_rate_per_hour ~cycles_per_hour ~rung
    =
  if not (Float.is_finite utilisation) || utilisation <= 0.0 || utilisation > 1.0 then
    invalid_arg "Analysis.model_of_law: utilisation outside (0,1]";
  if Prob.Dist.size law = 0 then invalid_arg "Analysis.model_of_law: law has empty support";
  (* The provisioned per-execution budget is the law's quantile at the
     replenishment target; the period spreads it over the task's
     utilisation share. Fault exposure is that same budget — snippet
     1's model: the detection window is the provisioned WCET, not the
     (unknowable at analysis time) actual run length. *)
  let rep = max 1 (Prob.Dist.quantile law ~target:rep_target) in
  let period = max rep (int_of_float (Float.ceil (float_of_int rep /. utilisation))) in
  let p_exec = Reexec.p_exec ~fault_rate_per_hour ~cycles_per_hour ~exec_cycles:rep in
  { bench; utilisation; exec = law; period; p_exec; rung }

type params = {
  policy : policy;
  budget : int;
  k_max : int;
  max_points : int;
  cycles_per_hour : float;
  targets : float list;
}

let default_targets = [ 1e-3; 1e-5; 1e-7; 1e-9 ]

type task_verdict = {
  model : model;
  p_job : float;
  p_hour : float;
  jobs_per_hour : float;
  task_rung : Robust.Rung.t;
  capped : bool;
  error : Robust.Pwcet_error.t option;
}

type verdict = {
  set_index : int;
  tasks : task_verdict list;
  p_system_hour : float;
  rung : Robust.Rung.t;
  capped : bool;
  degraded : bool;
  passes : (float * bool) list;
  min_budget : (float * int option) list;
}

let check_params params =
  if params.budget < 0 then invalid_arg "Analysis.analyze: negative re-execution budget";
  if params.k_max < params.budget then invalid_arg "Analysis.analyze: k_max below budget";
  if params.max_points < 2 then invalid_arg "Analysis.analyze: max_points must be at least 2";
  if not (Float.is_finite params.cycles_per_hour) || params.cycles_per_hour <= 0.0 then
    invalid_arg "Analysis.analyze: cycles_per_hour must be positive";
  List.iter
    (fun t ->
      if not (Float.is_finite t) || t <= 0.0 || t > 1.0 then
        invalid_arg "Analysis.analyze: target outside (0,1]")
    params.targets

(* Jobs of task [j] that can execute inside one job window of task [i].
   RM: only higher-priority tasks (shorter period, ties by index)
   interfere, ceil(D_i/T_j) releases each. EDF: jobs of [j] with
   deadline at or before D_i — the demand-bound count floor(D_i/T_j)
   for implicit deadlines. *)
let interference_jobs ~policy models i j =
  let ti = models.(i).period and tj = models.(j).period in
  match policy with
  | Rm -> if tj < ti || (tj = ti && j < i) then (ti + tj - 1) / tj else 0
  | Edf -> if ti < tj then 0 else ti / tj

type sys = {
  stasks : task_verdict list;
  p_sys : float;
}

let analyze ?budget ~params ~set_index models =
  let n = Array.length models in
  if n = 0 then invalid_arg "Analysis.analyze: empty model array";
  check_params params;
  let max_points = params.max_points in
  (* Per-task convolution-power ladders up to k_max, built lazily and
     shared by the verdict read and the minimal-budget scan. *)
  let ladders = Array.make n None in
  let ladder i =
    match ladders.(i) with
    | Some l -> l
    | None ->
      let l = Reexec.powers ~max_points ~budget:params.k_max models.(i).exec in
      ladders.(i) <- Some l;
      l
  in
  let deadline_expired () =
    match budget with Some b -> Robust.Budget.expired b | None -> false
  in
  let jobs_per_hour i = params.cycles_per_hour /. float_of_int models.(i).period in
  let degraded_task k i =
    {
      model = models.(i);
      p_job = 1.0;
      p_hour = 1.0;
      jobs_per_hour = jobs_per_hour i;
      task_rung = Robust.Rung.Structural;
      capped = false;
      error =
        Some
          (Robust.Pwcet_error.Budget_exhausted
             (Printf.sprintf "sched analysis: set %d, task %d, re-execution budget %d"
                set_index i k));
    }
  in
  let task_at k i =
    if deadline_expired () then degraded_task k i
    else begin
      let m = models.(i) in
      let capped = ref false in
      let note d =
        if Prob.Dist.size d >= max_points then capped := true;
        d
      in
      let parts = ref [] in
      for j = n - 1 downto 0 do
        if j <> i then begin
          let jobs = interference_jobs ~policy:params.policy models i j in
          if jobs > 0 then begin
            let demand =
              note
                (Reexec.interference_demand ~max_points ~p:models.(j).p_exec ~budget:k
                   (ladder j))
            in
            parts := note (Prob.Dist.convolve_pow ~max_points demand jobs) :: !parts
          end
        end
      done;
      let interference = note (Prob.Dist.convolve_all ~max_points !parts) in
      (* p_job = p^(k+1) + sum_j p^j (1-p) P(I + C^(j+1) > D), with the
         convolution powers grown incrementally onto the interference:
         (I * C) * C ... — under capping this differs from I * (C^j)
         only conservatively (every cap folds mass upward). *)
      let weights, residual = Reexec.attempt_weights ~p:m.p_exec ~budget:k in
      let acc = Numeric.Kahan.create () in
      Numeric.Kahan.add acc residual;
      let cur = ref interference in
      for j = 0 to k do
        cur := note (Prob.Dist.convolve ~max_points !cur m.exec);
        Numeric.Kahan.add acc (weights.(j) *. Prob.Dist.exceedance !cur m.period)
      done;
      let p_job = Numeric.Probfloat.clamp01 (Numeric.Kahan.total acc) in
      let jobs_per_hour = jobs_per_hour i in
      let p_hour = Numeric.Probfloat.one_minus_pow_one_minus_real ~p:p_job ~n:jobs_per_hour in
      {
        model = m;
        p_job;
        p_hour;
        jobs_per_hour;
        task_rung =
          Robust.Rung.worst m.rung
            (if !capped then Robust.Rung.Relaxed else Robust.Rung.Exact);
        capped = !capped;
        error = None;
      }
    end
  in
  let system k =
    let rev = ref [] in
    for i = 0 to n - 1 do
      rev := task_at k i :: !rev
    done;
    let stasks = List.rev !rev in
    let p_sys =
      if List.exists (fun tv -> tv.p_hour >= 1.0) stasks then 1.0
      else begin
        let acc = Numeric.Kahan.create () in
        List.iter (fun tv -> Numeric.Kahan.add acc (Float.log1p (-.tv.p_hour))) stasks;
        Numeric.Probfloat.clamp01 (-.Float.expm1 (Numeric.Kahan.total acc))
      end
    in
    { stasks; p_sys }
  in
  let memo = Array.make (params.k_max + 1) None in
  let system_at k =
    match memo.(k) with
    | Some s -> s
    | None ->
      let s = system k in
      memo.(k) <- Some s;
      s
  in
  let headline = system_at params.budget in
  (* Linear scan from k = 0: system failure need not be monotone in a
     global budget (interfering jobs re-execute more, too), so "the
     smallest k that meets the target" is found by looking, not by
     bisection. *)
  let min_budget =
    List.map
      (fun target ->
        let rec find k =
          if k > params.k_max then None
          else if (system_at k).p_sys <= target then Some k
          else find (k + 1)
        in
        (target, find 0))
      params.targets
  in
  let rung =
    List.fold_left
      (fun acc tv -> Robust.Rung.worst acc tv.task_rung)
      Robust.Rung.Exact headline.stasks
  in
  {
    set_index;
    tasks = headline.stasks;
    p_system_hour = headline.p_sys;
    rung;
    capped = List.exists (fun (tv : task_verdict) -> tv.capped) headline.stasks;
    degraded = List.exists (fun (tv : task_verdict) -> tv.error <> None) headline.stasks;
    passes = List.map (fun t -> (t, headline.p_sys <= t)) params.targets;
    min_budget;
  }
