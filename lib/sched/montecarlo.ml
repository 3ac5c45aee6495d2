type task_stat = {
  misses : int;
  empirical : float;
  analytic : float;
  noise : float;
  pass : bool;
}

type t = {
  samples : int;
  seed : int;
  tasks : task_stat list;
  pass : bool;
}

(* One job of [m]: executions until success or budget exhaustion, each
   execution drawn from the task's law by inverse CDF. [u] lies in
   [0,1), so the tail target 1-u lies in (0,1] and the quantile is the
   smallest support point whose strict tail drops to it — the exact
   inverse of the staircase the analysis integrates. *)
let simulate_job uniform (m : Analysis.model) ~budget =
  let total = ref 0 in
  let succeeded = ref false in
  let attempt = ref 0 in
  while (not !succeeded) && !attempt <= budget do
    incr attempt;
    let u = uniform () in
    total := !total + Prob.Dist.quantile m.exec ~target:(1.0 -. u);
    if uniform () >= m.p_exec then succeeded := true
  done;
  (!total, !succeeded)

let run ~seed ~samples ~reexec_budget ~policy ~models ~analytic =
  if samples < 1 then invalid_arg "Montecarlo.run: samples must be at least 1";
  if reexec_budget < 0 then invalid_arg "Montecarlo.run: negative re-execution budget";
  let n = Array.length models in
  if n = 0 then invalid_arg "Montecarlo.run: empty model array";
  if Array.length analytic <> n then invalid_arg "Montecarlo.run: analytic/model length mismatch";
  let misses = Array.make n 0 in
  for sample = 0 to samples - 1 do
    let stream = Sim.Rng.stream ~seed ~sample in
    let draw = ref 0 in
    let uniform () =
      let u = Sim.Rng.uniform ~stream ~draw:!draw in
      incr draw;
      u
    in
    (* Fixed draw order — task by task, own job first, then each
       interfering task's jobs in index order — so the run is a pure
       function of (seed, sample). *)
    for i = 0 to n - 1 do
      let own, ok = simulate_job uniform models.(i) ~budget:reexec_budget in
      let interference = ref 0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          let jobs = Analysis.interference_jobs ~policy models i j in
          for _ = 1 to jobs do
            let t, _ = simulate_job uniform models.(j) ~budget:reexec_budget in
            interference := !interference + t
          done
        end
      done;
      if (not ok) || !interference + own > models.(i).period then
        misses.(i) <- misses.(i) + 1
    done
  done;
  let nf = float_of_int samples in
  let rev = ref [] in
  for i = n - 1 downto 0 do
    let empirical = float_of_int misses.(i) /. nf in
    let noise = Sim.Campaign.noise_allowance ~samples analytic.(i) in
    rev :=
      {
        misses = misses.(i);
        empirical;
        analytic = analytic.(i);
        noise;
        pass = empirical <= analytic.(i) +. noise;
      }
      :: !rev
  done;
  let tasks = !rev in
  { samples; seed; tasks; pass = List.for_all (fun (s : task_stat) -> s.pass) tasks }
