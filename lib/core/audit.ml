type violation = { check : string; detail : string }
type report = { checks : int; violations : violation list }

let empty = { checks = 0; violations = [] }
let ok r = r.violations = []

let merge reports =
  List.fold_left
    (fun acc r ->
      { checks = acc.checks + r.checks; violations = acc.violations @ r.violations })
    empty reports

let run check tests =
  let violations =
    List.filter_map (fun (holds, detail) -> if holds then None else Some { check; detail }) tests
  in
  { checks = List.length tests; violations }

(* Probability comparisons tolerate compensated-summation noise: both
   sides are sums of the same magnitudes, so the slack is relative to
   the larger side plus an absolute floor far below any mass the
   pipeline distinguishes. *)
let prob_leq a b = a <= b +. (1e-9 *. Float.max 1.0 b) +. 1e-12

let label = function None -> "" | Some l -> Printf.sprintf " [%s]" l

(* FMM invariants: column 0 is the fault-free delta (zero by
   definition), entries are counts, rows are monotone in the fault
   count (more dead blocks can only add misses). *)
let check_fmm ?what fmm =
  let w = label what in
  let config = Fmm.config fmm in
  let ways = config.Cache.Config.ways in
  let tests = ref [] in
  for set = 0 to config.Cache.Config.sets - 1 do
    let row f = Fmm.misses fmm ~set ~faulty:f in
    tests :=
      (row 0 = 0, Printf.sprintf "fmm%s: set %d column 0 is %d, expected 0" w set (row 0))
      :: !tests;
    for f = 1 to ways do
      tests :=
        ( row f >= row (f - 1),
          Printf.sprintf "fmm%s: set %d not monotone at f=%d (%d < %d)" w set f (row f)
            (row (f - 1)) )
        :: (row f >= 0, Printf.sprintf "fmm%s: set %d negative entry at f=%d" w set f)
        :: !tests
    done
  done;
  run "fmm" !tests

(* Distribution invariants: probabilities are in [0, 1], the support is
   strictly ascending, and the total mass is conserved (1 within
   [mass_tol], compensated summation leaves ~1e-12 on real pipelines). *)
let check_distribution ?what ?(mass_tol = 1e-6) dist =
  let w = label what in
  let support = Prob.Dist.support dist in
  let mass = Prob.Dist.total_mass dist in
  let tests =
    ( Float.abs (mass -. 1.0) <= mass_tol,
      Printf.sprintf "dist%s: total mass %.17g drifts from 1 by more than %g" w mass mass_tol )
    :: List.map
         (fun (x, p) ->
           ( Float.is_finite p && p >= 0.0 && p <= 1.0 +. 1e-9,
             Printf.sprintf "dist%s: P(X = %d) = %.17g outside [0, 1]" w x p ))
         support
  in
  let ordering =
    let rec go = function
      | (x, _) :: ((y, _) :: _ as rest) ->
        (x < y, Printf.sprintf "dist%s: support not ascending at %d, %d" w x y) :: go rest
      | _ -> []
    in
    go support
  in
  run "distribution" (tests @ ordering)

(* Exceedance curves are complementary CDFs: values strictly ascending,
   probabilities non-increasing and within [0, 1]. *)
let check_exceedance_curve ?what curve =
  let w = label what in
  let bounds =
    List.map
      (fun (x, p) ->
        ( Float.is_finite p && p >= 0.0 && p <= 1.0 +. 1e-9,
          Printf.sprintf "curve%s: P(X >= %d) = %.17g outside [0, 1]" w x p ))
      curve
  in
  let rec steps = function
    | (x1, p1) :: ((x2, p2) :: _ as rest) ->
      (x1 < x2, Printf.sprintf "curve%s: values not ascending at %d, %d" w x1 x2)
      :: ( prob_leq p2 p1,
           Printf.sprintf "curve%s: exceedance increases from %.17g at %d to %.17g at %d" w p1 x1
             p2 x2 )
      :: steps rest
    | _ -> []
  in
  run "exceedance-curve" (bounds @ steps curve)

(* Mechanism dominance (paper Section III-B): a mitigation mechanism
   can only remove fault-induced misses, so its pWCET exceedance curve
   must lie on or below the unprotected baseline at every value. Both
   curves are queried at the union of their support points. *)
let check_dominance ~baseline ~other =
  let base_curve = Estimator.exceedance_curve baseline in
  let other_curve = Estimator.exceedance_curve other in
  let xs =
    List.sort_uniq compare (List.map fst base_curve @ List.map fst other_curve)
  in
  let exceed e x =
    (* absolute value x: P(wcet_ff + penalty > x), weak form at support *)
    Prob.Dist.exceedance (Estimator.penalty e)
      (x - 1 - Estimator.fault_free_wcet e.Estimator.task)
  in
  let tests =
    List.map
      (fun x ->
        let pb = exceed baseline x and po = exceed other x in
        ( prob_leq po pb,
          Printf.sprintf "dominance: %s exceedance %.17g > baseline %.17g at %d"
            (Mechanism.short_name other.Estimator.mechanism) po pb x ))
      xs
  in
  run "mechanism-dominance" tests

(* The penalty law cannot reach past every set's worst FMM row at once
   (eq. 3 removes the all-dead column under RW): its largest support
   point is at most that ceiling. The cap folds mass upward onto kept
   points, never past the largest one. *)
let check_ceiling ?what e =
  let w = label what in
  let fmm = e.Estimator.fmm in
  let ceiling = Fmm.max_penalty_misses fmm * Cache.Config.miss_penalty (Fmm.config fmm) in
  let top =
    List.fold_left (fun acc (x, _) -> max acc x) 0 (Prob.Dist.support (Estimator.penalty e))
  in
  run "ceiling"
    [
      ( top <= ceiling,
        Printf.sprintf "ceiling%s: penalty support reaches %d, above %d" w top ceiling );
    ]

let what_of ?label e =
  Some (match label with Some l -> l | None -> Mechanism.short_name e.Estimator.mechanism)

let check_estimate ?label:l e =
  let what = what_of ?label:l e in
  merge
    [
      check_fmm ?what e.Estimator.fmm;
      check_distribution ?what (Estimator.penalty e);
      check_exceedance_curve ?what (Estimator.exceedance_curve e);
      check_ceiling ?what e;
    ]

(* Fault injection: the validate campaign draws fault patterns from the
   estimate's law and times each by trace replay, so an FMM that
   under-counts some set's fault misses shows up as a sample above its
   own per-pattern bound, and an unsound law as an empirical exceedance
   above the analytic curve past sampling noise. *)
let check_campaign ?label:l ~trace ~samples ~seed ~jobs e =
  let w = label (what_of ?label:l e) in
  let c = Validate.check ~trace ~est:e ~samples ~seed ~jobs in
  run "campaign"
    [
      ( c.Validate.bound_ok,
        Printf.sprintf "campaign%s: %d of %d sampled fault patterns exceed their FMM bound" w
          c.Validate.result.Sim.Campaign.bound_violations samples );
      ( c.Validate.curve_ok,
        Printf.sprintf
          "campaign%s: empirical exceedance above the analytic curve past sampling noise (max \
           gap %.3g over %d curve points)"
          w c.Validate.max_gap c.Validate.curve_points );
    ]

let pp_violation fmt v = Format.fprintf fmt "VIOLATION %s: %s" v.check v.detail

let pp_report fmt r =
  Format.fprintf fmt "%d checks, %d violations" r.checks (List.length r.violations);
  List.iter (fun v -> Format.fprintf fmt "@.  %a" pp_violation v) r.violations
