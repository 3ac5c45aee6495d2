(* The per-set way PMF depends only on (ways, pbf, mechanism) — never on
   the set — so callers batching over sets compute it once and pass it
   down. *)
let way_pmf ~fmm ~pbf =
  let ways = (Fmm.config fmm).Cache.Config.ways in
  match Fmm.mechanism fmm with
  | Mechanism.Reliable_way -> Fault.Model.way_distribution_rw ~ways ~pbf
  | Mechanism.No_protection | Mechanism.Shared_reliable_buffer ->
    Fault.Model.way_distribution ~ways ~pbf

let set_distribution ?pmf ~fmm ~pbf ~set () =
  let config = Fmm.config fmm in
  let penalty = Cache.Config.miss_penalty config in
  let pmf = match pmf with Some p -> p | None -> way_pmf ~fmm ~pbf in
  let points = ref [] in
  Array.iteri
    (fun w p -> if p > 0.0 then points := (Fmm.misses fmm ~set ~faulty:w * penalty, p) :: !points)
    pmf;
  Prob.Dist.of_points !points

(* The active sets grouped by FMM row, in first-seen order, with each
   group's multiplicity. *)
let row_groups ~fmm =
  let config = Fmm.config fmm in
  let ways = config.Cache.Config.ways in
  (* Rows are monotone with a zero first column, so a zero last column
     means the whole row is zero: the set contributes the identity
     distribution (point 0) and can be skipped — on a 64-set cache with
     a handful of referenced sets that avoids dozens of no-op
     convolutions without changing the result. *)
  let active =
    List.filter
      (fun set -> Fmm.misses fmm ~set ~faulty:ways <> 0)
      (List.init config.Cache.Config.sets Fun.id)
  in
  (* Equal FMM rows yield equal distributions (the distribution is a
     function of the row and the shared PMF alone), and on wide caches
     most referenced sets share a handful of row shapes. Group the
     active sets by row in first-seen order (deterministic), build
     each group's distribution once, raise it to the multiplicity by
     squaring, and reduce the per-group results through the pairwise
     tree with per-layer fan-out — ~log-many convolutions where a
     per-set reduction does one per set. *)
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun set ->
      let row = Array.init (ways + 1) (fun w -> Fmm.misses fmm ~set ~faulty:w) in
      match Hashtbl.find_opt groups row with
      | Some count -> incr count
      | None ->
        let count = ref 1 in
        Hashtbl.add groups row count;
        order := (set, count) :: !order)
    active;
  List.rev_map (fun (set, count) -> (set, !count)) !order

(* Each group's distribution with its multiplicity. *)
let leaves ~fmm ~pbf =
  let pmf = way_pmf ~fmm ~pbf in
  Array.of_list
    (List.map (fun (set, count) -> (set_distribution ~pmf ~fmm ~pbf ~set (), count)) (row_groups ~fmm))

(* [sizes], when given, orders the leaves in place of the powed laws'
   own sizes. *)
let reduce ?max_points ?above ?sizes ~jobs leaves =
  let powed =
    Parallel.Pool.map ~jobs
      (fun (d, count) -> Prob.Dist.convolve_pow ?max_points ?above d count)
      leaves
  in
  (* Leaf order is free (only quantile-level agreement with a per-set
     reduction is promised), and it drives the reduction cost: the
     dense convolution kernel is O(n * m), so a balanced split of the
     final support is the worst case (big x big at the root). Sorting
     the leaves largest-first clusters the heavy groups into one
     subtree, making every reduction step big x small. Deterministic
     (ties broken by position, independent of [jobs]). *)
  let size i d = match sizes with Some sizes -> sizes.(i) | None -> Prob.Dist.size d in
  let decorated = Array.mapi (fun i d -> (i, size i d, d)) powed in
  Array.sort
    (fun (i, a, _) (j, b, _) ->
      let c = compare b a in
      if c <> 0 then c else compare i j)
    decorated;
  match
    Parallel.Pool.reduce_pairs ~jobs
      (fun a b -> Prob.Dist.convolve ?max_points ?above a b)
      (Array.map (fun (_, _, d) -> d) decorated)
  with
  | Some d -> d
  | None -> Prob.Dist.point 0

let total_distribution ?max_points ?(jobs = 1) ~fmm ~pbf () =
  reduce ?max_points ~jobs (leaves ~fmm ~pbf)

let check_target fn target =
  if not (Float.is_finite target) || target < 0.0 then
    invalid_arg ("Penalty." ^ fn ^ ": target must be finite and non-negative")

(* A Chernoff bound on the quantile at [target] of the sum of the
   leaves. For every theta > 0, Markov's inequality on [e^(theta X)]
   gives [P(X >= Q) <= M(theta) e^(-theta Q)], and the sets are
   independent, so [log M(theta)] is the sum over the groups of
   [count * log M_g(theta)], each [M_g] a log-sum-exp over the group
   law's at most [W+1] points. The [Q] at which the right side is
   [target], [(log M(theta) - log target) / theta], bounds the exact
   quantile for every theta; its sublevel sets in theta are intervals
   (log M is convex), so a golden-section search over log theta finds
   the least. Sixteen steps narrow log theta to about 0.01; more moved
   the mean bound over the 600 grid-pfail laws by less than 0.1 %, and
   the precision only moves the bound's tightness, never its validity.
   The bound is rounded up and clamped to the largest sum, above which
   nothing is cut. theta runs from 1e-3 over the largest sum (below 1
   over it the bound exceeds that sum for every target under 1/e, since
   [log M(theta)] is at least theta times the mean) to e^8 over the
   miss penalty, where each group's [M_g] is its top point's term
   alone. *)
let chernoff_bound ~step ~target leaves =
  let groups =
    Array.map
      (fun (d, count) ->
        let points = Array.of_list (Prob.Dist.support d) in
        (count, Array.map fst points, Array.map (fun (_, p) -> log p) points))
      leaves
  in
  let largest =
    Array.fold_left (fun acc (count, xs, _) -> acc + (count * xs.(Array.length xs - 1))) 0 groups
  in
  let bound u =
    let theta = exp u in
    let log_mgf = ref 0.0 in
    for g = 0 to Array.length groups - 1 do
      let count, xs, lps = groups.(g) in
      let m = ref neg_infinity in
      for i = 0 to Array.length xs - 1 do
        m := Float.max !m ((theta *. float_of_int xs.(i)) +. lps.(i))
      done;
      let s = ref 0.0 in
      for i = 0 to Array.length xs - 1 do
        s := !s +. exp ((theta *. float_of_int xs.(i)) +. lps.(i) -. !m)
      done;
      log_mgf := !log_mgf +. (float_of_int count *. (!m +. log !s))
    done;
    (!log_mgf -. log target) /. theta
  in
  if largest = 0 then 0
  else begin
    let r = (sqrt 5.0 -. 1.0) /. 2.0 in
    let a = ref (log 1e-3 -. log (float_of_int largest))
    and b = ref (8.0 -. log (float_of_int step)) in
    let c = ref (!b -. (r *. (!b -. !a))) and d = ref (!a +. (r *. (!b -. !a))) in
    let fc = ref (bound !c) and fd = ref (bound !d) in
    for _ = 1 to 16 do
      if !fc <= !fd then begin
        b := !d;
        d := !c;
        fd := !fc;
        c := !b -. (r *. (!b -. !a));
        fc := bound !c
      end
      else begin
        a := !c;
        c := !d;
        fc := !fd;
        d := !a +. (r *. (!b -. !a));
        fd := bound !d
      end
    done;
    let q = Float.min !fc !fd in
    if Float.is_nan q || q >= float_of_int largest then largest
    else max 0 (int_of_float (Float.ceil q))
  end

let quantile_bound ~fmm ~pbf ~target =
  check_target "quantile_bound" target;
  chernoff_bound ~step:(Cache.Config.miss_penalty (Fmm.config fmm)) ~target (leaves ~fmm ~pbf)

(* The search for a bound [q] on the quantile at [target]: cut the law
   above [q] and accept it once its own lumped mass [P(X > q)] is at
   most [target], which certifies that the quantile is at most [q].
   [q] starts at the Chernoff bound above, which in exact arithmetic
   the check accepts on the first pass; the float check stays the
   certificate, and should it fail (rounding, or a cut law that reaches
   the cap and folds mass past [q]) [q] doubles and the law is cut
   again. Once [q] reaches the largest sum nothing is cut and the check
   passes, so the search ends. A start below the quantile, such as the
   largest per-set quantile, costs failed passes: doubling from that
   one failed 620 per 150 grid-pfail laws at pfail 1e-6
   (EXPERIMENTS.md, eleventh performance pass). *)
let cut_distribution ?max_points ?(jobs = 1) ~fmm ~pbf ~target () =
  check_target "cut_distribution" target;
  let leaves = leaves ~fmm ~pbf in
  let step = Cache.Config.miss_penalty (Fmm.config fmm) in
  (* The leaves go in the whole reduction's order, so that every kept
     point adds the same products in the same order as the whole law's. *)
  let sizes = Array.map (fun (d, count) -> Prob.Dist.power_size ?max_points d count) leaves in
  let rec search q =
    let law = reduce ?max_points ~above:q ~sizes ~jobs leaves in
    if Prob.Dist.exceedance law q <= target then law else search (max (2 * q) (q + step))
  in
  search (chernoff_bound ~step ~target leaves)
