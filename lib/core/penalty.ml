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

(* The search for a bound [q] on the quantile at [target]: cut the law
   above [q] and accept it once its own lumped mass [P(X > q)] is at
   most [target], which certifies that the quantile is at most [q];
   otherwise double [q] and cut again. A sum dominates each of its
   non-negative terms, so the largest per-set quantile is a free lower
   bound to start from. Once [q] reaches the largest sum nothing is cut
   and the check passes, so the search ends. Extrapolating the failed
   pass's [log P(X > x)] between [q/2] and [q] instead of doubling
   timed within noise of it (EXPERIMENTS.md, tenth performance pass),
   so the simpler rule stays. *)
let cut_distribution ?max_points ?(jobs = 1) ~fmm ~pbf ~target () =
  if not (Float.is_finite target) || target < 0.0 then
    invalid_arg "Penalty.cut_distribution: target must be finite and non-negative";
  let leaves = leaves ~fmm ~pbf in
  let step = Cache.Config.miss_penalty (Fmm.config fmm) in
  (* The leaves go in the whole reduction's order, so that every kept
     point adds the same products in the same order as the whole law's. *)
  let sizes = Array.map (fun (d, count) -> Prob.Dist.power_size ?max_points d count) leaves in
  let rec search q =
    let law = reduce ?max_points ~above:q ~sizes ~jobs leaves in
    if Prob.Dist.exceedance law q <= target then law else search (max (2 * q) (q + step))
  in
  search (Array.fold_left (fun acc (d, _) -> max acc (Prob.Dist.quantile d ~target)) 0 leaves)
