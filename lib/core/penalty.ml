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

let total_distribution ?max_points ?(jobs = 1) ~fmm ~pbf () =
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
  let pmf = way_pmf ~fmm ~pbf in
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
  let powed =
    Parallel.Pool.map ~jobs
      (fun (set, count) ->
        Prob.Dist.convolve_pow ?max_points (set_distribution ~pmf ~fmm ~pbf ~set ()) !count)
      (Array.of_list (List.rev !order))
  in
  (* Leaf order is free (only quantile-level agreement with a per-set
     reduction is promised), and it drives the reduction cost: the
     dense convolution kernel is O(n * m), so a balanced split of the
     final support is the worst case (big x big at the root). Sorting
     the leaves largest-first clusters the heavy groups into one
     subtree, making every reduction step big x small. Deterministic
     (ties broken by position, independent of [jobs]). *)
  let decorated = Array.mapi (fun i d -> (i, d)) powed in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = compare (Prob.Dist.size b) (Prob.Dist.size a) in
      if c <> 0 then c else compare i j)
    decorated;
  match
    Parallel.Pool.reduce_pairs ~jobs
      (fun a b -> Prob.Dist.convolve ?max_points a b)
      (Array.map snd decorated)
  with
  | Some d -> d
  | None -> Prob.Dist.point 0
