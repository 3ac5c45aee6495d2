(* The reference total penalty distribution [Pwcet.Penalty] is held to
   at the quantile level: one distribution per active set, each built
   from the way PMF of eq. 2 (eq. 3 under RW), convolved in set order
   through the reference tree of [Dist]. No grouping of equal rows, no
   convolution powers, no leaf reordering, no parallel reduction. *)

let set_distribution ~pmf ~fmm ~set =
  let penalty = Cache.Config.miss_penalty (Pwcet.Fmm.config fmm) in
  let points = ref [] in
  Array.iteri
    (fun w p ->
      if p > 0.0 then points := (Pwcet.Fmm.misses fmm ~set ~faulty:w * penalty, p) :: !points)
    pmf;
  Prob.Dist.of_points !points

let total_distribution ?max_points ~fmm ~pbf () =
  let config = Pwcet.Fmm.config fmm in
  let ways = config.Cache.Config.ways in
  let pmf =
    match Pwcet.Fmm.mechanism fmm with
    | Pwcet.Mechanism.Reliable_way -> Fault.Model.way_distribution_rw ~ways ~pbf
    | Pwcet.Mechanism.No_protection | Pwcet.Mechanism.Shared_reliable_buffer ->
      Fault.Model.way_distribution ~ways ~pbf
  in
  (* A row with a zero last column is all zeros (rows are monotone): its
     set contributes the identity, point 0, and is left out. *)
  List.init config.Cache.Config.sets Fun.id
  |> List.filter (fun set -> Pwcet.Fmm.misses fmm ~set ~faulty:ways <> 0)
  |> List.map (fun set -> set_distribution ~pmf ~fmm ~set)
  |> Dist.convolve_all ?max_points
