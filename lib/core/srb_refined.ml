module Chmc = Cache_analysis.Chmc
module Dist = Prob.Dist

type t = {
  term0 : Dist.t;  (* joint sub-distribution: no dead set *)
  term1 : Dist.t list;  (* one per potential dead set *)
  term2 : Dist.t list;  (* one per potential dead-set pair *)
  fallback : Dist.t;  (* the paper's conservative SRB distribution *)
  p_three_or_more : float;
  excl_misses : int array;
}

let compute ~graph ~loops ~config ~pbf ?(engine = `Path) ?(max_points = 65536) () =
  let n_sets = config.Cache.Config.sets and ways = config.Cache.Config.ways in
  let penalty_unit = Cache.Config.miss_penalty config in
  let pwf = Fault.Model.way_distribution ~ways ~pbf in
  let p_dead = pwf.(ways) in
  let ctx = Cache_analysis.Context.make ~graph ~loops ~config in
  let baseline = Chmc.analyze ~ctx ~graph ~loops ~config () in
  let fmm_none, fmm_srb =
    match
      Fmm.compute_multi ~graph ~loops ~config
        ~mechanisms:[ Mechanism.No_protection; Mechanism.Shared_reliable_buffer ]
        ~engine ~ctx ~baseline ()
    with
    | [ (_, none); (_, srb) ] -> (none, srb)
    | _ -> assert false
  in
  (* One collapse serves every exclusive dead-set query below. *)
  let plan = Ipet.Path_engine.plan ~graph ~loops in
  let used = Array.make n_sets false in
  Chmc.fold_refs
    (fun ~node ~offset _ () -> used.(Chmc.cache_set baseline ~node ~offset) <- true)
    baseline ();
  (* Miss bound for the references of [sets] when exactly those sets are
     dead: the exclusive SRB analysis routes only them through the
     buffer, preserving their temporal locality against interleaved
     accesses to healthy sets. *)
  let exclusive_misses sets =
    if not (List.exists (fun s -> used.(s)) sets) then 0
    else begin
      let srb = Cache_analysis.Srb_analysis.analyze_exclusive ~ctx ~graph ~config ~sets () in
      let degraded ~node ~offset =
        if Cache_analysis.Srb_analysis.always_hit srb ~node ~offset then Chmc.Always_hit
        else Chmc.Always_miss
      in
      Ipet.Delta.extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets ~ctx ~plan ~engine
        ()
    end
  in
  let excl_misses = Array.init n_sets (fun set -> exclusive_misses [ set ]) in
  (* Per-set sub-distribution over the f < W columns. *)
  let dist_lt set =
    let points = ref [] in
    for w = 0 to ways - 1 do
      if pwf.(w) > 0.0 then
        points := (Fmm.misses fmm_none ~set ~faulty:w * penalty_unit, pwf.(w)) :: !points
    done;
    Dist.of_sub_points !points
  in
  let all_lt = Array.init n_sets dist_lt in
  (* Prefix/suffix convolutions make each leave-k-out product cheap. *)
  let prefix = Array.make (n_sets + 1) (Dist.point 0) in
  for s = 0 to n_sets - 1 do
    prefix.(s + 1) <- Dist.convolve ~max_points prefix.(s) all_lt.(s)
  done;
  let suffix = Array.make (n_sets + 1) (Dist.point 0) in
  for s = n_sets - 1 downto 0 do
    suffix.(s) <- Dist.convolve ~max_points suffix.(s + 1) all_lt.(s)
  done;
  let term0 = prefix.(n_sets) in
  let all_but s = Dist.convolve ~max_points prefix.(s) suffix.(s + 1) in
  let all_but_pair s1 s2 =
    (* s1 < s2: prefix up to s1, the middle range, suffix after s2. *)
    let mid = ref prefix.(s1) in
    for s = s1 + 1 to s2 - 1 do
      mid := Dist.convolve ~max_points !mid all_lt.(s)
    done;
    Dist.convolve ~max_points !mid suffix.(s2 + 1)
  in
  let term1 =
    List.init n_sets (fun dead ->
        Dist.scale p_dead
          (Dist.convolve ~max_points (all_but dead)
             (Dist.point (excl_misses.(dead) * penalty_unit))))
  in
  let p_dead2 = p_dead *. p_dead in
  let term2 = ref [] in
  for s1 = 0 to n_sets - 1 do
    for s2 = s1 + 1 to n_sets - 1 do
      if p_dead2 > 0.0 then begin
        let misses = exclusive_misses [ s1; s2 ] in
        term2 :=
          Dist.scale p_dead2
            (Dist.convolve ~max_points (all_but_pair s1 s2) (Dist.point (misses * penalty_unit)))
          :: !term2
      end
    done
  done;
  let fallback = Penalty.total_distribution ~max_points ~fmm:fmm_srb ~pbf () in
  let p_three_or_more = Numeric.Binomial.survival ~n:n_sets ~p:p_dead 2 in
  { term0; term1; term2 = !term2; fallback; p_three_or_more; excl_misses }

let exceedance t x =
  let acc = Numeric.Kahan.create () in
  Numeric.Kahan.add acc (Dist.exceedance t.term0 x);
  List.iter (fun d -> Numeric.Kahan.add acc (Dist.exceedance d x)) t.term1;
  List.iter (fun d -> Numeric.Kahan.add acc (Dist.exceedance d x)) t.term2;
  Numeric.Kahan.add acc (Float.min t.p_three_or_more (Dist.exceedance t.fallback x));
  Numeric.Kahan.total acc

let quantile t ~target =
  if not (Float.is_finite target) || target < 0.0 then
    invalid_arg "Srb_refined.quantile: target must be finite and non-negative";
  (* The bound is a decreasing step function whose steps lie on the
     union of the terms' supports. *)
  let candidates =
    List.concat_map
      (fun d -> List.map fst (Dist.support d))
      ((t.term0 :: t.fallback :: t.term1) @ t.term2)
    |> List.sort_uniq compare
  in
  if exceedance t 0 <= target then 0
  else begin
    let rec scan = function
      | [] -> (match List.rev candidates with x :: _ -> x | [] -> 0)
      | x :: rest -> if exceedance t x <= target then x else scan rest
    in
    scan candidates
  end

let exclusive_dead_set_misses t = Array.copy t.excl_misses
