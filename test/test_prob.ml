(* Tests for discrete penalty distributions and the fault model:
   convolution, exceedance, quantiles, conservative capping, and the
   paper's equations 1-3. *)

module D = Prob.Dist
module FModel = Fault.Model

let feq = Alcotest.(check (float 1e-12))

(* --- construction -------------------------------------------------------- *)

let test_point () =
  let d = D.point 5 in
  Alcotest.(check int) "size" 1 (D.size d);
  feq "mass" 1.0 (D.total_mass d);
  Alcotest.(check int) "quantile" 5 (D.quantile d ~target:0.0)

let test_of_points_merges () =
  let d = D.of_points [ (3, 0.25); (1, 0.5); (3, 0.25) ] in
  Alcotest.(check (list (pair int (float 1e-12)))) "merged" [ (1, 0.5); (3, 0.5) ] (D.support d)

let test_of_points_invalid () =
  let bad pts = match D.of_points pts with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad [ (1, 0.5) ];                (* mass 0.5 *)
  bad [ (-1, 1.0) ];               (* negative penalty *)
  bad [ (1, -0.2); (2, 1.2) ]      (* negative probability *)

(* --- convolution ---------------------------------------------------------- *)

let test_convolve_coins () =
  (* Two fair coins worth 0/1 each: sum ~ Binomial(2, 1/2). *)
  let coin = D.of_points [ (0, 0.5); (1, 0.5) ] in
  let two = D.convolve coin coin in
  Alcotest.(check (list (pair int (float 1e-12))))
    "binomial" [ (0, 0.25); (1, 0.5); (2, 0.25) ] (D.support two)

let test_convolve_identity () =
  let d = D.of_points [ (0, 0.9); (7, 0.1) ] in
  let same = D.convolve d (D.point 0) in
  Alcotest.(check (list (pair int (float 1e-12)))) "identity" (D.support d) (D.support same)

let test_convolve_shifts () =
  let d = D.of_points [ (0, 0.9); (7, 0.1) ] in
  let shifted = D.convolve d (D.point 3) in
  Alcotest.(check (list (pair int (float 1e-12))))
    "shift" [ (3, 0.9); (10, 0.1) ] (D.support shifted)

let test_convolve_all_mass () =
  let d = D.of_points [ (0, 0.95); (99, 0.04); (500, 0.01) ] in
  let total = D.convolve_all [ d; d; d; d; d ] in
  Alcotest.(check (float 1e-9)) "mass preserved" 1.0 (D.total_mass total)

let test_expectation_additive () =
  let a = D.of_points [ (0, 0.5); (10, 0.5) ] in
  let b = D.of_points [ (2, 0.25); (6, 0.75) ] in
  Alcotest.(check (float 1e-9)) "E[a+b] = E[a]+E[b]"
    (D.expectation a +. D.expectation b)
    (D.expectation (D.convolve a b))

(* --- exceedance / quantile ------------------------------------------------- *)

let test_exceedance_steps () =
  let d = D.of_points [ (0, 0.9); (10, 0.09); (130, 0.01) ] in
  feq "P(X > -1)" 1.0 (D.exceedance d (-1));
  feq "P(X > 0)" 0.1 (D.exceedance d 0);
  feq "P(X > 9)" 0.1 (D.exceedance d 9);
  feq "P(X > 10)" 0.01 (D.exceedance d 10);
  feq "P(X > 129)" 0.01 (D.exceedance d 129);
  feq "P(X > 130)" 0.0 (D.exceedance d 130)

let test_quantile () =
  let d = D.of_points [ (0, 0.9); (10, 0.09); (130, 0.01) ] in
  Alcotest.(check int) "q(1)" 0 (D.quantile d ~target:1.0);
  Alcotest.(check int) "q(0.5)" 0 (D.quantile d ~target:0.5);
  Alcotest.(check int) "q(0.1)" 0 (D.quantile d ~target:0.1);
  Alcotest.(check int) "q(0.05)" 10 (D.quantile d ~target:0.05);
  Alcotest.(check int) "q(0.01)" 10 (D.quantile d ~target:0.01);
  Alcotest.(check int) "q(0.005)" 130 (D.quantile d ~target:0.005);
  Alcotest.(check int) "q(0)" 130 (D.quantile d ~target:0.0)

let test_exceedance_curve () =
  let d = D.of_points [ (0, 0.9); (10, 0.1) ] in
  match D.exceedance_curve d with
  | [ (0, p0); (10, p10) ] ->
    feq "P(X >= 0)" 1.0 p0;
    feq "P(X >= 10)" 0.1 p10
  | _ -> Alcotest.fail "unexpected curve shape"

let test_tiny_tail_accuracy () =
  (* A 1e-16-probability point must remain visible in the tail. *)
  let d = D.of_points [ (0, 1.0 -. 1e-16); (1000, 1e-16) ] in
  Alcotest.(check bool) "tail alive" true (D.exceedance d 999 > 0.0);
  Alcotest.(check int) "quantile at 1e-15" 0 (D.quantile d ~target:1e-15);
  Alcotest.(check int) "quantile at 1e-17" 1000 (D.quantile d ~target:1e-17)

(* --- deep tails (1e-9/hour regime) ------------------------------------------- *)

(* The suffix array is Kahan-summed from the top of the support down, so
   a 1e-12-mass tail is never formed by subtracting near-equal head
   masses. Pin that against closed forms. *)

let check_rel msg ~tol expected actual =
  let rel =
    if expected = 0.0 then Float.abs actual
    else Float.abs (actual -. expected) /. Float.abs expected
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.17g got %.17g (rel %g)" msg expected actual rel)
    true (rel <= tol)

let test_deep_tail_geometric () =
  (* Truncated geometric: P(X = i) = (1-p)·p^i for i < n, residual p^n
     at n. Closed form: P(X > i) = p^(i+1). With p = 1e-3 and n = 7 the
     checked tails run down to 1e-21 — far below the 1e-12 regime. *)
  let p = 1e-3 and n = 7 in
  let pts =
    List.init n (fun i -> (i, (1.0 -. p) *. (p ** float_of_int i))) @ [ (n, p ** float_of_int n) ]
  in
  let d = D.of_points pts in
  for i = 0 to n - 1 do
    let closed = p ** float_of_int (i + 1) in
    check_rel (Printf.sprintf "P(X > %d)" i) ~tol:1e-12 closed (D.exceedance d i);
    (* Quantile inverts the tail: just above the closed-form mass the
       answer is i; at half of it the next support point is needed. *)
    Alcotest.(check int) (Printf.sprintf "q(%g+)" closed) i
      (D.quantile d ~target:(closed *. (1.0 +. 1e-9)));
    Alcotest.(check int) (Printf.sprintf "q(%g/2)" closed) (min n (i + 1))
      (D.quantile d ~target:(closed *. 0.5))
  done;
  feq "P(X > n)" 0.0 (D.exceedance d n)

let test_deep_tail_binomial () =
  (* n-fold power of a Bernoulli(p): the k-th strict tail is the
     binomial survival function. p = 1e-4, n = 40: the k = 6 tail is
     ~1.9e-21. The power and the oracle's reference tree over [n]
     copies must agree with the closed form to ~1e-10 relative —
     accumulation-order loss in the suffix sums would show up orders of
     magnitude earlier. *)
  let p = 1e-4 and n = 40 in
  let bern = D.of_points [ (0, 1.0 -. p); (1, p) ] in
  List.iter
    (fun d ->
      Alcotest.(check int) "support size" (n + 1) (D.size d);
      for k = 0 to 6 do
        check_rel (Printf.sprintf "P(X > %d)" k) ~tol:1e-10
          (Numeric.Binomial.survival ~n ~p k)
          (D.exceedance d k)
      done)
    [ D.convolve_pow bern n; Oracle.Dist.convolve_all (List.init n (fun _ -> bern)) ]

let test_deep_tail_mixture_shift () =
  (* The re-execution model's building blocks must not disturb deep
     tails: [shift] reuses the suffix array bit-for-bit, and a
     sub-probability [mixture] carries a 1e-15 residual exactly. *)
  let p = 1e-3 and n = 7 in
  let pts =
    List.init n (fun i -> (i, (1.0 -. p) *. (p ** float_of_int i))) @ [ (n, p ** float_of_int n) ]
  in
  let d = D.of_points pts in
  let s = D.shift 1000 d in
  for i = 0 to n do
    Alcotest.(check (float 0.)) (Printf.sprintf "shift tail %d" i)
      (D.exceedance d i) (D.exceedance s (i + 1000))
  done;
  let w = 1e-15 in
  let m = D.mixture [ (1.0 -. w, D.point 0); (w, D.point 10) ] in
  check_rel "mixture deep component" ~tol:1e-12 w (D.exceedance m 9);
  (* Sub-probability parts keep their mass deficit (the residual rides
     outside the mixture in the sched model). *)
  let sub = D.mixture [ (0.5, D.point 3) ] in
  feq "sub-probability mass" 0.5 (D.total_mass sub)

(* --- conservative capping --------------------------------------------------- *)

let test_capping_is_conservative () =
  let state = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let n = 40 + Random.State.int state 60 in
    let raw = List.init n (fun k -> (k * 3, Random.State.float state 1.0)) in
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 raw in
    let pts = List.map (fun (x, p) -> (x, p /. total)) raw in
    let full = D.of_points pts in
    let a = D.of_points (List.filteri (fun i _ -> i mod 2 = 0) pts |> fun l ->
      let m = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 l in
      List.map (fun (x, p) -> (x, p /. m)) l)
    in
    (* Convolve with a small cap and without; the capped result must
       dominate pointwise in exceedance. *)
    let capped = D.convolve ~max_points:16 full a in
    let exact = D.convolve ~max_points:max_int full a in
    feq "mass kept" (D.total_mass exact) (D.total_mass capped);
    List.iter
      (fun (x, _) ->
        Alcotest.(check bool) "capped exceedance dominates" true
          (D.exceedance capped x +. 1e-12 >= D.exceedance exact x))
      (D.support exact);
    Alcotest.(check bool) "size bounded" true (D.size capped <= 17)
  done

(* Reference implementation of the quantile: the linear scan the binary
   search replaced. Smallest support value whose strict upper tail fits
   the target (0 when even the whole distribution fits). *)
let quantile_scan d ~target =
  if D.exceedance d 0 <= target then 0
  else begin
    let rec scan = function
      | [] -> 0
      | [ (x, _) ] -> x
      | (x, _) :: rest -> if D.exceedance d x <= target then x else scan rest
    in
    scan (D.support d)
  end

let random_dist state =
  let n = 1 + Random.State.int state 50 in
  let raw = List.init n (fun k -> (k * (1 + Random.State.int state 5), Random.State.float state 1.0 +. 1e-6)) in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 raw in
  D.of_points (List.map (fun (x, p) -> (x, p /. total)) raw)

let test_quantile_binary_matches_scan () =
  let state = Random.State.make [| 23 |] in
  for _ = 1 to 100 do
    let d = random_dist state in
    let targets =
      [ 0.0; 1e-18; 1e-9; 0.5; 1.0; Random.State.float state 1.0 ]
      (* Boundary cases: the exact tail values at every support point. *)
      @ List.map (fun (x, _) -> D.exceedance d x) (D.support d)
    in
    List.iter
      (fun target ->
        Alcotest.(check int)
          (Printf.sprintf "quantile at %.17g" target)
          (quantile_scan d ~target) (D.quantile d ~target))
      targets
  done

(* --- tied-probability capping (regression) ---------------------------------- *)

(* A probability threshold keeps every point tied at the threshold, so
   equal-mass supports used to blow straight through max_points. The cap
   must be hard. *)
let test_capping_tied_probabilities () =
  let n = 64 in
  let pts = List.init n (fun k -> (3 * k, 1.0 /. float_of_int n)) in
  let d = D.of_points pts in
  let capped = D.convolve ~max_points:8 d (D.point 0) in
  Alcotest.(check bool)
    (Printf.sprintf "hard cap (%d points)" (D.size capped))
    true
    (D.size capped <= 8);
  feq "mass preserved" 1.0 (D.total_mass capped);
  (* Top point survives, and the result stays conservative. *)
  Alcotest.(check int) "top point kept" (3 * (n - 1))
    (List.fold_left (fun acc (x, _) -> max acc x) 0 (D.support capped));
  List.iter
    (fun (x, _) ->
      Alcotest.(check bool) "capped exceedance dominates" true
        (D.exceedance capped x +. 1e-12 >= D.exceedance d x))
    pts

(* A cap below one point cannot hold the result: every capping entry
   point rejects it instead of quietly returning more points than
   [max_points]. *)
let test_capping_rejects_empty_cap () =
  let d = D.of_points [ (0, 0.5); (3, 0.5) ] in
  List.iter
    (fun (label, run) ->
      List.iter
        (fun max_points ->
          match run max_points with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s accepted max_points %d" label max_points)
        [ 0; -1; min_int ])
    [ ("convolve", fun max_points -> D.convolve ~max_points d d)
    ; ("convolve reference", fun max_points -> D.convolve_reference ~max_points d d)
    ; ("convolve_all", fun max_points -> D.convolve_all ~max_points [ d; d; d ])
    ; ("convolve_all singleton", fun max_points -> D.convolve_all ~max_points [ d ])
    ; ("convolve_pow", fun max_points -> D.convolve_pow ~max_points d 3)
    ; ("convolve_pow zero", fun max_points -> D.convolve_pow ~max_points d 0)
    ; ("mixture", fun max_points -> D.mixture ~max_points [ (0.5, d); (0.5, d) ])
    ]

(* --- tree reduction vs left fold --------------------------------------------- *)

let fold_convolve ?max_points = function
  | [] -> D.point 0
  | first :: rest -> List.fold_left (fun acc d -> D.convolve ?max_points acc d) first rest

(* Distribution with probabilities k/16: all products of such values are
   exact dyadic rationals in float64, so any convolution order yields
   bit-identical results when no capping occurs. *)
let random_dyadic_dist state =
  let n = 1 + Random.State.int state 4 in
  let rec weights total count =
    if count = 1 then [ total ]
    else begin
      let w = 1 + Random.State.int state (total - count + 1) in
      w :: weights (total - w) (count - 1)
    end
  in
  let ws = weights 16 n in
  D.of_points (List.mapi (fun i w -> (i * (1 + Random.State.int state 9), float_of_int w /. 16.0)) ws)

let test_tree_matches_fold_uncapped () =
  let state = Random.State.make [| 31 |] in
  for _ = 1 to 50 do
    let dists = List.init (1 + Random.State.int state 6) (fun _ -> random_dyadic_dist state) in
    let tree = D.convolve_all dists in
    let fold = fold_convolve dists in
    Alcotest.(check (list (pair int (float 0.)))) "tree = fold bit-for-bit"
      (D.support fold) (D.support tree)
  done;
  (* Empty and singleton lists. *)
  Alcotest.(check (list (pair int (float 0.)))) "empty"
    (D.support (D.point 0)) (D.support (D.convolve_all []));
  let d = D.of_points [ (1, 0.5); (4, 0.5) ] in
  Alcotest.(check (list (pair int (float 0.)))) "singleton"
    (D.support d) (D.support (D.convolve_all [ d ]))

let test_tree_capped_is_conservative () =
  (* When the cap triggers, orderings may disagree pointwise, but the
     tree's exceedance must dominate the exact (uncapped) result —
     soundness does not depend on the reduction shape. *)
  let state = Random.State.make [| 37 |] in
  for _ = 1 to 10 do
    let dists = List.init (3 + Random.State.int state 3) (fun _ -> random_dist state) in
    let exact = fold_convolve ~max_points:max_int dists in
    let tree = D.convolve_all ~max_points:24 dists in
    Alcotest.(check bool) "cap honoured" true (D.size tree <= 24);
    feq "mass preserved" (D.total_mass exact) (D.total_mass tree);
    List.iter
      (fun (x, _) ->
        Alcotest.(check bool) "tree exceedance dominates exact" true
          (D.exceedance tree x +. 1e-12 >= D.exceedance exact x))
      (D.support exact)
  done

(* --- exceedance convention ---------------------------------------------------- *)

(* Pin the documented convention: [exceedance] is the strict tail
   P(X > x); [exceedance_curve] lists the weak tails P(X >= x); at a
   support point they interconvert via P(X >= x) = P(X > x-1). *)
let test_exceedance_convention () =
  let d = D.of_points [ (0, 0.9); (10, 0.09); (130, 0.01) ] in
  let curve = D.exceedance_curve d in
  List.iter (fun (x, weak) -> feq "weak(x) = strict(x-1)" weak (D.exceedance d (x - 1))) curve;
  feq "curve at 0 includes own mass" 1.0 (List.assoc 0 curve);
  feq "strict at 0 excludes own mass" 0.1 (D.exceedance d 0);
  feq "curve at 10" 0.1 (List.assoc 10 curve);
  feq "strict at 10" 0.01 (D.exceedance d 10);
  feq "curve at 130" 0.01 (List.assoc 130 curve);
  feq "strict at 130" 0.0 (D.exceedance d 130)

(* --- fault model (paper eqs. 1-3) ------------------------------------------ *)

let test_pbf_eq1 () =
  (* The paper's configuration: 16B lines -> K = 128 bits, pfail = 1e-4. *)
  let pbf = FModel.pbf ~pfail:1e-4 ~block_bits:128 in
  Alcotest.(check (float 1e-7)) "pbf" 0.0127191 pbf;
  Alcotest.(check (float 0.)) "pfail 0" 0.0 (FModel.pbf ~pfail:0.0 ~block_bits:128);
  Alcotest.(check (float 0.)) "pfail 1" 1.0 (FModel.pbf ~pfail:1.0 ~block_bits:128);
  let via_config = FModel.pbf_of_config ~pfail:1e-4 Cache.Config.paper_default in
  Alcotest.(check (float 1e-15)) "config variant" pbf via_config

let test_pwf_eq2 () =
  let pbf = 0.0127191 in
  let dist = FModel.way_distribution ~ways:4 ~pbf in
  Alcotest.(check (float 1e-12)) "sums to 1" 1.0 (Numeric.Kahan.sum_array dist);
  Alcotest.(check (float 1e-9)) "w=0" ((1.0 -. pbf) ** 4.0) dist.(0);
  Alcotest.(check (float 1e-9)) "w=4" (pbf ** 4.0) dist.(4);
  Alcotest.(check (float 1e-9)) "w=1" (4.0 *. pbf *. ((1.0 -. pbf) ** 3.0)) dist.(1)

let test_pwf_rw_eq3 () =
  let pbf = 0.0127191 in
  let dist = FModel.way_distribution_rw ~ways:4 ~pbf in
  Alcotest.(check (float 1e-12)) "sums to 1" 1.0 (Numeric.Kahan.sum_array dist);
  Alcotest.(check (float 0.)) "all-faulty impossible" 0.0 dist.(4);
  Alcotest.(check (float 1e-9)) "w=0 over 3 ways" ((1.0 -. pbf) ** 3.0) dist.(0);
  (* RW stochastically dominates: its CCDF is below eq. 2's everywhere. *)
  let d2 = FModel.way_distribution ~ways:4 ~pbf in
  let ccdf d k =
    let acc = ref 0.0 in
    for w = k + 1 to 4 do
      acc := !acc +. d.(w)
    done;
    !acc
  in
  for k = 0 to 3 do
    Alcotest.(check bool) "dominance" true (ccdf dist k <= ccdf d2 k +. 1e-15)
  done

let test_prob_all_faulty () =
  let pbf = 0.0127191 in
  Alcotest.(check (float 1e-12)) "pbf^W" (pbf ** 4.0) (FModel.prob_all_ways_faulty ~ways:4 ~pbf)

(* --- sampler ----------------------------------------------------------------- *)

let test_sampler_statistics () =
  let cfg = Cache.Config.paper_default in
  let state = Random.State.make [| 11 |] in
  (* Large pfail so counts are non-trivial. *)
  let pfail = 1e-3 in
  let pbf = FModel.pbf_of_config ~pfail cfg in
  let n = 2000 in
  let total = ref 0 in
  for _ = 1 to n do
    let counts = Fault.Sampler.faulty_way_counts cfg ~pfail state in
    Array.iter (fun c -> total := !total + c) counts
  done;
  let mean_per_set = float_of_int !total /. float_of_int (n * cfg.Cache.Config.sets) in
  let expected = 4.0 *. pbf in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f vs expected %.4f" mean_per_set expected)
    true
    (Float.abs (mean_per_set -. expected) < 0.05 *. expected +. 0.01)

let test_sampler_fault_map_consistency () =
  let cfg = Cache.Config.paper_default in
  let state = Random.State.make [| 12 |] in
  let fm = Fault.Sampler.fault_map cfg ~pfail:1e-2 state in
  let counts = Cache.Fault_map.faulty_counts fm in
  Alcotest.(check int) "sets" cfg.Cache.Config.sets (Array.length counts);
  Array.iter (fun c -> Alcotest.(check bool) "range" true (c >= 0 && c <= 4)) counts

let () =
  Alcotest.run "prob+fault"
    [ ( "dist construction",
        [ Alcotest.test_case "point" `Quick test_point
        ; Alcotest.test_case "merge" `Quick test_of_points_merges
        ; Alcotest.test_case "invalid" `Quick test_of_points_invalid
        ] )
    ; ( "convolution",
        [ Alcotest.test_case "coins" `Quick test_convolve_coins
        ; Alcotest.test_case "identity" `Quick test_convolve_identity
        ; Alcotest.test_case "shift" `Quick test_convolve_shifts
        ; Alcotest.test_case "mass" `Quick test_convolve_all_mass
        ; Alcotest.test_case "expectation" `Quick test_expectation_additive
        ] )
    ; ( "exceedance",
        [ Alcotest.test_case "steps" `Quick test_exceedance_steps
        ; Alcotest.test_case "quantile" `Quick test_quantile
        ; Alcotest.test_case "curve" `Quick test_exceedance_curve
        ; Alcotest.test_case "tiny tails" `Quick test_tiny_tail_accuracy
        ; Alcotest.test_case "binary search = scan" `Quick test_quantile_binary_matches_scan
        ; Alcotest.test_case "convention" `Quick test_exceedance_convention
        ] )
    ; ( "deep tails",
        [ Alcotest.test_case "geometric closed form" `Quick test_deep_tail_geometric
        ; Alcotest.test_case "binomial closed form" `Quick test_deep_tail_binomial
        ; Alcotest.test_case "mixture and shift" `Quick test_deep_tail_mixture_shift
        ] )
    ; ( "capping",
        [ Alcotest.test_case "conservative" `Quick test_capping_is_conservative
        ; Alcotest.test_case "tied probabilities" `Quick test_capping_tied_probabilities
        ; Alcotest.test_case "max_points < 1 rejected" `Quick test_capping_rejects_empty_cap
        ] )
    ; ( "tree reduction",
        [ Alcotest.test_case "matches fold uncapped" `Quick test_tree_matches_fold_uncapped
        ; Alcotest.test_case "capped conservative" `Quick test_tree_capped_is_conservative
        ] )
    ; ( "fault model",
        [ Alcotest.test_case "eq.1 pbf" `Quick test_pbf_eq1
        ; Alcotest.test_case "eq.2 pwf" `Quick test_pwf_eq2
        ; Alcotest.test_case "eq.3 pwf RW" `Quick test_pwf_rw_eq3
        ; Alcotest.test_case "all faulty" `Quick test_prob_all_faulty
        ] )
    ; ( "sampler",
        [ Alcotest.test_case "statistics" `Quick test_sampler_statistics
        ; Alcotest.test_case "fault map" `Quick test_sampler_fault_map_consistency
        ] )
    ]
