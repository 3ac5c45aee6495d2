(* Differential tests for the distribution-engine overhaul: the
   sorted-merge convolution kernel must be bit-identical to the
   hash-table reference kernel [Dist.convolve_reference], [convolve_pow]
   must reproduce the balanced pairwise tree exactly (capping included),
   the grouped total-distribution engine must agree with the oracle's
   per-set engine ([Oracle.Penalty]) on real FMMs (registry-wide) and
   random ones, and a pfail sweep through
   [Grid.run] must be bit-identical to independent [estimate] calls at
   every grid point for every jobs value. *)

module D = Prob.Dist

(* Bit-exact support comparison: float 0. tolerance. *)
let support = Alcotest.(list (pair int (float 0.)))

let random_dist state =
  let n = 1 + Random.State.int state 50 in
  let raw =
    List.init n (fun k ->
        (k * (1 + Random.State.int state 5), Random.State.float state 1.0 +. 1e-6))
  in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 raw in
  D.of_points (List.map (fun (x, p) -> (x, p /. total)) raw)

(* Probabilities k/16: all products are exact dyadic rationals, so any
   convolution order yields bit-identical results when no capping
   occurs (same generator as test_prob.ml's tree-vs-fold test). *)
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
  D.of_points
    (List.mapi (fun i w -> (i * (1 + Random.State.int state 9), float_of_int w /. 16.0)) ws)

(* --- merge kernel vs reference engine ---------------------------------- *)

let test_kernel_matches_reference () =
  let state = Random.State.make [| 101 |] in
  for _ = 1 to 200 do
    let a = random_dist state and b = random_dist state in
    List.iter
      (fun max_points ->
        let merge = D.convolve ~max_points a b in
        let reference = D.convolve_reference ~max_points a b in
        Alcotest.check support
          (Printf.sprintf "merge = reference, cap %d" max_points)
          (D.support reference) (D.support merge))
      [ 8; 64; 65536; max_int ]
  done

let test_kernel_edge_cases () =
  let empty = D.scale 0.0 (D.point 3) in
  let d = D.of_points [ (0, 0.5); (7, 0.5) ] in
  List.iter
    (fun (label, a, b) ->
      Alcotest.check support label
        (D.support (D.convolve_reference a b))
        (D.support (D.convolve a b)))
    [ ("empty left", empty, d); ("empty right", d, empty); ("both empty", empty, empty)
    ; ("points", D.point 2, D.point 5); ("identity", d, D.point 0) ];
  (* Sub-probability operands (refined-SRB style joint accounting). *)
  let sub = D.of_sub_points [ (1, 0.25); (4, 0.25) ] in
  Alcotest.check support "sub-probability"
    (D.support (D.convolve_reference sub sub))
    (D.support (D.convolve sub sub))

let test_convolve_all_impls_match () =
  let state = Random.State.make [| 103 |] in
  for _ = 1 to 40 do
    let dists = List.init (1 + Random.State.int state 7) (fun _ -> random_dist state) in
    List.iter
      (fun max_points ->
        Alcotest.check support "convolve_all merge = reference"
          (D.support (Oracle.Dist.convolve_all ~max_points dists))
          (D.support (D.convolve_all ~max_points dists)))
      [ 24; 65536 ]
  done

(* --- regime forcing -------------------------------------------------------- *)

(* The merge kernel picks its regime from the operands: dense buckets
   when the achievable sums (on the lattice of the supports' gcd step)
   number at most 4*n*m and at most 2^22, the heap merge otherwise. The
   generators below land in one regime by construction, with many sums
   reached from several pairs so that the accumulation order shows in
   the low bits. *)

let check_regime label a b =
  List.iter
    (fun max_points ->
      Alcotest.check support
        (Printf.sprintf "%s: merge = reference, cap %d" label max_points)
        (D.support (D.convolve_reference ~max_points a b))
        (D.support (D.convolve ~max_points a b)))
    [ 1; 5; 64; max_int ]

(* Probabilities drawn from [0.02, 1) / 64 and multiplied by [scale]: a
   sub-distribution of at most 64 points never exceeds mass 1. *)
let random_sub_dist state ~pens ~scale =
  D.of_sub_points
    (List.map (fun x -> (x, scale *. (0.02 +. Random.State.float state 0.98) /. 64.0)) pens)

(* [k] distinct values from [0, bound), ascending. *)
let random_support state ~k ~bound =
  let seen = Hashtbl.create k in
  while Hashtbl.length seen < k do
    Hashtbl.replace seen (Random.State.int state bound) ()
  done;
  List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) seen [])

(* Heap regime: a dense low cluster (many cross-run equal sums) plus one
   far outlier that makes the sum range dwarf 4*n*m. Sizes are drawn on
   both sides of n = m, so runs go over [a] and over [b]. *)
let test_heap_regime () =
  let state = Random.State.make [| 211 |] in
  for trial = 1 to 60 do
    let n = 2 + Random.State.int state 30 and m = 2 + Random.State.int state 30 in
    let support k = random_support state ~k:(k - 1) ~bound:(2 * k) @ [ 1_000_000_007 ] in
    let a = random_sub_dist state ~pens:(support n) ~scale:1.0 in
    let b = random_sub_dist state ~pens:(support m) ~scale:1.0 in
    check_regime (Printf.sprintf "heap %d: %dx%d" trial n m) a b
  done;
  (* Pinned shapes: n < m and n > m with equal sums across every run. *)
  let a = random_sub_dist state ~pens:[ 0; 5; 10; 3_000_000_001 ] ~scale:1.0 in
  let b =
    random_sub_dist state ~pens:[ 0; 5; 10; 15; 20; 25; 30; 4_000_000_003 ] ~scale:1.0
  in
  check_regime "heap n < m" a b;
  check_regime "heap n > m" b a

(* Dense regime with products that underflow to exactly 0.0: operands
   near 1e-200 (and a few ordinary probabilities, so some buckets mix
   zero and nonzero products). The reference keeps the zero-mass points,
   so the kernel must not read presence from a nonzero bucket. *)
let test_dense_underflow () =
  let state = Random.State.make [| 223 |] in
  for trial = 1 to 40 do
    let n = 1 + Random.State.int state 40 and m = 1 + Random.State.int state 40 in
    let dist k =
      D.of_sub_points
        (List.map
           (fun x ->
             let p = 0.5 +. Random.State.float state 0.5 in
             (x, if Random.State.int state 3 = 0 then p /. 64.0 else p *. 1e-200))
           (random_support state ~k ~bound:(2 * k)))
    in
    let a = dist n and b = dist m in
    check_regime (Printf.sprintf "underflow %d: %dx%d" trial n m) a b
  done;
  let tiny = D.of_sub_points [ (0, 1e-200); (7, 3e-200); (14, 0.25) ] in
  let conv = D.convolve ~max_points:max_int tiny tiny in
  Alcotest.(check bool) "an underflowed point is kept" true
    (List.exists (fun (_, p) -> p = 0.0) (D.support conv))

(* Dense regime, no underflow possible: both lattice supports on a
   common step of 99 cycles, as in the analysis. *)
let test_dense_lattice () =
  let state = Random.State.make [| 227 |] in
  for trial = 1 to 60 do
    let n = 1 + Random.State.int state 60 and m = 1 + Random.State.int state 60 in
    let pens k = List.map (fun x -> 99 * x) (random_support state ~k ~bound:(2 * k)) in
    let a = random_sub_dist state ~pens:(pens n) ~scale:1.0 in
    let b = random_sub_dist state ~pens:(pens m) ~scale:1e-150 in
    check_regime (Printf.sprintf "dense %d: %dx%d" trial n m) a b
  done

(* --- dense-kernel branches ------------------------------------------------ *)

(* Inside the dense regime the kernel adds contiguous rows padded with
   -0.0: rows over ascending i, each the padded [b], when [n * lb <=
   m * la]; rows over descending j, each the padded [a], otherwise
   ([la], [lb] are the operands' extents on the common lattice). When
   both padded costs exceed 4*n*m it scatters the n*m products instead.
   [dense_branch] restates that rule so that each generator below can
   assert it forces the branch it is named after. *)
type branch = Heap | Rows_over_b | Rows_over_a | Scatter

let branch_name = function
  | Heap -> "heap"
  | Rows_over_b -> "rows over b"
  | Rows_over_a -> "rows over a"
  | Scatter -> "scatter"

let dense_branch a b =
  let pens d = List.map fst (D.support d) in
  let pa = pens a and pb = pens b in
  let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
  let step_of = function
    | [] -> 0
    | x :: rest -> List.fold_left (fun g y -> gcd g (y - x)) 0 rest
  in
  let step = max 1 (gcd (step_of pa) (step_of pb)) in
  let extent ps = ((List.nth ps (List.length ps - 1) - List.hd ps) / step) + 1 in
  let n = List.length pa and m = List.length pb in
  let la = extent pa and lb = extent pb in
  if la + lb - 1 > 1 lsl 22 || la + lb - 1 > 4 * n * m then Heap
  else if n * lb <= m * la && n * lb <= 4 * n * m then Rows_over_b
  else if m * la <= 4 * n * m then Rows_over_a
  else Scatter

(* [k] points on [0, extent) that include both ends, times [step], each
   with a probability in [0.02, 1) / 64 or, when [tiny], near 1e-170 for
   about half of them, so that two tiny factors underflow to +0.0. *)
let lattice_dist state ~k ~extent ~step ~tiny =
  let inner = if extent > 2 then random_support state ~k:(k - 2) ~bound:(extent - 2) else [] in
  let pens = if k = 1 then [ 0 ] else (0 :: List.map succ inner) @ [ extent - 1 ] in
  D.of_sub_points
    (List.map
       (fun x ->
         let p = (0.02 +. Random.State.float state 0.98) /. 64.0 in
         (step * x, if tiny && Random.State.bool state then p *. 1e-168 else p))
       pens)

let check_branch label expected a b =
  Alcotest.(check string) (label ^ ": branch") (branch_name expected)
    (branch_name (dense_branch a b));
  check_regime label a b

(* Runs a generator over [trials] seeded draws, each with ordinary and
   with tiny probabilities; a tiny run must underflow some product. *)
let each_branch_trial ~seed ~trials label expected make =
  let state = Random.State.make [| seed |] in
  let underflowed = ref false in
  for trial = 1 to trials do
    List.iter
      (fun tiny ->
        let a, b = make state ~tiny in
        let label = Printf.sprintf "%s %d%s" label trial (if tiny then " tiny" else "") in
        check_branch label expected a b;
        if tiny
           && List.exists (fun (_, p) -> p = 0.0)
                (D.support (D.convolve_reference ~max_points:max_int a b))
        then underflowed := true)
      [ false; true ]
  done;
  Alcotest.(check bool) (label ^ ": some product underflowed") true !underflowed

(* A dense [a] (3/4 of its lattice) against a sparse [b] (1/20): padding
   [a] costs far less, so the rows run over descending j. *)
let test_rows_over_a () =
  each_branch_trial ~seed:241 ~trials:30 "dense a, sparse b" Rows_over_a (fun state ~tiny ->
      let n = 20 + Random.State.int state 40 and m = 3 + Random.State.int state 8 in
      let step = 1 + Random.State.int state 99 in
      ( lattice_dist state ~k:n ~extent:(n + (n / 3)) ~step ~tiny
      , lattice_dist state ~k:m ~extent:(20 * m) ~step ~tiny ))

(* The mirror image: the rows run over ascending i. *)
let test_rows_over_b () =
  each_branch_trial ~seed:251 ~trials:30 "sparse a, dense b" Rows_over_b (fun state ~tiny ->
      let n = 3 + Random.State.int state 8 and m = 20 + Random.State.int state 40 in
      let step = 1 + Random.State.int state 99 in
      ( lattice_dist state ~k:n ~extent:(20 * n) ~step ~tiny
      , lattice_dist state ~k:m ~extent:(m + (m / 3)) ~step ~tiny ))

(* Both operands 1/8 dense: either padding costs 8*n*m, past the 4x
   limit, while the sums still fit the dense regime's bucket budget. *)
let test_scatter_fallback () =
  each_branch_trial ~seed:257 ~trials:30 "both sparse" Scatter (fun state ~tiny ->
      let n = 10 + Random.State.int state 20 and m = 10 + Random.State.int state 20 in
      ( lattice_dist state ~k:n ~extent:(8 * n) ~step:1 ~tiny
      , lattice_dist state ~k:m ~extent:(8 * m) ~step:1 ~tiny ))

(* One-point operands on either side and on both: rows of length one,
   or a single row. *)
let test_singletons () =
  let state = Random.State.make [| 263 |] in
  for trial = 1 to 30 do
    List.iter
      (fun tiny ->
        let label = Printf.sprintf "singleton %d%s" trial (if tiny then " tiny" else "") in
        let m = 1 + Random.State.int state 40 in
        let single = lattice_dist state ~k:1 ~extent:1 ~step:1 ~tiny in
        let single = D.shift (Random.State.int state 500) single in
        let other = lattice_dist state ~k:m ~extent:(m + (m / 2)) ~step:7 ~tiny in
        List.iter
          (fun (side, a, b) ->
            let label = label ^ side in
            Alcotest.(check bool) (label ^ ": dense regime") true (dense_branch a b <> Heap);
            check_regime label a b)
          [ (" left", single, other); (" right", other, single); (" both", single, single) ])
      [ false; true ]
  done

(* Random sizes, lattice densities, steps and probability scales: every
   branch of the kernel, including the heap when the lattice is thin. *)
let test_random_lattices =
  let gen =
    QCheck2.Gen.(
      let side =
        triple (int_range 1 40) (float_range 0.02 1.0) bool >|= fun (k, density, tiny) ->
        (k, max k (int_of_float (float_of_int k /. density)), tiny)
      in
      quad side side (oneofl [ 1; 3; 99 ]) int)
  in
  let print ((n, la, ta), (m, lb, tb), step, seed) =
    Printf.sprintf "a: %d points over %d%s; b: %d points over %d%s; step %d; seed %d" n la
      (if ta then " tiny" else "") m lb (if tb then " tiny" else "") step seed
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print ~name:"random lattice densities: merge = reference"
       gen (fun ((n, la, ta), (m, lb, tb), step, seed) ->
         let state = Random.State.make [| seed |] in
         let a = lattice_dist state ~k:n ~extent:la ~step ~tiny:ta in
         let b = lattice_dist state ~k:m ~extent:lb ~step ~tiny:tb in
         List.for_all
           (fun max_points ->
             D.support (D.convolve_reference ~max_points a b)
             = D.support (D.convolve ~max_points a b))
           [ 1; 5; 64; max_int ]))

(* --- cap oracle ---------------------------------------------------------- *)

(* The capping rule by its definition, written the slow way: sort the
   points by (probability, index), keep the top-penalty point plus the
   highest [max_points - 1] others, and fold each dropped point's mass
   into the next kept point above it. Both engines share the kernel's
   cap, so merge = reference cannot see a cap regression; this can. *)
let oracle_cap max_points pts =
  let pts = Array.of_list pts in
  let n = Array.length pts in
  if n <= max_points then Array.to_list pts
  else begin
    let keep = Array.make n false in
    keep.(n - 1) <- true;
    List.init (n - 1) Fun.id
    |> List.sort (fun i j -> compare (snd pts.(j), j) (snd pts.(i), i))
    |> List.iteri (fun rank i -> if rank < max_points - 1 then keep.(i) <- true);
    let carried = ref 0.0 in
    List.filter_map
      (fun i ->
        let x, p = pts.(i) in
        if keep.(i) then begin
          let p = p +. !carried in
          carried := 0.0;
          Some (x, p)
        end
        else begin
          carried := !carried +. p;
          None
        end)
      (List.init n Fun.id)
  end

(* Every capping path against the oracle: a convolution with the point 0
   (all products exact), a one-part mixture, and a capped convolution
   against the oracle applied to the uncapped one. *)
let check_cap label d other =
  let n = D.size d in
  let caps = List.sort_uniq compare [ 1; 2; max 1 (n / 2); max 1 (n - 1) ] in
  List.iter
    (fun max_points ->
      let label = Printf.sprintf "%s, cap %d of %d" label max_points n in
      let expected = oracle_cap max_points (D.support d) in
      List.iter
        (fun convolve ->
          Alcotest.check support (label ^ ", with point 0") expected
            (D.support (convolve ~max_points d (D.point 0))))
        [ (fun ~max_points a b -> D.convolve ~max_points a b)
        ; (fun ~max_points a b -> D.convolve_reference ~max_points a b) ];
      Alcotest.check support (label ^ ", mixture") expected
        (D.support (D.mixture ~max_points [ (1.0, d) ]));
      let full = D.convolve ~max_points:max_int d other in
      let caps' = List.sort_uniq compare [ 1; 2; max 1 (D.size full - 1); max_points ] in
      List.iter
        (fun max_points ->
          Alcotest.check support
            (Printf.sprintf "%s, convolution capped at %d" label max_points)
            (oracle_cap max_points (D.support full))
            (D.support (D.convolve ~max_points d other)))
        caps')
    caps

let test_cap_oracle () =
  let state = Random.State.make [| 229 |] in
  let tied k = float_of_int (1 + Random.State.int state k) /. 4096.0 in
  (* Values equal in sign and exponent and apart only in the low
     mantissa bits, so selection has to look at every digit. *)
  let near () =
    Float.ldexp (1.0 +. Float.ldexp (float_of_int (Random.State.int state 4)) (-50)) (-12)
  in
  let spread () =
    Float.ldexp (0.5 +. Random.State.float state 0.5) (-6 - Random.State.int state 900)
  in
  List.iter
    (fun (label, draw) ->
      for trial = 1 to 25 do
        let n = 2 + Random.State.int state 40 in
        let pens = random_support state ~k:n ~bound:(3 * n) in
        let d = D.of_sub_points (List.map (fun x -> (x, draw ())) pens) in
        let other = D.of_sub_points [ (0, draw ()); (1, draw ()); (5, draw ()) ] in
        check_cap (Printf.sprintf "%s %d" label trial) d other
      done)
    [ ("two-valued ties", fun () -> tied 2); ("three-valued ties", fun () -> tied 3)
    ; ("low-bit ties", near); ("wide exponents", spread) ];
  (* All points tied, the top one included: it must not use up a slot. *)
  let flat = D.of_sub_points (List.init 10 (fun k -> (k, 1.0 /. 16.0))) in
  check_cap "all tied" flat (D.point 3)

(* --- convolve_pow ------------------------------------------------------- *)

let copies d k = List.init k (fun _ -> d)

(* Bit-identity with the balanced tree, capping included: the pow
   ladder reproduces the tree's exact shape, so every intermediate cap
   sees the same input. *)
let test_pow_matches_tree () =
  let state = Random.State.make [| 107 |] in
  for _ = 1 to 50 do
    let d = random_dist state in
    for k = 0 to 9 do
      List.iter
        (fun max_points ->
          List.iter
            (fun (tree, convolve_all) ->
              Alcotest.check support
                (Printf.sprintf "pow %d = %s, cap %d" k tree max_points)
                (D.support (convolve_all ~max_points (copies d k)))
                (D.support (D.convolve_pow ~max_points d k)))
            [ ("tree", fun ~max_points ds -> D.convolve_all ~max_points ds)
            ; ("reference tree", fun ~max_points ds -> Oracle.Dist.convolve_all ~max_points ds) ])
        [ 16; 65536 ]
    done
  done

(* Uncapped dyadic: every convolution order is exact, so pow also equals
   the k-fold left fold bit for bit (associativity/commutativity of the
   convolution multiset — DESIGN.md §7). *)
let test_pow_matches_fold_uncapped () =
  let state = Random.State.make [| 109 |] in
  let fold_pow d k =
    List.fold_left (fun acc x -> D.convolve acc x) d (copies d (k - 1))
  in
  for _ = 1 to 50 do
    let d = random_dyadic_dist state in
    for k = 1 to 6 do
      Alcotest.check support
        (Printf.sprintf "pow %d = fold" k)
        (D.support (fold_pow d k))
        (D.support (D.convolve_pow d k))
    done
  done

let test_pow_capped_is_conservative () =
  (* Independent of the tree identity: a capped power must still
     conservatively dominate the uncapped one and keep its mass. *)
  let state = Random.State.make [| 113 |] in
  for _ = 1 to 20 do
    let d = random_dist state in
    let k = 2 + Random.State.int state 4 in
    let exact = D.convolve_pow ~max_points:max_int d k in
    let capped = D.convolve_pow ~max_points:24 d k in
    Alcotest.(check bool) "cap honoured" true (D.size capped <= 24);
    Alcotest.(check (float 1e-9)) "mass preserved" (D.total_mass exact) (D.total_mass capped);
    List.iter
      (fun (x, _) ->
        Alcotest.(check bool) "capped dominates" true
          (D.exceedance capped x +. 1e-12 >= D.exceedance exact x))
      (D.support exact)
  done

let test_pow_invalid () =
  match D.convolve_pow (D.point 1) (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- grouped vs oracle total distribution -------------------------------- *)

let quantile_targets = [ 1e-6; 1e-9; 1e-12; 1e-15; 1e-18 ]

let check_total_engines label fmm ~pbf =
  let reference = Oracle.Penalty.total_distribution ~fmm ~pbf () in
  let grouped = Pwcet.Penalty.total_distribution ~fmm ~pbf () in
  Alcotest.(check (float 1e-12))
    (label ^ " mass") (D.total_mass reference) (D.total_mass grouped);
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "%s quantile at %g" label target)
        (D.quantile reference ~target) (D.quantile grouped ~target))
    quantile_targets;
  (* jobs-determinism of the grouped engine: bit-identical supports. *)
  Alcotest.check support (label ^ " jobs determinism")
    (D.support (Pwcet.Penalty.total_distribution ~jobs:1 ~fmm ~pbf ()))
    (D.support (Pwcet.Penalty.total_distribution ~jobs:3 ~fmm ~pbf ()))

(* Every registry benchmark x all three mechanisms, on the fast 8x2
   geometry, with the paper's pbf. *)
let test_registry_differential () =
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
      List.iter
        (fun mechanism ->
          let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
          check_total_engines
            (Printf.sprintf "%s/%s" e.Benchmarks.Registry.name
               (Pwcet.Mechanism.short_name mechanism))
            est.Pwcet.Estimator.fmm ~pbf)
        Pwcet.Mechanism.all)
    Benchmarks.Registry.all

(* Random monotone FMM tables drawn from a small row pool, so grouping
   sees plenty of duplicate rows; random pbf. *)
let test_random_fmm_differential =
  let gen =
    QCheck2.Gen.(
      let row ways =
        list_size (return ways) (int_bound 40) >|= fun deltas ->
        let row = Array.make (ways + 1) 0 in
        List.iteri (fun i d -> row.(i + 1) <- row.(i) + d) deltas;
        row
      in
      int_range 1 4 >>= fun ways ->
      int_range 0 3 >>= fun pool_bits ->
      let sets = 8 in
      list_size (return (1 + pool_bits)) (row ways) >>= fun pool ->
      list_size (return sets) (int_bound pool_bits) >>= fun picks ->
      float_range 1e-6 0.5 >|= fun pbf ->
      let pool = Array.of_list pool in
      let table = Array.of_list (List.map (fun i -> Array.copy pool.(i)) picks) in
      (sets, ways, table, pbf))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"random FMM tables: grouped = reference quantiles"
       gen (fun (sets, ways, table, pbf) ->
         let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
         let fmm =
           Pwcet.Fmm.of_table ~config ~mechanism:Pwcet.Mechanism.No_protection table
         in
         let reference = Oracle.Penalty.total_distribution ~fmm ~pbf () in
         let grouped = Pwcet.Penalty.total_distribution ~fmm ~pbf () in
         Float.abs (D.total_mass reference -. D.total_mass grouped) <= 1e-12
         && List.for_all
              (fun target -> D.quantile reference ~target = D.quantile grouped ~target)
              quantile_targets))

(* Byte identity of the default engine, registry-wide: the digest of
   every [Dist.to_wire (Penalty.total_distribution ...)] at the paper's
   16x4x16 geometry and pfail 1e-4, for all three mechanisms. The
   expected value was computed before the kernel's cap, heap and dense
   paths were rewritten; any later kernel change that moves a single
   bit of any distribution fails here. *)
let registry_wire_digest = "6f9b360d0a2e3b14f496226ed6a917da"

let test_registry_byte_identity () =
  let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
  let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
      List.iter
        (fun (mechanism, fmm) ->
          let wire = D.to_wire (Pwcet.Penalty.total_distribution ~fmm ~pbf ()) in
          Printf.bprintf buf "%s/%s %s\n" e.Benchmarks.Registry.name
            (Pwcet.Mechanism.short_name mechanism)
            (Digest.to_hex (Digest.string wire)))
        (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
    Benchmarks.Registry.all;
  Alcotest.(check string) "registry total-distribution digest" registry_wire_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- shared-PMF hoist ---------------------------------------------------- *)

let test_shared_pmf_identity () =
  let config = Cache.Config.make ~sets:4 ~ways:2 ~line_bytes:16 () in
  List.iter
    (fun mechanism ->
      let fmm =
        Pwcet.Fmm.of_table ~config ~mechanism
          [| [| 0; 10; 130 |]; [| 0; 14; 164 |]; [| 0; 0; 0 |]; [| 0; 20; 240 |] |]
      in
      let pbf = 0.1 in
      let pmf = Pwcet.Penalty.way_pmf ~fmm ~pbf in
      for set = 0 to 3 do
        Alcotest.check support
          (Printf.sprintf "%s set %d" (Pwcet.Mechanism.short_name mechanism) set)
          (D.support (Pwcet.Penalty.set_distribution ~fmm ~pbf ~set ()))
          (D.support (Pwcet.Penalty.set_distribution ~pmf ~fmm ~pbf ~set ()))
      done)
    Pwcet.Mechanism.all

(* --- sweep identity -------------------------------------------------------- *)

(* A pfail sweep through [Grid.run] (FMM computed once per panel, only
   the reweighting redone per point) must be bit-identical to
   independent estimate calls at each grid point, for every jobs value
   and mechanism. The estimates are collected through [on_cell]. *)
let test_sweep_matches_estimates () =
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let grid = [ 1e-6; 1e-5; 1e-4; 1e-3 ] in
  List.iter
    (fun name ->
      let entry = Option.get (Benchmarks.Registry.find name) in
      let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
      let program = compiled.Minic.Compile.program in
      let task = Pwcet.Estimator.prepare ~program ~config () in
      let spec =
        { Grid.benchmarks = [ (name, program) ]; configs = [ config ];
          mechanisms = Pwcet.Mechanism.all; pfail_grid = grid; targets = quantile_targets;
          engine = `Path; exact = false; impl = `Sliced }
      in
      List.iter
        (fun jobs ->
          let swept = Hashtbl.create 16 in
          let lock = Mutex.create () in
          let outcomes =
            Grid.run ~jobs
              ~on_cell:(fun cell est ->
                Mutex.protect lock (fun () ->
                    Hashtbl.replace swept (Grid.point_key cell.Grid.point) est))
              spec
          in
          Alcotest.(check int) "one estimate per point" (List.length outcomes)
            (Hashtbl.length swept);
          List.iter
            (fun ((point : Grid.point), _) ->
              let mechanism = point.mechanism and pfail = point.pfail in
              let est = Hashtbl.find swept (Grid.point_key point) in
              let label =
                Printf.sprintf "%s/%s pfail %g jobs %d" name
                  (Pwcet.Mechanism.short_name mechanism) pfail jobs
              in
              let independent = Pwcet.Estimator.estimate task ~pfail ~mechanism ~jobs () in
              Alcotest.(check (float 0.)) (label ^ " pbf")
                independent.Pwcet.Estimator.pbf est.Pwcet.Estimator.pbf;
              Alcotest.check support (label ^ " penalty")
                (D.support independent.Pwcet.Estimator.penalty)
                (D.support est.Pwcet.Estimator.penalty);
              List.iter
                (fun target ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s pwcet at %g" label target)
                    (Pwcet.Estimator.pwcet independent ~target)
                    (Pwcet.Estimator.pwcet est ~target))
                quantile_targets)
            outcomes)
        [ 1; 2; 3 ])
    [ "fibcall"; "crc" ]

let () =
  Alcotest.run "dist_engine"
    [ ( "kernel",
        [ Alcotest.test_case "merge = reference, random" `Quick test_kernel_matches_reference
        ; Alcotest.test_case "edge cases" `Quick test_kernel_edge_cases
        ; Alcotest.test_case "convolve_all impls" `Quick test_convolve_all_impls_match
        ] )
    ; ( "regimes",
        [ Alcotest.test_case "heap, runs over either side" `Quick test_heap_regime
        ; Alcotest.test_case "dense, underflowing products" `Quick test_dense_underflow
        ; Alcotest.test_case "dense, step-99 lattice" `Quick test_dense_lattice
        ; Alcotest.test_case "cap = sort-based oracle" `Quick test_cap_oracle
        ] )
    ; ( "dense branches",
        [ Alcotest.test_case "rows over a, descending j" `Quick test_rows_over_a
        ; Alcotest.test_case "rows over b, ascending i" `Quick test_rows_over_b
        ; Alcotest.test_case "scatter fallback" `Quick test_scatter_fallback
        ; Alcotest.test_case "singleton operands" `Quick test_singletons
        ; test_random_lattices
        ] )
    ; ( "power",
        [ Alcotest.test_case "pow = tree (capping incl.)" `Quick test_pow_matches_tree
        ; Alcotest.test_case "pow = fold, dyadic uncapped" `Quick test_pow_matches_fold_uncapped
        ; Alcotest.test_case "capped pow conservative" `Quick test_pow_capped_is_conservative
        ; Alcotest.test_case "negative power" `Quick test_pow_invalid
        ] )
    ; ( "total distribution",
        [ Alcotest.test_case "registry differential" `Quick test_registry_differential
        ; test_random_fmm_differential
        ; Alcotest.test_case "shared pmf" `Quick test_shared_pmf_identity
        ; Alcotest.test_case "registry byte identity" `Quick test_registry_byte_identity
        ] )
    ; ( "sweep",
        [ Alcotest.test_case "sweep = independent estimates" `Quick test_sweep_matches_estimates
        ] )
    ]
