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
   number at most 16*n*m and at most 2^22, the heap merge otherwise. The
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
   far outlier that makes the sum range dwarf 16*n*m. Sizes are drawn on
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
   both padded costs exceed [padding_limit]*n*m (Dist's
   [dense_padding_limit]) it scatters the n*m products instead.
   [dense_branch] restates that rule so that each generator below can
   assert it forces the branch it is named after. *)
let padding_limit = 8

type branch = Heap | Rows_over_b | Rows_over_a | Scatter

let branch_name = function
  | Heap -> "heap"
  | Rows_over_b -> "rows over b"
  | Rows_over_a -> "rows over a"
  | Scatter -> "scatter"

let penalties d = List.map fst (D.support d)

(* The step of both supports' common lattice: the gcd of every
   difference within each of them. *)
let common_step a b =
  let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
  let step_of = function
    | [] -> 0
    | x :: rest -> List.fold_left (fun g y -> gcd g (y - x)) 0 rest
  in
  max 1 (gcd (step_of (penalties a)) (step_of (penalties b)))

(* Both supports as bucket offsets on their common lattice. *)
let lattice_offsets a b =
  let step = common_step a b in
  let offsets ps = List.map (fun x -> (x - List.hd ps) / step) ps in
  (offsets (penalties a), offsets (penalties b))

let extent offs = List.nth offs (List.length offs - 1) + 1

let dense_branch a b =
  let oa, ob = lattice_offsets a b in
  let n = List.length oa and m = List.length ob in
  let la = extent oa and lb = extent ob in
  if la + lb - 1 > 1 lsl 22 || la + lb - 1 > 16 * n * m then Heap
  else if n * lb <= m * la && n * lb <= padding_limit * n * m then Rows_over_b
  else if m * la <= padding_limit * n * m then Rows_over_a
  else Scatter

(* The points [step * x] for the ascending lattice [offsets], each with
   a probability in [0.02, 1) / max 64 k (k points, so the mass stays
   at most 1) or, when [tiny], near 1e-170 for about half of them, so
   that two tiny factors underflow to +0.0. *)
let offsets_dist state ~offsets ~step ~tiny =
  let scale = float_of_int (max 64 (List.length offsets)) in
  D.of_sub_points
    (List.map
       (fun x ->
         let p = (0.02 +. Random.State.float state 0.98) /. scale in
         (step * x, if tiny && Random.State.bool state then p *. 1e-168 else p))
       offsets)

(* [k] points on [0, extent) that include both ends, drawn as above. *)
let lattice_dist state ~k ~extent ~step ~tiny =
  let inner = if extent > 2 then random_support state ~k:(k - 2) ~bound:(extent - 2) else [] in
  let offsets = if k = 1 then [ 0 ] else (0 :: List.map succ inner) @ [ extent - 1 ] in
  offsets_dist state ~offsets ~step ~tiny

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

(* Both operands 1/20 dense: either padding costs 20*n*m, past the 8x
   limit, while the sums still fit the dense regime's bucket budget
   (20*(n+m) <= 16*n*m once n, m >= 10). *)
let test_scatter_fallback () =
  each_branch_trial ~seed:257 ~trials:30 "both sparse" Scatter (fun state ~tiny ->
      let n = 10 + Random.State.int state 20 and m = 10 + Random.State.int state 20 in
      ( lattice_dist state ~k:n ~extent:(20 * n) ~step:1 ~tiny
      , lattice_dist state ~k:m ~extent:(20 * m) ~step:1 ~tiny ))

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

(* --- blocked rows ------------------------------------------------------------ *)

(* The stub adds its rows in blocks of 8, in the order the rows run
   (ascending offsets over [a]'s points, descending over [b]'s). A
   block is added as one when every row's margins, min(len, window)
   buckets of -0.0 on both sides of the padded row of extent [len],
   cover the union of the block's extents clamped to the output
   window; other blocks and a tail of fewer than 8 rows go one row at
   a time. [window] restates Dist's [dense_window]. For an output of
   one window the test is a spread of at most the margin between the
   block's first and last offsets; [block_paths] restates it there and
   counts the rows that go (blocked, one at a time). *)
let window = 1024

let block_paths ~rows ~inner ~descending =
  let offs, inner_offs = lattice_offsets rows inner in
  let len = extent inner_offs in
  assert (extent offs + len - 1 <= window);
  let offs = Array.of_list (if descending then List.rev offs else offs) in
  let count = Array.length offs and margin = min len window in
  let blocked = ref 0 in
  for b = 0 to (count / 8) - 1 do
    if abs (offs.((8 * b) + 7) - offs.(8 * b)) <= margin then blocked := !blocked + 8
  done;
  (!blocked, count - !blocked)

(* [make] draws (rows, inner) operands for which the padded [inner] is
   the cheaper row, strictly: as (a, b) the rows run over ascending i,
   swapped over descending j. [expect] checks the block paths of each
   orientation. *)
let each_orientation ~seed ~trials label ~expect make =
  List.iter
    (fun (descending, branch) ->
      each_branch_trial ~seed ~trials
        (label ^ if descending then ", descending" else ", ascending")
        branch
        (fun state ~tiny ->
          let rows, inner = make state ~tiny in
          expect ~descending rows inner;
          if descending then (inner, rows) else (rows, inner)))
    [ (false, Rows_over_b); (true, Rows_over_a) ]

(* 8k + t rows (k in 1..4, t in 1..7) over 4/3 of as many buckets
   against a full inner row at least as long as any 8 rows' spread:
   every full block is added as one, then the tail row by row. *)
let test_blocks_and_tail () =
  each_orientation ~seed:271 ~trials:30 "blocks and tail"
    ~expect:(fun ~descending rows inner ->
      let blocked, single = block_paths ~rows ~inner ~descending in
      let count = D.size rows in
      Alcotest.(check (pair int int)) "blocked rows, tail rows"
        (count - (count mod 8), count mod 8) (blocked, single);
      Alcotest.(check bool) "a tail" true (single > 0))
    (fun state ~tiny ->
      let n = (8 * (1 + Random.State.int state 4)) + 1 + Random.State.int state 7 in
      let m = 20 + Random.State.int state 30 in
      let step = 1 + Random.State.int state 99 in
      ( lattice_dist state ~k:n ~extent:(n + (n / 3)) ~step ~tiny
      , lattice_dist state ~k:m ~extent:m ~step ~tiny ))

(* Blocks of 8 rows whose offsets spread over the margin less one, the
   margin, the margin plus one, and further, in turn, against a full
   inner row of 10 to 40 points: the first two are added as one block,
   the others row by row, and the bucket at each end of a block that
   spreads over the whole margin meets the padded row's outermost
   -0.0. No tail, so both orientations group the same rows. *)
let test_blocks_past_margin () =
  each_orientation ~seed:277 ~trials:30 "blocks past the margin"
    ~expect:(fun ~descending rows inner ->
      let blocked, single = block_paths ~rows ~inner ~descending in
      Alcotest.(check bool) "blocked rows and single rows" true (blocked > 0 && single > 0))
    (fun state ~tiny ->
      let margin = 10 + Random.State.int state 31 in
      let blocks = 4 + Random.State.int state 3 in
      let base = ref 0 in
      let offsets =
        List.concat
          (List.init blocks (fun b ->
               let spread =
                 match b mod 4 with
                 | 0 -> margin - 1
                 | 1 -> margin
                 | 2 -> margin + 1
                 | _ -> margin + 2 + Random.State.int state margin
               in
               let first = !base in
               let inside = random_support state ~k:6 ~bound:(spread - 1) in
               base := first + spread + 1 + Random.State.int state 3;
               (first :: List.map (fun x -> first + 1 + x) inside) @ [ first + spread ]))
      in
      let step = 1 + Random.State.int state 99 in
      ( offsets_dist state ~offsets ~step ~tiny
      , lattice_dist state ~k:margin ~extent:margin ~step ~tiny ));
  (* One block spreading one bucket past the margin of a 10-point row,
     with the products into its first bucket underflowing to +0.0: were
     the block added as one, its last row would read the word before the
     padded row (the array's header, a nonzero denormal as a double)
     into that bucket. *)
  let rows =
    D.of_sub_points ((0, 1e-170) :: List.map (fun x -> (x, 1.0 /. 64.0)) [ 1; 2; 3; 4; 5; 6; 11 ])
  in
  let inner = D.of_sub_points ((0, 1e-170) :: List.init 9 (fun x -> (x + 1, 1.0 /. 64.0))) in
  List.iter
    (fun (descending, branch, a, b) ->
      let label = "one bucket past the margin" ^ if descending then ", descending" else "" in
      Alcotest.(check (pair int int)) (label ^ ": paths") (0, 8)
        (block_paths ~rows ~inner ~descending);
      Alcotest.(check (pair int (float 0.))) (label ^ ": first bucket") (0, 0.0)
        (List.hd (D.support (D.convolve ~max_points:max_int a b)));
      check_branch label branch a b)
    [ (false, Rows_over_b, rows, inner); (true, Rows_over_a, inner, rows) ]

(* Rows shorter than a window (an inner row of 100 to 400 buckets, 3/4
   full) over an output of 3 to 4 windows: rows and blocks straddle
   window edges, where the blocks are clamped to the window. *)
let test_short_rows_many_windows () =
  each_orientation ~seed:281 ~trials:6 "short rows, 3+ windows"
    ~expect:(fun ~descending:_ rows inner ->
      let offs, inner_offs = lattice_offsets rows inner in
      Alcotest.(check bool) "rows shorter than a window, output over 2 windows" true
        (extent inner_offs < window && extent offs + extent inner_offs - 1 > 2 * window))
    (fun state ~tiny ->
      let lb = 100 + Random.State.int state 301 and la = 2200 + Random.State.int state 1001 in
      let step = 1 + Random.State.int state 99 in
      ( lattice_dist state ~k:(la / 8) ~extent:la ~step ~tiny
      , lattice_dist state ~k:(3 * lb / 4) ~extent:lb ~step ~tiny ))

(* Rows longer than a window (an inner row of 1,100 to 1,800 buckets,
   half full, so the margin is a whole window) over an output of 3 to
   4 windows. *)
let test_long_rows_many_windows () =
  each_orientation ~seed:283 ~trials:4 "long rows, 3+ windows"
    ~expect:(fun ~descending:_ rows inner ->
      let offs, inner_offs = lattice_offsets rows inner in
      Alcotest.(check bool) "rows longer than a window, output over 2 windows" true
        (extent inner_offs > window && extent offs + extent inner_offs - 1 > 2 * window))
    (fun state ~tiny ->
      let lb = 1100 + Random.State.int state 701 and la = 1200 + Random.State.int state 801 in
      let step = 1 + Random.State.int state 99 in
      ( lattice_dist state ~k:(la / 20) ~extent:la ~step ~tiny
      , lattice_dist state ~k:(lb / 2) ~extent:lb ~step ~tiny ))

(* Random sizes, lattice densities, steps and probability scales: every
   branch of the kernel, including the heap when the lattice is thin.
   One side in four has 41 to 400 points, so some cases run 8 rows and
   more (full blocks and tails) and some outputs span several windows. *)
let test_random_lattices =
  let gen =
    QCheck2.Gen.(
      let side =
        triple
          (frequency [ (3, int_range 1 40); (1, int_range 41 400) ])
          (float_range 0.02 1.0) bool
        >|= fun (k, density, tiny) ->
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

(* The cut above [q]: with no cap, the points at most [q] of
   [convolve ~above:q] are those of the cut reference and of the uncut
   convolution bit for bit, also when an operand is itself cut at [q];
   the lumped point sits where the reference puts it, with a mass that
   agrees within 1e-12 relative (plus one subnormal unit per product,
   which a product that underflowed loses in the reference's sum). The
   bound ranges from below the least sum to past the largest, and half
   the time it is a sum itself. *)
let test_random_cuts =
  let gen =
    QCheck2.Gen.(
      let side =
        triple
          (frequency [ (3, int_range 1 40); (1, int_range 41 400) ])
          (float_range 0.02 1.0) bool
        >|= fun (k, density, tiny) ->
        (k, max k (int_of_float (float_of_int k /. density)), tiny)
      in
      pair
        (quad side side (oneofl [ 1; 3; 99 ]) int)
        (triple side (float_range (-0.1) 1.1) bool))
  in
  let print (((n, la, ta), (m, lb, tb), step, seed), ((k, lc, tc), at, on_point)) =
    Printf.sprintf
      "a: %d points over %d%s; b: %d points over %d%s; c: %d points over %d%s; step %d; \
       seed %d; cut at %.3f of the %s"
      n la (if ta then " tiny" else "") m lb (if tb then " tiny" else "") k lc
      (if tc then " tiny" else "") step seed at
      (if on_point then "points of a + b" else "range")
  in
  let below q d = List.filter (fun (x, _) -> x <= q) (D.support d) in
  let above q d = List.filter (fun (x, _) -> x > q) (D.support d) in
  let mass_agrees ~products merge reference =
    match (merge, reference) with
    | [], [] -> true
    | [ (x, p) ], [ (y, r) ] ->
      x = y
      && Float.abs (p -. r)
         <= (1e-12 *. Float.max p r) +. (float_of_int products *. Float.min_float *. epsilon_float)
    | _ -> false
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print ~name:"random cuts: merge = cut reference" gen
       (fun (((n, la, ta), (m, lb, tb), step, seed), ((k, lc, tc), at, on_point)) ->
         let state = Random.State.make [| seed |] in
         let a = lattice_dist state ~k:n ~extent:la ~step ~tiny:ta in
         let b = lattice_dist state ~k:m ~extent:lb ~step ~tiny:tb in
         let c = lattice_dist state ~k ~extent:lc ~step ~tiny:tc in
         let max_points = max_int in
         let whole = D.convolve_reference ~max_points a b in
         (* A bound on a point of [a + b] puts a sum exactly at it. *)
         let q =
           if on_point then begin
             let points = Array.of_list (D.support whole) in
             let i = int_of_float (at *. float_of_int (Array.length points)) in
             fst points.(max 0 (min (Array.length points - 1) i))
           end
           else int_of_float (at *. float_of_int (step * (la + lb + lc)))
         in
         let cut = D.convolve ~max_points ~above:q a b in
         let reference = D.convolve_reference ~max_points ~above:q a b in
         let nested = D.convolve ~max_points ~above:q cut c in
         let nested_reference = D.convolve_reference ~max_points ~above:q whole c in
         below q cut = below q reference
         && below q cut = below q whole
         && mass_agrees ~products:(n * m) (above q cut) (above q reference)
         && below q nested = below q (D.convolve_reference ~max_points whole c)
         && mass_agrees ~products:(n * m * k) (above q nested) (above q nested_reference)))

(* The cut at every bound from below the least sum to the largest, on
   each kernel branch: every point at most the bound, the lumped
   point's penalty and (within 1e-12 relative) its mass equal the cut
   reference's. A bound that is a sum keeps that sum. *)
let test_cut_every_bound () =
  let state = Random.State.make [| 307 |] in
  List.iter
    (fun (expected, (n, la), (m, lb), step) ->
      let a = lattice_dist state ~k:n ~extent:la ~step ~tiny:false in
      let b = lattice_dist state ~k:m ~extent:lb ~step ~tiny:false in
      Alcotest.(check string) "branch" (branch_name expected) (branch_name (dense_branch a b));
      let sums = penalties (D.convolve_reference ~max_points:max_int a b) in
      let bounds =
        List.sort_uniq compare (List.concat_map (fun x -> [ x - 1; x; x + 1 ]) sums)
      in
      List.iter
        (fun q ->
          let label = Printf.sprintf "%s, cut above %d" (branch_name expected) q in
          let merge = D.support (D.convolve ~max_points:max_int ~above:q a b) in
          let reference = D.support (D.convolve_reference ~max_points:max_int ~above:q a b) in
          let kept = List.filter (fun (x, _) -> x <= q) in
          Alcotest.check support (label ^ ": points") (kept reference) (kept merge);
          match (List.filter (fun (x, _) -> x > q) merge,
                 List.filter (fun (x, _) -> x > q) reference) with
          | [], [] -> ()
          | [ (x, p) ], [ (y, r) ] ->
            Alcotest.(check int) (label ^ ": lumped point") y x;
            Alcotest.(check bool) (label ^ ": lumped mass") true
              (Float.abs (p -. r) <= 1e-12 *. Float.max p r)
          | _ -> Alcotest.failf "%s: not one lumped point" label)
        bounds)
    [ (Heap, (3, 400), (4, 300), 3);
      (Rows_over_b, (30, 60), (40, 80), 1);
      (Rows_over_a, (10, 20), (40, 400), 99);
      (Scatter, (20, 2000), (20, 2000), 1) ]

(* --- windows ------------------------------------------------------------- *)

(* The dense regime walks the sums one window of [window] buckets at a
   time: it adds every row that overlaps the window into a window-sized
   accumulator, moves the present buckets out, resets the window to
   -0.0, and jumps to the next row's offset when no row overlaps a
   window. The accumulator, the padded row and the staging area are
   per-domain scratch reused by every convolution. *)

(* [clusters] groups of 8 to 16 offsets, each group starting [gap] to
   [gap + 999] buckets after the previous one. *)
let clustered_offsets state ~clusters ~gap =
  let base = ref 0 in
  List.concat
    (List.init clusters (fun _ ->
         let k = 8 + Random.State.int state 9 in
         let first = !base in
         base := first + (2 * k) + gap + Random.State.int state 1000;
         List.map (fun x -> first + x) (random_support state ~k ~bound:(2 * k))))

(* Whether some stretch of two windows between the end of one row and
   the offset of the next holds no bucket of any row: the walk then
   meets a window no row overlaps, whatever its alignment. *)
let skips_a_window ~rows ~inner =
  let offs, inner_offs = lattice_offsets rows inner in
  let len = extent inner_offs in
  let rec go = function
    | x :: (y :: _ as rest) -> y - (x + len) >= 2 * window || go rest
    | _ -> false
  in
  go offs

(* Rows in 2 to 5 clusters whose gaps hold at least two windows no row
   reaches, against a dense inner row (both orientations) or a sparse
   one (the scatter branch). Skipping a bucket too many at a jump
   drops the first product of the next row. *)
let test_skipped_windows () =
  let gen ~inner_points ~inner_extent ~gap state ~tiny =
    let m = inner_points state in
    let step = 1 + Random.State.int state 99 in
    let rows =
      offsets_dist state
        ~offsets:(clustered_offsets state ~clusters:(2 + Random.State.int state 4) ~gap)
        ~step ~tiny
    in
    let inner = lattice_dist state ~k:m ~extent:(inner_extent m) ~step ~tiny in
    Alcotest.(check bool) "a window no row overlaps" true (skips_a_window ~rows ~inner);
    (rows, inner)
  in
  each_orientation ~seed:293 ~trials:10 "skipped windows"
    ~expect:(fun ~descending:_ _ _ -> ())
    (gen
       ~inner_points:(fun state -> 40 + Random.State.int state 21)
       ~inner_extent:(fun m -> m + (m / 3))
       ~gap:2200);
  each_branch_trial ~seed:307 ~trials:10 "skipped windows, scatter" Scatter
    (gen ~inner_points:(fun state -> 32 + Random.State.int state 9)
       ~inner_extent:(fun m -> 20 * m) ~gap:2900)

(* Both operands 1/20 dense over an output of 3 to 5 windows: the
   scatter branch, whose rows start mid-window and cross several window
   edges, each resuming at its cursor. *)
let test_scatter_windows () =
  each_branch_trial ~seed:311 ~trials:8 "scatter, 3+ windows" Scatter (fun state ~tiny ->
      let n = 60 + Random.State.int state 41 and m = 60 + Random.State.int state 41 in
      let a = lattice_dist state ~k:n ~extent:(20 * n) ~step:1 ~tiny in
      let b = lattice_dist state ~k:m ~extent:(20 * m) ~step:1 ~tiny in
      let offs, inner = lattice_offsets a b in
      Alcotest.(check bool) "3+ windows, a row starting mid-window" true
        (extent offs + extent inner - 1 > 2 * window
         && List.exists (fun o -> o mod window <> 0) offs);
      (a, b))

(* Every probability near 1e-170 or, for one point in eight, near
   1e-160: each product is either a nonzero subnormal (two factors near
   1e-160) or underflows to +0.0, so most present buckets hold +0.0 and
   the rest sums of subnormals. Each branch is run over outputs of 3 or
   more windows, and over all trials some result point must be a
   nonzero subnormal and some +0.0 point must sit at either end of a
   window ([window] buckets from the lowest sum, none skipped). *)
let subnormal_dist state ~offsets ~step =
  D.of_sub_points
    (List.map
       (fun x ->
         let u = 0.5 +. Random.State.float state 0.5 in
         (step * x, if Random.State.int state 8 = 0 then u *. 1e-160 else u *. 1e-170))
       offsets)

let lattice_support state ~k ~extent =
  let inner = random_support state ~k:(k - 2) ~bound:(extent - 2) in
  (0 :: List.map succ inner) @ [ extent - 1 ]

let test_subnormal_windows () =
  let run label expected make =
    let state = Random.State.make [| Hashtbl.hash label |] in
    let subnormal = ref false and zero_edge = ref false in
    for trial = 1 to 6 do
      let a, b = make state in
      check_branch (Printf.sprintf "%s %d" label trial) expected a b;
      let step = common_step a b in
      let conv = D.support (D.convolve_reference ~max_points:max_int a b) in
      let lo = fst (List.hd conv) in
      List.iter
        (fun (x, p) ->
          let k = (x - lo) / step in
          if p > 0.0 && p < Float.min_float then subnormal := true;
          if p = 0.0 && k > 0 && (k mod window = 0 || k mod window = window - 1) then
            zero_edge := true)
        conv
    done;
    Alcotest.(check (pair bool bool)) (label ^ ": subnormal point, +0.0 on a window edge")
      (true, true) (!subnormal, !zero_edge)
  in
  let rows_and_inner state =
    let la = 2200 + Random.State.int state 1001 and lb = 100 + Random.State.int state 301 in
    let step = 1 + Random.State.int state 99 in
    ( subnormal_dist state ~offsets:(lattice_support state ~k:(la / 8) ~extent:la) ~step
    , subnormal_dist state ~offsets:(lattice_support state ~k:(3 * lb / 4) ~extent:lb) ~step )
  in
  run "subnormal rows over b" Rows_over_b rows_and_inner;
  run "subnormal rows over a" Rows_over_a (fun state ->
      let rows, inner = rows_and_inner state in
      (inner, rows));
  run "subnormal scatter" Scatter (fun state ->
      let n = 60 + Random.State.int state 41 and m = 60 + Random.State.int state 41 in
      ( subnormal_dist state ~offsets:(lattice_support state ~k:n ~extent:(20 * n)) ~step:1
      , subnormal_dist state ~offsets:(lattice_support state ~k:m ~extent:(20 * m)) ~step:1 ))

(* One domain runs large, small, large, ... convolutions over every
   branch in turn, so that scratch left over by one convolution (a
   window not reset, a padded row not cleared, a staging area not
   rewound) would show in the next; then a fresh domain runs the same
   sequence on scratch of its own. *)
let test_scratch_reuse () =
  let state = Random.State.make [| 313 |] in
  let large_rows () =
    ( lattice_dist state ~k:400 ~extent:3000 ~step:7 ~tiny:true
    , lattice_dist state ~k:300 ~extent:400 ~step:7 ~tiny:false )
  in
  let small () =
    ( lattice_dist state ~k:5 ~extent:7 ~step:7 ~tiny:false
    , lattice_dist state ~k:4 ~extent:6 ~step:7 ~tiny:true )
  in
  let large_scatter () =
    ( lattice_dist state ~k:80 ~extent:1600 ~step:1 ~tiny:true
    , lattice_dist state ~k:90 ~extent:1800 ~step:1 ~tiny:false )
  in
  let swap (a, b) = (b, a) in
  let cases =
    [ ("large rows over b", Some Rows_over_b, large_rows ()); ("small", None, small ())
    ; ("large rows over a", Some Rows_over_a, swap (large_rows ()))
    ; ("small, swapped", None, swap (small ()))
    ; ("large scatter", Some Scatter, large_scatter ()); ("small again", None, small ())
    ; ("large rows over b again", Some Rows_over_b, large_rows ()) ]
  in
  let run where () =
    List.iter
      (fun (label, branch, (a, b)) ->
        match branch with
        | Some branch -> check_branch (where ^ label) branch a b
        | None -> check_regime (where ^ label) a b)
      cases
  in
  run "" ();
  Domain.join (Domain.spawn (run "fresh domain: "))

(* The total distribution's convolutions run on [jobs] domains, each
   with its own scratch: the wire bytes must not depend on [jobs]. The
   programs with the widest laws, at pfail 1e-4 and 1e-3. *)
let test_jobs_byte_identity () =
  let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
  List.iter
    (fun name ->
      let entry = Option.get (Benchmarks.Registry.find name) in
      let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
      let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
      List.iter
        (fun (mechanism, fmm) ->
          List.iter
            (fun pfail ->
              let pbf = Fault.Model.pbf_of_config ~pfail config in
              let wire jobs = D.to_wire (Pwcet.Penalty.total_distribution ~jobs ~fmm ~pbf ()) in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s pfail %g: jobs 3 = jobs 1" name
                   (Pwcet.Mechanism.short_name mechanism) pfail)
                (wire 1) (wire 3))
            [ 1e-4; 1e-3 ])
        (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
    [ "fft"; "adpcm"; "edn" ]

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
let random_fmm_tables =
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

let fmm_of_table ~sets ~ways table =
  let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
  Pwcet.Fmm.of_table ~config ~mechanism:Pwcet.Mechanism.No_protection table

let test_random_fmm_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"random FMM tables: grouped = reference quantiles"
       random_fmm_tables (fun (sets, ways, table, pbf) ->
         let fmm = fmm_of_table ~sets ~ways table in
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

(* The same byte identity over the slices the grid-pfail benchmark
   convolves and [registry_wire_digest] misses: 16x4x16 and 32x4x16, at
   pfail 1e-6 (narrow laws) and 1e-3 (the widest supports). The expected
   value was computed before the dense kernel blocked its rows. *)
let grid_slice_wire_digest = "528eed57dcd5b8ac8c5dc9dd4144ff30"

let test_grid_slice_byte_identity () =
  let buf = Buffer.create 16384 in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun sets ->
          let config = Cache.Config.make ~sets ~ways:4 ~line_bytes:16 () in
          let task =
            Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ()
          in
          List.iter
            (fun (mechanism, fmm) ->
              List.iter
                (fun pfail ->
                  let pbf = Fault.Model.pbf_of_config ~pfail config in
                  let wire = D.to_wire (Pwcet.Penalty.total_distribution ~fmm ~pbf ()) in
                  Printf.bprintf buf "%s/%s %dx4 %g %s\n" e.Benchmarks.Registry.name
                    (Pwcet.Mechanism.short_name mechanism) sets pfail
                    (Digest.to_hex (Digest.string wire)))
                [ 1e-6; 1e-3 ])
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        [ 16; 32 ])
    Benchmarks.Registry.all;
  Alcotest.(check string) "grid-slice total-distribution digest" grid_slice_wire_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every law the grid-pfail benchmark convolves: the registry at
   16x4x16 and 32x4x16, three mechanisms, pfail 1e-6, 1e-5, 1e-4 and
   1e-3 — 600 laws. The 1e-5 slice, which neither digest above covers,
   carries laws with points of probability +0.0 at 32x4. The expected
   value was computed before the kernel moved to AVX-512 width and the
   suffix to first read. *)
let grid_pfail_wire_digest = "1f59632b3de81367bf266b37061d36e8"

let test_grid_pfail_byte_identity () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun sets ->
          let config = Cache.Config.make ~sets ~ways:4 ~line_bytes:16 () in
          let task =
            Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ()
          in
          List.iter
            (fun (mechanism, fmm) ->
              List.iter
                (fun pfail ->
                  let pbf = Fault.Model.pbf_of_config ~pfail config in
                  let wire = D.to_wire (Pwcet.Penalty.total_distribution ~fmm ~pbf ()) in
                  Printf.bprintf buf "%s/%s %dx4 %g %s\n" e.Benchmarks.Registry.name
                    (Pwcet.Mechanism.short_name mechanism) sets pfail
                    (Digest.to_hex (Digest.string wire)))
                [ 1e-6; 1e-5; 1e-4; 1e-3 ])
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        [ 16; 32 ])
    Benchmarks.Registry.all;
  Alcotest.(check string) "grid-pfail total-distribution digest" grid_pfail_wire_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- the cut law ---------------------------------------------------------- *)

(* Every grid-pfail law's FMM and pbf: the registry at 16x4x16 and
   32x4x16, three mechanisms, pfail 1e-6, 1e-5, 1e-4 and 1e-3. [check]
   sees each law's label, FMM and pbf. *)
let each_grid_pfail_fmm check =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun sets ->
          let config = Cache.Config.make ~sets ~ways:4 ~line_bytes:16 () in
          let task =
            Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ()
          in
          List.iter
            (fun (mechanism, fmm) ->
              List.iter
                (fun pfail ->
                  check
                    (Printf.sprintf "%s/%s %dx4 %g" e.Benchmarks.Registry.name
                       (Pwcet.Mechanism.short_name mechanism) sets pfail)
                    fmm
                    (Fault.Model.pbf_of_config ~pfail config))
                [ 1e-6; 1e-5; 1e-4; 1e-3 ])
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        [ 16; 32 ])
    Benchmarks.Registry.all

(* Every grid-pfail law, whole and cut at 1e-15 as a grid cell with the
   benchmark's targets cuts it: the 1,800 quantiles at 1e-15, 1e-12 and
   1e-9 are equal. *)
let grid_pfail_targets = [ 1e-15; 1e-12; 1e-9 ]

(* The largest sum a law can reach, where a cut law's lump sits. *)
let largest_sum fmm =
  Pwcet.Fmm.max_penalty_misses fmm * Cache.Config.miss_penalty (Pwcet.Fmm.config fmm)

let test_grid_pfail_cut_quantiles () =
  let laws = ref 0 and capped = ref [] and shorter = ref 0 in
  each_grid_pfail_fmm (fun label fmm pbf ->
      let whole = Pwcet.Penalty.total_distribution ~fmm ~pbf ()
      and cut = Pwcet.Penalty.cut_distribution ~fmm ~pbf ~target:1e-15 () in
      incr laws;
      if D.size cut = 65536 then capped := label :: !capped;
      (* Where the whole law never reached the cap, the cut law's points
         at most its cut [q] (the search's first pass, "grid-pfail first
         cut pass") are the whole law's bit for bit, and one point above
         it, on the largest sum, carries the rest of its mass. *)
      if D.size whole < 65536 then begin
        let q = Pwcet.Penalty.quantile_bound ~fmm ~pbf ~target:1e-15 in
        let upto = List.partition (fun (x, _) -> x <= q) in
        let below, rest = upto (D.support whole) and kept, lump = upto (D.support cut) in
        Alcotest.check support (label ^ " points below the cut") below kept;
        match (rest, lump) with
        | [], [] -> ()
        | _ :: _, [ (x, lumped) ] ->
          incr shorter;
          Alcotest.(check int) (label ^ " the lump is on the largest sum") (largest_sum fmm) x;
          let tail = Numeric.Kahan.sum_by snd rest in
          Alcotest.(check bool) (label ^ " lumped mass") true
            (Float.abs (tail -. lumped) <= 1e-12 *. tail)
        | _ -> Alcotest.failf "%s: %d points above the cut" label (List.length lump)
      end;
      List.iter
        (fun target ->
          Alcotest.(check int)
            (Printf.sprintf "%s quantile at %g" label target)
            (D.quantile whole ~target) (D.quantile cut ~target))
        grid_pfail_targets);
  Alcotest.(check int) "laws" 600 !laws;
  Alcotest.(check bool) "some uncapped laws were cut" true (!shorter > 100);
  (* The cut laws that still reach the cap and fold upward. *)
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " cut law at the cap") true (List.mem label !capped))
    [ "select/none 32x4 0.0001"; "select/none 32x4 0.001" ]

(* [Penalty.quantile_bound], the cut search's start, is a Chernoff
   bound: at least the whole law's quantile at its target, on random
   FMM tables at random pbf and targets (none of these laws reaches the
   cap, which the guard covers all the same). *)
let test_random_quantile_bounds =
  let gen =
    QCheck2.Gen.(pair random_fmm_tables (float_range 0.0 40.0 >|= fun e -> 0.5 *. exp (-.e)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"random FMM tables: quantile_bound >= quantile" gen
       (fun ((sets, ways, table, pbf), target) ->
         let fmm = fmm_of_table ~sets ~ways table in
         let whole = Pwcet.Penalty.total_distribution ~fmm ~pbf () in
         D.size whole >= 65536
         || Pwcet.Penalty.quantile_bound ~fmm ~pbf ~target >= D.quantile whole ~target))

(* The cut law at [quantile_bound], built here as [cut_distribution]'s
   first pass builds it (the active sets grouped by FMM row in
   first-seen order, each group's power cut at [q], the powers reduced
   largest uncut size first), passes the exceedance check on every one
   of the 600 grid-pfail laws, and is, once its lump is lifted to the
   largest sum, the law [cut_distribution] returns, bit for bit: no
   law's search makes a second pass. *)
let first_cut_pass ~fmm ~pbf q =
  let ways = (Pwcet.Fmm.config fmm).Cache.Config.ways in
  let rows = Hashtbl.create 16 and order = ref [] in
  for set = 0 to (Pwcet.Fmm.config fmm).Cache.Config.sets - 1 do
    if Pwcet.Fmm.misses fmm ~set ~faulty:ways <> 0 then begin
      let row = Array.init (ways + 1) (fun w -> Pwcet.Fmm.misses fmm ~set ~faulty:w) in
      match Hashtbl.find_opt rows row with
      | Some count -> incr count
      | None ->
        let count = ref 1 in
        Hashtbl.add rows row count;
        order := (set, count) :: !order
    end
  done;
  let leaves =
    List.rev_map (fun (set, count) -> (Pwcet.Penalty.set_distribution ~fmm ~pbf ~set (), !count))
      !order
  in
  let powers =
    List.mapi (fun i (d, count) -> (D.power_size d count, i, D.convolve_pow ~above:q d count)) leaves
  in
  let sorted = List.sort (fun (a, i, _) (b, j, _) -> compare (b, i) (a, j)) powers in
  match
    Parallel.Pool.reduce_pairs ~jobs:1 (D.convolve ~above:q)
      (Array.of_list (List.map (fun (_, _, d) -> d) sorted))
  with
  | Some d -> d
  | None -> D.point 0

let test_grid_pfail_first_pass () =
  let laws = ref 0 and accepted = ref 0 in
  each_grid_pfail_fmm (fun label fmm pbf ->
      incr laws;
      let q = Pwcet.Penalty.quantile_bound ~fmm ~pbf ~target:1e-15 in
      let first = first_cut_pass ~fmm ~pbf q in
      if D.exceedance first q <= 1e-15 then incr accepted;
      Alcotest.(check string) (label ^ " the search's law is its first pass")
        (D.to_wire (D.lift_lump ~above:q ~top:(largest_sum fmm) first))
        (D.to_wire (Pwcet.Penalty.cut_distribution ~fmm ~pbf ~target:1e-15 ())));
  Alcotest.(check int) "laws" 600 !laws;
  Alcotest.(check int) "first passes accepted" 600 !accepted

(* [Dist.power_size] is the size of the uncut power, which orders a
   cut reduction's leaves as the whole one's: every active set of the
   registry's 16x4 and 32x4 laws, at several powers. *)
let test_power_sizes () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun sets ->
          let config = Cache.Config.make ~sets ~ways:4 ~line_bytes:16 () in
          let task =
            Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ()
          in
          List.iter
            (fun (mechanism, fmm) ->
              let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
              for set = 0 to sets - 1 do
                if Pwcet.Fmm.misses fmm ~set ~faulty:4 > 0 then begin
                  let d = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set () in
                  List.iter
                    (fun k ->
                      Alcotest.(check int)
                        (Printf.sprintf "%s/%s %dx4 set %d power %d" e.Benchmarks.Registry.name
                           (Pwcet.Mechanism.short_name mechanism) sets set k)
                        (D.size (D.convolve_pow d k)) (D.power_size d k))
                    [ 1; 2; 3; 7; sets ]
                end
              done)
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        [ 16; 32 ])
    Benchmarks.Registry.all;
  let d = D.of_points [ (0, 0.25); (3, 0.25); (700, 0.5) ] in
  Alcotest.(check int) "capped power" 64 (D.power_size ~max_points:64 d 40);
  Alcotest.(check int) "capped power = convolve_pow" (D.size (D.convolve_pow ~max_points:64 d 40))
    (D.power_size ~max_points:64 d 40);
  Alcotest.(check int) "point" 1 (D.power_size (D.point 5) 9)

(* An estimate builds its law on first read. A quantile read cuts the
   law at its target; a read below an earlier cut builds a lower one;
   a whole-law read builds the whole law, whatever was read before.
   NaN and negative targets are refused. *)
let test_cut_estimate_refusals () =
  let entry = Option.get (Benchmarks.Registry.find "fibcall") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
  let mechanism = Pwcet.Mechanism.No_protection in
  let whole = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
  let whole_curve = Pwcet.Estimator.exceedance_curve whole in
  let cut = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "pwcet at %g" target)
        (Pwcet.Estimator.pwcet whole ~target) (Pwcet.Estimator.pwcet cut ~target))
    [ 1e-12; 1e-9; 1e-6; 1e-15 ];
  let refuses label f =
    match f () with
    | _ -> Alcotest.failf "%s: answered" label
    | exception Invalid_argument _ -> ()
  in
  refuses "negative target" (fun () -> Pwcet.Estimator.pwcet cut ~target:(-1.0));
  refuses "NaN target" (fun () -> Pwcet.Estimator.pwcet cut ~target:nan);
  refuses "NaN among targets" (fun () -> Pwcet.Estimator.pwcets cut ~targets:[ 1e-9; nan ]);
  let fresh = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
  refuses "NaN first read" (fun () -> Pwcet.Estimator.pwcet fresh ~target:nan);
  refuses "negative target, whole law" (fun () -> Pwcet.Estimator.pwcet whole ~target:(-1.0));
  refuses "NaN target, whole law" (fun () -> Pwcet.Estimator.pwcet whole ~target:nan);
  Alcotest.check support "curve after pwcet" whole_curve
    (Pwcet.Estimator.exceedance_curve cut);
  Alcotest.(check int) "whole curve" (D.size (Pwcet.Estimator.penalty whole))
    (List.length whole_curve)

(* The analyze path's laws: the registry at 16x4x16 and 8x2x16, three
   mechanisms, pfail 1e-6, 1e-5, 1e-4 and 1e-3. An estimate read at
   1e-15, 1e-12 and 1e-9 in ascending order (one law, cut at 1e-15) and
   one read in descending order (three cuts, each below the last)
   answer the whole law's quantiles. *)
let test_analyze_path_quantiles () =
  let targets = [ 1e-15; 1e-12; 1e-9 ] and reads = ref 0 in
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun (sets, ways) ->
          let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
          let task =
            Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ()
          in
          List.iter
            (fun (mechanism, fmm) ->
              List.iter
                (fun pfail ->
                  let estimate () = Pwcet.Estimator.estimate_of_fmm task ~fmm ~pfail () in
                  let whole = Pwcet.Estimator.penalty (estimate ()) in
                  List.iter
                    (fun order ->
                      let est = estimate () in
                      List.iter
                        (fun target ->
                          incr reads;
                          Alcotest.(check int)
                            (Printf.sprintf "%s/%s %dx%d %g at %g" e.Benchmarks.Registry.name
                               (Pwcet.Mechanism.short_name mechanism) sets ways pfail target)
                            (Pwcet.Estimator.fault_free_wcet task + D.quantile whole ~target)
                            (Pwcet.Estimator.pwcet est ~target))
                        order)
                    [ targets; List.rev targets ])
                [ 1e-6; 1e-5; 1e-4; 1e-3 ])
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        [ (16, 4); (8, 2) ])
    Benchmarks.Registry.all;
  Alcotest.(check int) "reads" (List.length Benchmarks.Registry.all * 2 * 3 * 4 * 2 * 3) !reads

(* Two domains read one estimate at once, one its pWCET first and its
   whole law second, the other the other way round: both answer what a
   sequential read of another estimate answers, and neither raises. *)
let test_shared_estimate_domains () =
  let entry = Option.get (Benchmarks.Registry.find "crc") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
  let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
  let fmm =
    List.assoc Pwcet.Mechanism.No_protection
      (Pwcet.Estimator.fmm_grid task ~mechanisms:[ Pwcet.Mechanism.No_protection ] ())
  in
  let estimate () = Pwcet.Estimator.estimate_of_fmm task ~fmm ~pfail:1e-4 () in
  let read ~law_first est =
    let law () = D.to_wire (Pwcet.Estimator.penalty est) in
    let pwcet () = Pwcet.Estimator.pwcet est ~target:1e-15 in
    if law_first then
      let l = law () in
      (pwcet (), l)
    else
      let q = pwcet () in
      (q, law ())
  in
  let expected = read ~law_first:false (estimate ()) in
  let answers = Alcotest.(pair int string) in
  for round = 1 to 8 do
    let est = estimate () in
    let ready = Atomic.make 0 in
    let reader law_first () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      read ~law_first est
    in
    let a = Domain.spawn (reader false) and b = Domain.spawn (reader true) in
    Alcotest.check answers (Printf.sprintf "round %d pwcet first" round) expected (Domain.join a);
    Alcotest.check answers (Printf.sprintf "round %d law first" round) expected (Domain.join b)
  done

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
   and mechanism. The estimates are collected through [on_cell]. The
   grid reads its quantiles from one law cut at its smallest target,
   so they are compared with an independent estimate read the same way
   and with the whole law's. The law is a function of the FMM table and
   pbf alone, so those are compared instead of a second law. *)
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
              let whole = Pwcet.Estimator.estimate task ~pfail ~mechanism ~jobs () in
              Alcotest.(check (float 0.)) (label ^ " pbf")
                independent.Pwcet.Estimator.pbf est.Pwcet.Estimator.pbf;
              Alcotest.(check (array (array int))) (label ^ " fmm")
                (Pwcet.Fmm.table independent.Pwcet.Estimator.fmm)
                (Pwcet.Fmm.table est.Pwcet.Estimator.fmm);
              Alcotest.(check (list (pair (float 0.) int)))
                (label ^ " pwcets")
                (Pwcet.Estimator.pwcets independent ~targets:quantile_targets)
                (Pwcet.Estimator.pwcets est ~targets:quantile_targets);
              List.iter
                (fun target ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s pwcet at %g" label target)
                    (Pwcet.Estimator.pwcet whole ~target)
                    (Pwcet.Estimator.pwcet est ~target))
                quantile_targets)
            outcomes)
        [ 1; 2; 3 ])
    [ "fibcall"; "crc" ]

(* --- suffix built on first read ------------------------------------------ *)

(* A law's exceedance suffix is built by its first tail query, not by
   the convolution that made it. The law below is fresh on every call
   (crc's penalty laws without protection and with reliable ways at
   16x4x16 and pfail 1e-4, convolved: several thousand points), so its
   suffix is unbuilt until a test reads it. *)
let fresh_law =
  let laws =
    lazy
      (let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
       let e = Option.get (Benchmarks.Registry.find "crc") in
       let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
       let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
       let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
       List.map
         (fun (_, fmm) -> Pwcet.Penalty.total_distribution ~fmm ~pbf ())
         (Pwcet.Estimator.fmm_grid task
            ~mechanisms:Pwcet.Mechanism.[ No_protection; Reliable_way ] ()))
  in
  fun () ->
    match Lazy.force laws with
    | [ a; b ] -> D.convolve a b
    | _ -> assert false

(* Neumaier-compensated sums from the top, written out here rather than
   taken from [Numeric.Kahan]. *)
let curve_from_top d =
  let points = Array.of_list (D.support d) in
  let sum = ref 0.0 and comp = ref 0.0 in
  let curve = Array.make (Array.length points) (0, 0.0) in
  for i = Array.length points - 1 downto 0 do
    let x, p = points.(i) in
    let s = !sum +. p in
    comp := !comp +. (if Float.abs !sum >= Float.abs p then !sum -. s +. p else p -. s +. !sum);
    sum := s;
    curve.(i) <- (x, !sum +. !comp)
  done;
  Array.to_list curve

let bits =
  Alcotest.testable
    (fun fmt x -> Format.fprintf fmt "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let curve = Alcotest.(list (pair int bits))

(* Every tail answer the law gives, in a fixed order. *)
let tail_answers d =
  let top = D.quantile d ~target:0.0 in
  let xs = List.init 17 (fun k -> k * top / 16) in
  ( D.total_mass d,
    List.map (fun target -> D.quantile d ~target) (0.0 :: quantile_targets),
    List.map (D.exceedance d) xs )

let test_suffix_curve () =
  let d = fresh_law () in
  Alcotest.(check bool) "several thousand points" true (D.size d > 1000);
  Alcotest.check curve "curve = compensated sums from the top" (curve_from_top d)
    (D.exceedance_curve d);
  let d = fresh_law () in
  Alcotest.(check bits) "total mass first" (snd (List.hd (curve_from_top d))) (D.total_mass d)

let test_suffix_concurrent_first_read () =
  let expected = tail_answers (fresh_law ()) in
  let answers = Alcotest.(triple bits (list int) (list bits)) in
  for round = 1 to 8 do
    let d = fresh_law () in
    (* Three domains and, in this one, two threads start their first
       read of [d] together. *)
    let ready = Atomic.make 0 and readers = 5 in
    let read () =
      Atomic.incr ready;
      while Atomic.get ready < readers do Domain.cpu_relax () done;
      tail_answers d
    in
    let domains = List.init 3 (fun _ -> Domain.spawn read) in
    let results = Array.make 2 None in
    let threads =
      List.init 2 (fun k -> Thread.create (fun () -> results.(k) <- Some (read ())) ())
    in
    List.iter Thread.join threads;
    let got = List.map Domain.join domains @ List.map Option.get (Array.to_list results) in
    List.iteri
      (fun k a -> Alcotest.check answers (Printf.sprintf "round %d reader %d" round k) expected a)
      got;
    Alcotest.check curve (Printf.sprintf "round %d curve" round) (curve_from_top d)
      (D.exceedance_curve d)
  done

let test_suffix_shift () =
  let shifted_curve c d = List.map (fun (x, s) -> (x + c, s)) (D.exceedance_curve d) in
  (* Shifted law read first, then its source; and the other way round. *)
  let d = fresh_law () in
  let s = D.shift 37 d in
  let mass = D.total_mass s in
  Alcotest.(check bits) "mass" mass (D.total_mass d);
  Alcotest.check curve "shift read first" (shifted_curve 37 d) (D.exceedance_curve s);
  let d = fresh_law () in
  let q = List.map (fun target -> D.quantile d ~target) quantile_targets in
  let s = D.shift 37 d in
  Alcotest.(check (list int)) "quantiles" (List.map (fun x -> x + 37) q)
    (List.map (fun target -> D.quantile s ~target) quantile_targets);
  List.iter
    (fun x ->
      Alcotest.(check bits) (Printf.sprintf "exceedance %d" x) (D.exceedance d x)
        (D.exceedance s (x + 37)))
    (List.init 9 (fun k -> k * List.hd q / 8));
  Alcotest.check curve "source read first" (shifted_curve 37 d) (D.exceedance_curve s)

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
    ; ( "cut",
        [ test_random_cuts
        ; Alcotest.test_case "every bound, each branch" `Quick test_cut_every_bound
        ; Alcotest.test_case "grid-pfail cut quantiles = whole" `Quick
            test_grid_pfail_cut_quantiles
        ; test_random_quantile_bounds
        ; Alcotest.test_case "grid-pfail first cut pass" `Quick test_grid_pfail_first_pass
        ; Alcotest.test_case "power sizes" `Quick test_power_sizes
        ; Alcotest.test_case "cut estimate refusals" `Quick test_cut_estimate_refusals
        ; Alcotest.test_case "analyze path quantiles = whole" `Quick test_analyze_path_quantiles
        ; Alcotest.test_case "shared estimate across domains" `Quick test_shared_estimate_domains
        ] )
    ; ( "dense branches",
        [ Alcotest.test_case "rows over a, descending j" `Quick test_rows_over_a
        ; Alcotest.test_case "rows over b, ascending i" `Quick test_rows_over_b
        ; Alcotest.test_case "scatter fallback" `Quick test_scatter_fallback
        ; Alcotest.test_case "singleton operands" `Quick test_singletons
        ; test_random_lattices
        ; Alcotest.test_case "8-row blocks and a tail" `Quick test_blocks_and_tail
        ; Alcotest.test_case "blocks past the margin" `Quick test_blocks_past_margin
        ; Alcotest.test_case "short rows, 3+ windows" `Quick test_short_rows_many_windows
        ; Alcotest.test_case "long rows, 3+ windows" `Quick test_long_rows_many_windows
        ] )
    ; ( "windows",
        [ Alcotest.test_case "skipped windows" `Quick test_skipped_windows
        ; Alcotest.test_case "scatter, 3+ windows" `Quick test_scatter_windows
        ; Alcotest.test_case "subnormal and +0.0 buckets" `Quick test_subnormal_windows
        ; Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse
        ; Alcotest.test_case "jobs byte identity" `Quick test_jobs_byte_identity
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
        ; Alcotest.test_case "grid-slice byte identity" `Quick test_grid_slice_byte_identity
        ; Alcotest.test_case "grid-pfail byte identity" `Quick test_grid_pfail_byte_identity
        ] )
    ; ( "sweep",
        [ Alcotest.test_case "sweep = independent estimates" `Quick test_sweep_matches_estimates
        ] )
    ; ( "suffix",
        [ Alcotest.test_case "curve = sums from the top" `Quick test_suffix_curve
        ; Alcotest.test_case "concurrent first reads" `Quick test_suffix_concurrent_first_read
        ; Alcotest.test_case "shift shares the suffix" `Quick test_suffix_shift
        ] )
    ]
