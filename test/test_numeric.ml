(* Tests for lib/numeric: bigints, rationals, compensated summation and
   the binomial law. The bigint layer backs the exact simplex, so the
   property tests here are deliberately heavy on algebraic laws. *)

module B = Numeric.Bigint
module R = Numeric.Rat
module K = Numeric.Kahan
module Bin = Numeric.Binomial
module Pf = Numeric.Probfloat

let bigint = Alcotest.testable B.pp B.equal
let rat = Alcotest.testable R.pp R.equal

(* --- generators ------------------------------------------------------ *)

(* Big values are built from decimal strings so they exceed native ints. *)
let gen_digits =
  QCheck2.Gen.(
    let* len = int_range 1 60 in
    let* first = int_range (if len = 1 then 0 else 1) 9 in
    let* rest = list_size (return (len - 1)) (int_range 0 9) in
    let* negative = bool in
    let body = String.concat "" (List.map string_of_int (first :: rest)) in
    return (if negative && body <> "0" then "-" ^ body else body))

let gen_bigint = QCheck2.Gen.map B.of_string gen_digits

let gen_nonzero_bigint =
  QCheck2.Gen.map (fun b -> if B.is_zero b then B.one else b) gen_bigint

let gen_rat =
  QCheck2.Gen.(
    let* n = gen_bigint in
    let* d = gen_nonzero_bigint in
    return (R.make n d))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

(* --- Bigint unit tests ------------------------------------------------ *)

let test_of_int_small () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (B.to_string (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1073741823; 1073741824; -1073741824; max_int; min_int ]

let test_to_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; -1; max_int; min_int; 123456789012345 ]

let test_to_int_overflow () =
  let huge = B.of_string "123456789012345678901234567890" in
  Alcotest.(check (option int)) "overflow" None (B.to_int huge)

let test_string_roundtrip_known () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "-1"; "999999999999999999999999999999"; "-123456789123456789123456789" ]

let test_add_known () =
  let a = B.of_string "99999999999999999999" in
  let b = B.of_string "1" in
  Alcotest.check bigint "carry chain" (B.of_string "100000000000000000000") (B.add a b)

let test_mul_known () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  Alcotest.check bigint "cross mul"
    (B.of_string "121932631356500531347203169112635269")
    (B.mul a b)

let test_divmod_known () =
  let a = B.of_string "1000000000000000000000000" in
  let b = B.of_string "999999999999" in
  let q, r = B.divmod a b in
  Alcotest.check bigint "q" (B.of_string "1000000000001") q;
  Alcotest.check bigint "r" B.one r;
  Alcotest.check bigint "recompose" a (B.add (B.mul q b) r)

let test_div_by_zero () =
  Alcotest.check_raises "divmod 0" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero))

let test_gcd_known () =
  Alcotest.check bigint "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  Alcotest.check bigint "gcd zero" (B.of_int 7) (B.gcd B.zero (B.of_int 7))

let test_pow_known () =
  Alcotest.check bigint "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow (B.of_int 2) 100);
  Alcotest.check bigint "x^0" B.one (B.pow (B.of_int 12345) 0)

let test_bit_length () =
  Alcotest.(check int) "0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "1" 1 (B.bit_length B.one);
  Alcotest.(check int) "2^30" 31 (B.bit_length (B.of_int (1 lsl 30)));
  Alcotest.(check int) "2^100" 101 (B.bit_length (B.pow (B.of_int 2) 100))

let test_to_float () =
  Alcotest.(check (float 1e-6)) "small" 42.0 (B.to_float (B.of_int 42));
  let x = B.pow (B.of_int 10) 20 in
  Alcotest.(check (float 1e6)) "1e20" 1e20 (B.to_float x);
  Alcotest.(check (float 1e6)) "-1e20" (-1e20) (B.to_float (B.neg x))

(* --- Bigint properties ------------------------------------------------ *)

let bigint_props =
  [ prop "string roundtrip" gen_digits (fun s -> B.to_string (B.of_string s) = s)
  ; prop "add commutes" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a))
  ; prop "add associates" (QCheck2.Gen.triple gen_bigint gen_bigint gen_bigint)
      (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)))
  ; prop "mul commutes" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.mul a b) (B.mul b a))
  ; prop "mul associates" (QCheck2.Gen.triple gen_bigint gen_bigint gen_bigint)
      (fun (a, b, c) -> B.equal (B.mul (B.mul a b) c) (B.mul a (B.mul b c)))
  ; prop "distributivity" (QCheck2.Gen.triple gen_bigint gen_bigint gen_bigint)
      (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))
  ; prop "sub inverse" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.add (B.sub a b) b) a)
  ; prop "neg involution" gen_bigint (fun a -> B.equal (B.neg (B.neg a)) a)
  ; prop "divmod invariant" (QCheck2.Gen.pair gen_bigint gen_nonzero_bigint)
      (fun (a, b) ->
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a))
  ; prop "gcd divides both" (QCheck2.Gen.pair gen_nonzero_bigint gen_nonzero_bigint)
      (fun (a, b) ->
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g) && B.sign g > 0)
  ; prop "compare antisym" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.compare a b = -B.compare b a)
  ; prop "compare vs sub sign" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        let c = B.compare a b in
        let s = B.sign (B.sub a b) in
        (c > 0) = (s > 0) && (c < 0) = (s < 0) && (c = 0) = (s = 0))
  ; prop "int ops agree" (QCheck2.Gen.pair (QCheck2.Gen.int_range (-100000) 100000)
                            (QCheck2.Gen.int_range (-100000) 100000))
      (fun (x, y) ->
        B.equal (B.add (B.of_int x) (B.of_int y)) (B.of_int (x + y))
        && B.equal (B.mul (B.of_int x) (B.of_int y)) (B.of_int (x * y))
        && B.equal (B.sub (B.of_int x) (B.of_int y)) (B.of_int (x - y)))
  ; prop "int divmod agrees" (QCheck2.Gen.pair (QCheck2.Gen.int_range (-100000) 100000)
                                (QCheck2.Gen.int_range 1 100000))
      (fun (x, y) ->
        let q, r = B.divmod (B.of_int x) (B.of_int y) in
        B.equal q (B.of_int (x / y)) && B.equal r (B.of_int (x mod y)))
  ]

(* --- Rat tests -------------------------------------------------------- *)

let test_rat_canonical () =
  let r = R.of_ints 6 (-4) in
  Alcotest.check bigint "num" (B.of_int (-3)) (R.num r);
  Alcotest.check bigint "den" (B.of_int 2) (R.den r)

let test_rat_arith_known () =
  Alcotest.check rat "1/3 + 1/6" (R.of_ints 1 2) (R.add (R.of_ints 1 3) (R.of_ints 1 6));
  Alcotest.check rat "2/3 * 3/4" (R.of_ints 1 2) (R.mul (R.of_ints 2 3) (R.of_ints 3 4));
  Alcotest.check rat "(1/2) / (1/4)" (R.of_int 2) (R.div (R.of_ints 1 2) (R.of_ints 1 4))

let test_rat_floor_ceil () =
  let check_fc s r fl ce =
    Alcotest.check bigint (s ^ " floor") (B.of_int fl) (R.floor r);
    Alcotest.check bigint (s ^ " ceil") (B.of_int ce) (R.ceil r)
  in
  check_fc "7/2" (R.of_ints 7 2) 3 4;
  check_fc "-7/2" (R.of_ints (-7) 2) (-4) (-3);
  check_fc "4" (R.of_int 4) 4 4;
  check_fc "-4" (R.of_int (-4)) (-4) (-4)

let test_rat_to_float () =
  Alcotest.(check (float 1e-12)) "1/3" (1.0 /. 3.0) (R.to_float (R.of_ints 1 3))

let rat_props =
  [ prop "canonical form" gen_rat (fun r ->
        B.sign (R.den r) > 0 && B.equal (B.gcd (R.num r) (R.den r)) B.one
        || (R.is_zero r && B.equal (R.den r) B.one))
  ; prop "add commutes" (QCheck2.Gen.pair gen_rat gen_rat) (fun (a, b) ->
        R.equal (R.add a b) (R.add b a))
  ; prop "mul distributes" (QCheck2.Gen.triple gen_rat gen_rat gen_rat) (fun (a, b, c) ->
        R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)))
  ; prop "sub inverse" (QCheck2.Gen.pair gen_rat gen_rat) (fun (a, b) ->
        R.equal (R.add (R.sub a b) b) a)
  ; prop "inv involution" gen_rat (fun a ->
        R.is_zero a || R.equal (R.inv (R.inv a)) a)
  ; prop "floor <= x < floor+1" gen_rat (fun a ->
        let f = R.of_bigint (R.floor a) in
        R.compare f a <= 0 && R.compare a (R.add f R.one) < 0)
  ; prop "ceil is -floor(-x)" gen_rat (fun a ->
        B.equal (R.ceil a) (B.neg (R.floor (R.neg a))))
  ; prop "compare consistent with sub" (QCheck2.Gen.pair gen_rat gen_rat) (fun (a, b) ->
        let c = R.compare a b and s = R.sign (R.sub a b) in
        (c > 0) = (s > 0) && (c = 0) = (s = 0))
  ]

(* --- Kahan ------------------------------------------------------------ *)

let test_kahan_vs_naive () =
  (* 1e16 + 1.0 repeated: naive summation loses every 1.0. *)
  let terms = 1e16 :: List.init 1000 (fun _ -> 1.0) in
  let compensated = K.sum terms in
  Alcotest.(check (float 1.0)) "compensated keeps units" (1e16 +. 1000.0) compensated

let test_kahan_tiny_terms () =
  let terms = List.init 100000 (fun _ -> 1e-20) in
  Alcotest.(check (float 1e-21)) "tiny sum" 1e-15 (K.sum terms)

let test_kahan_sum_by () =
  Alcotest.(check (float 1e-9)) "sum_by" 6.0 (K.sum_by float_of_int [ 1; 2; 3 ])

let kahan_props =
  [ prop "matches naive on benign input"
      QCheck2.Gen.(list_size (int_range 0 50) (float_range (-1000.) 1000.))
      (fun xs ->
        let naive = List.fold_left ( +. ) 0.0 xs in
        Float.abs (K.sum xs -. naive) <= 1e-7 *. (1.0 +. Float.abs naive))
  ; prop "suffix_totals = add/total"
      QCheck2.Gen.(
        list_size (int_range 0 60)
          (map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range (-1.) 1.) (int_range (-30) 30)))
      (fun xs ->
        let xs = Array.of_list xs in
        let acc = K.create () in
        let expected = Array.make (Array.length xs) 0.0 in
        for i = Array.length xs - 1 downto 0 do
          K.add acc xs.(i);
          expected.(i) <- K.total acc
        done;
        Array.for_all2
          (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          expected (K.suffix_totals xs))
  ]

(* --- Binomial / Probfloat --------------------------------------------- *)

let test_choose_known () =
  Alcotest.(check (float 0.)) "C(4,2)" 6.0 (Bin.choose 4 2);
  Alcotest.(check (float 0.)) "C(4,0)" 1.0 (Bin.choose 4 0);
  Alcotest.(check (float 0.)) "C(4,5)" 0.0 (Bin.choose 4 5);
  Alcotest.check bigint "C(100,50) exact"
    (B.of_string "100891344545564193334812497256")
    (Bin.choose_exact 100 50)

let test_pmf_sums_to_one () =
  List.iter
    (fun (n, p) ->
      let total = K.sum_array (Bin.pmf_all ~n ~p) in
      Alcotest.(check (float 1e-12)) (Printf.sprintf "n=%d p=%g" n p) 1.0 total)
    [ (4, 0.5); (4, 1e-4); (16, 0.01); (64, 1e-6); (1, 0.3); (0, 0.7) ]

let test_pmf_degenerate () =
  Alcotest.(check (float 0.)) "p=0, k=0" 1.0 (Bin.pmf ~n:4 ~p:0.0 0);
  Alcotest.(check (float 0.)) "p=0, k=1" 0.0 (Bin.pmf ~n:4 ~p:0.0 1);
  Alcotest.(check (float 0.)) "p=1, k=n" 1.0 (Bin.pmf ~n:4 ~p:1.0 4);
  Alcotest.(check (float 0.)) "p=1, k<n" 0.0 (Bin.pmf ~n:4 ~p:1.0 3)

let test_pmf_tiny_p_no_underflow () =
  (* pwf with pfail-scale values: masses are tiny but must not be 0. *)
  let p = Bin.pmf ~n:4 ~p:1e-10 4 in
  Alcotest.(check bool) "positive" true (p > 0.0);
  Alcotest.(check (float 1e-52)) "approx p^4" 1e-40 p

let test_survival_cdf () =
  let n = 8 and p = 0.2 in
  for k = -1 to 8 do
    let s = Bin.survival ~n ~p k +. Bin.cdf ~n ~p k in
    Alcotest.(check (float 1e-12)) (Printf.sprintf "k=%d" k) 1.0 s
  done

let test_probfloat_eq1 () =
  (* Paper eq. 1 with the paper's numbers: pfail=1e-4, K=128 bits. *)
  let pbf = Pf.one_minus_pow_one_minus ~p:1e-4 ~k:128 in
  Alcotest.(check (float 1e-6)) "pbf" 0.0127191 pbf;
  (* Tiny pfail: the naive formula would return 0. *)
  let tiny = Pf.one_minus_pow_one_minus ~p:1e-18 ~k:128 in
  Alcotest.(check bool) "no cancellation" true (tiny > 1.27e-16 && tiny < 1.29e-16)

let test_probfloat_real_exponent () =
  (* Real-exponent rate composition (the sched re-execution model):
     1 - (1-p)^n over n ~ 1e9 jobs/hour with p ~ 1e-19 per job. The
     naive form rounds (1-p) to 1.0 and answers 0; the expm1/log1p
     form keeps the leading term n*p with only O((n*p)^2) bias. *)
  let p = 1e-19 and n = 1e9 in
  let v = Pf.one_minus_pow_one_minus_real ~p ~n in
  let rel = Float.abs (v -. n *. p) /. (n *. p) in
  Alcotest.(check bool) (Printf.sprintf "1-(1-1e-19)^1e9 ~ 1e-10 (rel %g)" rel)
    true (rel < 1e-9);
  (* The two forms are complements. *)
  let w = Pf.pow_one_minus_real ~p ~n in
  Alcotest.(check (float 1e-15)) "complement" 1.0 (w +. v);
  (* Integer exponents agree with the integer implementation bit-for-bit. *)
  List.iter
    (fun (p, k) ->
      Alcotest.(check (float 0.)) (Printf.sprintf "int agreement p=%g k=%d" p k)
        (Pf.one_minus_pow_one_minus ~p ~k)
        (Pf.one_minus_pow_one_minus_real ~p ~n:(float_of_int k)))
    [ (1e-4, 128); (1e-18, 128); (0.5, 3); (0.0, 7); (1.0, 0); (1.0, 5) ];
  (* Domain validation. *)
  let rejects f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  rejects (fun () -> Pf.pow_one_minus_real ~p:(-0.1) ~n:1.0);
  rejects (fun () -> Pf.pow_one_minus_real ~p:1.1 ~n:1.0);
  rejects (fun () -> Pf.pow_one_minus_real ~p:0.5 ~n:(-1.0));
  rejects (fun () -> Pf.pow_one_minus_real ~p:Float.nan ~n:1.0);
  rejects (fun () -> Pf.pow_one_minus_real ~p:0.5 ~n:Float.infinity)

let binomial_props =
  [ prop "pmf matches exact rational computation"
      QCheck2.Gen.(pair (int_range 0 12) (int_range 1 99))
      (fun (n, pct) ->
        let p = float_of_int pct /. 100.0 in
        let ok = ref true in
        for k = 0 to n do
          (* Exact value with rational arithmetic. *)
          let c = Bin.choose_exact n k in
          let pnum = B.pow (B.of_int pct) k in
          let qnum = B.pow (B.of_int (100 - pct)) (n - k) in
          let exact = R.make (B.mul c (B.mul pnum qnum)) (B.pow (B.of_int 100) n) in
          let approx = Bin.pmf ~n ~p k in
          let exact_f = R.to_float exact in
          if Float.abs (approx -. exact_f) > 1e-9 *. (exact_f +. 1e-300) +. 1e-15 then ok := false
        done;
        !ok)
  ; prop "survival decreasing in k" QCheck2.Gen.(pair (int_range 0 20) (float_range 0.01 0.99))
      (fun (n, p) ->
        let ok = ref true in
        for k = 0 to n - 1 do
          if Bin.survival ~n ~p k < Bin.survival ~n ~p (k + 1) -. 1e-15 then ok := false
        done;
        !ok)
  ]

let () =
  Alcotest.run "numeric"
    [ ( "bigint-unit",
        [ Alcotest.test_case "of_int small" `Quick test_of_int_small
        ; Alcotest.test_case "to_int roundtrip" `Quick test_to_int_roundtrip
        ; Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow
        ; Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip_known
        ; Alcotest.test_case "add carry" `Quick test_add_known
        ; Alcotest.test_case "mul known" `Quick test_mul_known
        ; Alcotest.test_case "divmod known" `Quick test_divmod_known
        ; Alcotest.test_case "div by zero" `Quick test_div_by_zero
        ; Alcotest.test_case "gcd" `Quick test_gcd_known
        ; Alcotest.test_case "pow" `Quick test_pow_known
        ; Alcotest.test_case "bit_length" `Quick test_bit_length
        ; Alcotest.test_case "to_float" `Quick test_to_float
        ] )
    ; ("bigint-props", bigint_props)
    ; ( "rat-unit",
        [ Alcotest.test_case "canonical" `Quick test_rat_canonical
        ; Alcotest.test_case "arith" `Quick test_rat_arith_known
        ; Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil
        ; Alcotest.test_case "to_float" `Quick test_rat_to_float
        ] )
    ; ("rat-props", rat_props)
    ; ( "kahan",
        [ Alcotest.test_case "vs naive" `Quick test_kahan_vs_naive
        ; Alcotest.test_case "tiny terms" `Quick test_kahan_tiny_terms
        ; Alcotest.test_case "sum_by" `Quick test_kahan_sum_by
        ] )
    ; ("kahan-props", kahan_props)
    ; ( "binomial",
        [ Alcotest.test_case "choose known" `Quick test_choose_known
        ; Alcotest.test_case "pmf sums to 1" `Quick test_pmf_sums_to_one
        ; Alcotest.test_case "degenerate p" `Quick test_pmf_degenerate
        ; Alcotest.test_case "tiny p no underflow" `Quick test_pmf_tiny_p_no_underflow
        ; Alcotest.test_case "survival + cdf = 1" `Quick test_survival_cdf
        ; Alcotest.test_case "paper eq.1 values" `Quick test_probfloat_eq1
        ; Alcotest.test_case "real exponents" `Quick test_probfloat_real_exponent
        ] )
    ; ("binomial-props", binomial_props)
    ]
