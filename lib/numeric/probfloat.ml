let check p k =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then invalid_arg "Probfloat: p outside [0,1]";
  if k < 0 then invalid_arg "Probfloat: negative exponent"

let one_minus_pow_one_minus ~p ~k =
  check p k;
  if p = 1.0 then if k = 0 then 0.0 else 1.0
  else -.Float.expm1 (float_of_int k *. Float.log1p (-.p))

(* Real-exponent variants for rate composition: (1 - p)^n with n a
   count of events per hour (or a 1/k unit split, as in the
   Reghenzani re-execution model) is not an integer power. Same
   log1p/expm1 discipline: p ~ 1e-19 composed over ~1e9 jobs/hour
   must not round to "1.0 - 0.0". *)
let check_real p n =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then invalid_arg "Probfloat: p outside [0,1]";
  if not (Float.is_finite n) || n < 0.0 then invalid_arg "Probfloat: bad real exponent"

let pow_one_minus_real ~p ~n =
  check_real p n;
  if p = 1.0 then if n = 0.0 then 1.0 else 0.0
  else exp (n *. Float.log1p (-.p))

let one_minus_pow_one_minus_real ~p ~n =
  check_real p n;
  if p = 1.0 then if n = 0.0 then 0.0 else 1.0
  else -.Float.expm1 (n *. Float.log1p (-.p))

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)
