(* Odd multipliers below 2^62: the usual 64-bit splitmix constants do
   not fit OCaml's immediate-int literals, so the finalizer uses the
   xorshift* multiplier and companions of the same shape. Multiplication
   wraps modulo 2^63, which is exactly the mixing we want. *)
let mult_a = 0x2545F4914F6CDD1D
let mult_b = 0x27220A95FE1DADD5
let gamma = 0x1E3779B97F4A7C15

let mix z =
  let z = (z lxor (z lsr 33)) * mult_a in
  let z = (z lxor (z lsr 29)) * mult_b in
  z lxor (z lsr 32)

(* 2^-53, so the 53 low bits of the mix cover [0, 1) uniformly. *)
let ulp53 = 1.0 /. 9007199254740992.0

let uniform ~stream ~draw =
  float_of_int (mix (stream + ((draw + 1) * mult_a)) land 0x1F_FFFF_FFFF_FFFF) *. ulp53
