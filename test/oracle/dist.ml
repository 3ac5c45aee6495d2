(* The reference convolution tree: a balanced pairwise reduction over
   the hash-table kernel [Prob.Dist.convolve_reference], written apart
   from [Prob.Dist.convolve_all]/[convolve_pow], which it checks. *)

let convolve_all ?max_points dists =
  let rec pair_up = function
    | a :: b :: rest -> Prob.Dist.convolve_reference ?max_points a b :: pair_up rest
    | tail -> tail
  in
  let rec reduce = function
    | [] -> Prob.Dist.point 0
    | [ d ] -> d
    | ds -> reduce (pair_up ds)
  in
  reduce dists
