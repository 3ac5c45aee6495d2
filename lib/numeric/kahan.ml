(* Neumaier's variant of Kahan summation: unlike the classic version it
   stays accurate when a new term is larger than the running sum. *)

type t = { mutable sum : float; mutable compensation : float }

let create () = { sum = 0.0; compensation = 0.0 }

let add t x =
  let s = t.sum +. x in
  let correction =
    if Float.abs t.sum >= Float.abs x then (t.sum -. s) +. x else (x -. s) +. t.sum
  in
  t.compensation <- t.compensation +. correction;
  t.sum <- s

let total t = t.sum +. t.compensation

let sum xs =
  let acc = create () in
  List.iter (add acc) xs;
  total acc

let sum_array xs =
  let acc = create () in
  Array.iter (add acc) xs;
  total acc

(* The same operations in the same order as [add] then [total] for each
   term from the top, so every entry equals that loop's bit for bit; the
   two running floats live in local references, which the compiler
   keeps unboxed, where a loop over [add] and [total] boxes every term
   and every total. *)
let suffix_totals xs =
  let n = Array.length xs in
  let totals = Array.create_float n in
  let sum = ref 0.0 and compensation = ref 0.0 in
  for i = n - 1 downto 0 do
    let x = xs.(i) in
    let s = !sum +. x in
    let correction =
      if Float.abs !sum >= Float.abs x then (!sum -. s) +. x else (x -. s) +. !sum
    in
    compensation := !compensation +. correction;
    sum := s;
    totals.(i) <- !sum +. !compensation
  done;
  totals

let sum_by f xs =
  let acc = create () in
  List.iter (fun x -> add acc (f x)) xs;
  total acc
