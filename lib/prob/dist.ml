module Kahan = Numeric.Kahan

(* Invariant: penalties strictly ascending, probabilities >= 0 with a
   clear sign bit (the convolution kernels keep a product that
   underflowed to +0.0 as a point, see "Presence is a clear sign bit"
   below; every other constructor drops zero masses). The suffix, once
   built, holds the weak-exceedance values P(X >= penalties.(i))
   accumulated from the top with compensated summation. Convention
   (documented in dist.mli): [exceedance] answers the strict P(X > x)
   query, while [exceedance_curve] exposes the weak P(X >= x) staircase;
   at a support point x_i they are related by P(X >= x_i) = P(X > x_i - 1).

   The suffix is built on its first read, not with the law: most laws
   are intermediate results of a convolution tree, which only reads
   their penalties and probabilities. Until then [suffix] holds
   [no_suffix] (so an empty law, whose suffix is empty, never builds
   one). Two domains reading a fresh law at once may both build it; the
   arrays are identical and either publication serves every later
   read. *)
type t = {
  penalties : int array;
  probs : float array;
  suffix : float array Atomic.t;
}

let no_suffix : float array = [||]

let suffix t =
  let s = Atomic.get t.suffix in
  if Array.length s = Array.length t.probs then s
  else begin
    let s = Kahan.suffix_totals t.probs in
    Atomic.set t.suffix s;
    s
  end

let of_sorted_arrays penalties probs = { penalties; probs; suffix = Atomic.make no_suffix }

let point x =
  if x < 0 then invalid_arg "Dist.point: negative penalty";
  of_sorted_arrays [| x |] [| 1.0 |]

let merge_points caller points =
  let tbl = Hashtbl.create (List.length points) in
  List.iter
    (fun (x, p) ->
      if x < 0 then invalid_arg (caller ^ ": negative penalty");
      if not (Float.is_finite p) || p < 0.0 then invalid_arg (caller ^ ": bad probability");
      Hashtbl.replace tbl x (p +. Option.value ~default:0.0 (Hashtbl.find_opt tbl x)))
    points;
  Hashtbl.fold (fun x p acc -> if p > 0.0 then (x, p) :: acc else acc) tbl []
  |> List.sort compare

let of_points points =
  let merged = merge_points "Dist.of_points" points in
  let total = Kahan.sum_by snd merged in
  if Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg (Printf.sprintf "Dist.of_points: total mass %.12g (expected 1)" total);
  of_sorted_arrays (Array.of_list (List.map fst merged)) (Array.of_list (List.map snd merged))

let of_sub_points points =
  let merged = merge_points "Dist.of_sub_points" points in
  let total = Kahan.sum_by snd merged in
  if total > 1.0 +. 1e-9 then
    invalid_arg (Printf.sprintf "Dist.of_sub_points: total mass %.12g > 1" total);
  of_sorted_arrays (Array.of_list (List.map fst merged)) (Array.of_list (List.map snd merged))

let scale factor t =
  if not (Float.is_finite factor) || factor < 0.0 || factor > 1.0 then
    invalid_arg "Dist.scale: factor outside [0,1]";
  let pairs = ref [] in
  Array.iteri
    (fun i x ->
      let p = t.probs.(i) *. factor in
      if p > 0.0 then pairs := (x, p) :: !pairs)
    t.penalties;
  let pairs = List.rev !pairs in
  of_sorted_arrays (Array.of_list (List.map fst pairs)) (Array.of_list (List.map snd pairs))

(* Shifting every penalty by a constant leaves the probabilities — and
   therefore the suffix (exceedance) array — untouched, so the result
   shares the input's suffix cell: whichever of the two is read first
   builds it for both, and the derived tails are bit-identical, with no
   re-summation that could perturb a 1e-12 tail. *)
let shift c t =
  let n = Array.length t.penalties in
  if n > 0 && t.penalties.(0) + c < 0 then invalid_arg "Dist.shift: negative penalty";
  { t with penalties = Array.map (fun x -> x + c) t.penalties }

let support t = Array.to_list (Array.map2 (fun x p -> (x, p)) t.penalties t.probs)
let size t = Array.length t.penalties
let total_mass t = if size t = 0 then 0.0 else (suffix t).(0)

(* Radix selection over probabilities. For non-negative floats the
   IEEE-754 bit patterns order exactly like the values, so the k-th
   largest value can be found one 13-bit digit at a time, top digit
   (sign + exponent) first: histogram the candidates' digit, find the
   bucket holding rank k, keep only that bucket's candidates. Five
   passes cover all 63 non-sign bits, after which every remaining
   candidate has the same bit pattern. O(n) whatever the input — no
   pivot choice, no comparison sort — and deterministic. *)
let radix_bits = 13
let radix_mask = (1 lsl radix_bits) - 1

let digit p shift =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float p) shift) land radix_mask

(* [select_top probs len k], for [1 <= k <= len] and finite non-negative
   [probs.(0 .. len-1)]: [(t, outside)] where [t] is the k-th largest
   value and [outside] the number of elements equal to [t] that fall
   outside the top k. *)
let select_top probs len k =
  let hist = Array.make (radix_mask + 1) 0 in
  let cand = ref probs and cand_len = ref len and k = ref k in
  (* The 52 mantissa bits are four digits; the fifth (top) digit is the
     sign and exponent. *)
  let shift = ref (4 * radix_bits) in
  while !shift >= 0 do
    let s = !shift and c = !cand and len = !cand_len in
    Array.fill hist 0 (radix_mask + 1) 0;
    for i = 0 to len - 1 do
      let d = digit (Array.unsafe_get c i) s in
      Array.unsafe_set hist d (Array.unsafe_get hist d + 1)
    done;
    let b = ref radix_mask and above = ref 0 in
    while !above + hist.(!b) < !k do
      above := !above + hist.(!b);
      decr b
    done;
    k := !k - !above;
    if hist.(!b) < len then begin
      let next = Array.make hist.(!b) 0.0 in
      let w = ref 0 in
      for i = 0 to len - 1 do
        let p = Array.unsafe_get c i in
        if digit p s = !b then begin
          Array.unsafe_set next !w p;
          incr w
        end
      done;
      cand := next;
      cand_len := !w
    end;
    shift := s - radix_bits
  done;
  (!cand.(0), !cand_len - !k)

(* Fold the lowest-probability points into their upward neighbour until
   at most [max_points] remain. Probability only moves to higher
   penalties, so exceedance curves of the result dominate the input's:
   conservative for pWCET. The bound is hard: ranking ties are broken by
   index, so duplicated probabilities cannot inflate the kept set past
   [max_points] (a probability threshold would keep every tied point).

   The kept set is the top-penalty point (folded mass needs somewhere
   to go) plus the top [max_points - 1] of the other points under the
   total order (probability, index): every point above the selected
   threshold probability [t], and of the points tied at [t] the
   highest-indexed ones — so the walk below skips the lowest-indexed
   ties that fall outside the top.

   Array core shared by the list path (reference kernel, [mixture]) and
   the merge kernel, so capping is bit-identical across kernels. Point
   i has penalty [pen_of i] and probability [probs.(i)], so the dense
   regime reads the penalties of the kept points straight from its
   staging area. [1 <= max_points < n]. *)
let cap_arrays max_points pen_of probs n =
  let t, skip =
    if max_points = 1 then (infinity, 0) else select_top probs (n - 1) (max_points - 1)
  in
  (* Walk in ascending penalty order; a dropped point's mass rides
     along until the next kept (higher-penalty) point absorbs it. The
     top point is always kept, so no mass is left over. *)
  let out_pen = Array.make max_points 0 and out_prob = Array.make max_points 0.0 in
  let k = ref 0 and carried = ref 0.0 and skip = ref skip in
  for i = 0 to n - 1 do
    let p = probs.(i) in
    let keep =
      if i = n - 1 || p > t then true
      else if p = t && !skip > 0 then begin
        decr skip;
        false
      end
      else p = t
    in
    if keep then begin
      out_pen.(!k) <- pen_of i;
      out_prob.(!k) <- p +. !carried;
      carried := 0.0;
      incr k
    end
    else carried := !carried +. p
  done;
  (out_pen, out_prob)

let cap_points max_points (pairs : (int * float) list) =
  let n = List.length pairs in
  if n <= max_points then pairs
  else begin
    let pens = Array.make n 0 and probs = Array.make n 0.0 in
    List.iteri
      (fun i (x, p) ->
        pens.(i) <- x;
        probs.(i) <- p)
      pairs;
    let pens, probs = cap_arrays max_points (Array.get pens) probs n in
    Array.to_list (Array.map2 (fun x p -> (x, p)) pens probs)
  end

(* A cap below one point cannot hold any mass: reject it rather than
   quietly returning a larger result than promised. *)
let check_max_points caller max_points =
  if max_points < 1 then invalid_arg (caller ^ ": max_points must be at least 1")

(* --- the cut above a bound --------------------------------------------

   [~above:q] keeps the sums at most [q] and lumps the mass of every sum
   above it onto one point: the first lattice point past [q], on the
   lattice [lo + k * step] of the full result. Penalties are never
   negative, so a sum at most [q] only has terms at most [q]: each kept
   point adds the same products in the same order as the full
   convolution, whichever operands were themselves cut at [q], and
   every quantile at most [q] is the full law's. The lumped mass is
   [sum_i a_i * P(B > q - x_i)], read from [b]'s suffix: summing it as
   [1 - kept] would cancel to noise at a 1e-15 tail. *)

(* Number of points of a sorted support at most [x]: the index of the
   first one above it, by binary search. *)
let count_upto pens x =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if pens.(mid) > x then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (Array.length pens)

let lump_penalty ~lo ~step q = if q < lo then lo else lo + (step * (((q - lo) / step) + 1))

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Gcd of the successive differences of a sorted support (0 for a
   singleton): every value is [pens.(0) + k * step]. Supports on the
   miss-penalty lattice rarely change the running gcd, so a difference
   it already divides costs one [mod], not a whole [gcd]. *)
let support_step pens n =
  let g = ref 0 in
  for i = 1 to n - 1 do
    let d = pens.(i) - pens.(i - 1) in
    if !g = 0 || d mod !g <> 0 then g := gcd !g d
  done;
  !g

(* Step of the lattice every sum of two non-empty supports lies on. *)
let sum_step a b =
  max 1 (gcd (support_step a.penalties (size a)) (support_step b.penalties (size b)))

(* [P(A + B > q)] as [sum_i a_i * P(B > q - x_i)], compensated, in
   ascending i. The bound [q - x_i] falls as i grows, so the first
   point of [b] above it only moves down. *)
let lumped_mass ~above a b =
  let sb = suffix b and m = size b in
  let acc = Kahan.create () and j = ref m in
  Array.iteri
    (fun i x ->
      let bound = above - x in
      while !j > 0 && b.penalties.(!j - 1) > bound do decr j done;
      if !j < m then Kahan.add acc (a.probs.(i) *. sb.(!j)))
    a.penalties;
  Kahan.total acc

(* A law cut above [above] has one point past it, its lump. Moving that
   point up changes no probability, so the lifted law shares the
   probabilities and the exceedance suffix (as [shift] does), and only
   the penalties are copied. A law with several points past [above] (a
   power or a leaf no convolution cut) has them merged into one, whose
   mass is their suffix sum. *)
let lift_lump ~above ~top t =
  let n = size t in
  let i = count_upto t.penalties above in
  if i = n then t
  else begin
    let penalties = Array.sub t.penalties 0 (i + 1) in
    penalties.(i) <- max top t.penalties.(n - 1);
    if i = n - 1 then { t with penalties }
    else begin
      let probs = Array.sub t.probs 0 (i + 1) in
      probs.(i) <- (suffix t).(i);
      of_sorted_arrays penalties probs
    end
  end

(* Reference convolution kernel: accumulate the n*m products in a hash
   table, sort, cap. Nothing in the analysis calls it: it is the oracle
   the tests hold the merge kernel to, and it lives here because it
   needs the private [cap_points]/[of_sorted_arrays], which keep
   products that underflowed to 0.0 exactly as the merge kernel does.
   The table is only pre-sized as a hint: two near-cap operands would
   otherwise request ~4e9 buckets up front (and the product can
   overflow on 32-bit), so the hint is clamped — the table still grows
   dynamically when the support really is that large. Cut at [above],
   it builds every sum and lumps those past the bound by a compensated
   sum of their buckets in ascending penalty order, an independent
   route to the merge kernel's suffix-read mass. *)
let convolve_reference ?(max_points = 65536) ?above a b =
  check_max_points "Dist.convolve_reference" max_points;
  let n = size a and m = size b in
  let size_hint =
    if m = 0 || n <= 65536 / m then max 16 (n * m) else min max_points 65536
  in
  let tbl = Hashtbl.create size_hint in
  Array.iteri
    (fun i xa ->
      let pa = a.probs.(i) in
      Array.iteri
        (fun j xb ->
          let x = xa + xb in
          let p = pa *. b.probs.(j) in
          Hashtbl.replace tbl x (p +. Option.value ~default:0.0 (Hashtbl.find_opt tbl x)))
        b.penalties)
    a.penalties;
  let pairs = Hashtbl.fold (fun x p acc -> (x, p) :: acc) tbl [] |> List.sort compare in
  let pairs =
    match above with
    | Some q when n > 0 && m > 0 && a.penalties.(n - 1) + b.penalties.(m - 1) > q ->
      let kept, cut = List.partition (fun (x, _) -> x <= q) pairs in
      let lo = a.penalties.(0) + b.penalties.(0) in
      kept @ [ (lump_penalty ~lo ~step:(sum_step a b) q, Kahan.sum_by snd cut) ]
    | _ -> pairs
  in
  let pairs = cap_points max_points pairs in
  of_sorted_arrays (Array.of_list (List.map fst pairs)) (Array.of_list (List.map snd pairs))

(* Merge convolution kernel, two regimes sharing one contract: emit the
   n*m pairwise sums in ascending order with equal sums accumulated in
   ascending i (index into [a]) order — no hash table, no intermediate
   list, no comparison sort of the product set.

   Bit-compatibility with [convolve_reference]: the reference's hash
   table accumulates equal sums in i-outer/j-inner order, and within one
   i a given sum occurs at most once (b's support is strictly
   ascending). Both regimes below add the identical products in that
   identical order and cap with the shared [cap_arrays], so the engines
   agree bit for bit (float addition and multiplication are
   commutative, so the bucket regime's [acc +. p] matches the
   reference's [p +. acc], and [b_j *. a_i] matches [a_i *. b_j]).

   Regime 1 (dense buckets): penalty sums in this domain are small
   multiples of the miss penalty, so once supports have grown past a few
   hundred points the sums densely tile [lo, hi] and an O(n*m + range)
   bucket accumulation beats any comparison-based scheme. Used when the
   value range is within a small factor of the pair count (and below an
   absolute ceiling). The sums are accumulated one output window at a
   time: a C stub adds every product that lands in the window into a
   window-sized accumulator, then moves the window's present buckets to
   a staging area and resets it, so no array spans the whole range. The
   products go in as contiguous rows that the stub vectorises: one
   operand, padded with -0.0 on the lattice, is the row, and each point
   of the other adds its weight times that row at its own offset. The
   row is whichever operand costs less padded work; rows over [b]'s
   points run in descending j, which is ascending i per bucket. When
   both paddings cost several times the n*m products, the stub scatters
   the products one by one instead ([convolve_dense]).

   Regime 2 (k-way run merge): the sorted supports make the n*m sums
   sorted runs, one per point of the smaller operand; a binary min-heap
   over those runs pops sums ascending in O(n*m log (min n m)) with no
   range-proportional scratch: the fallback for sparse or huge-range
   supports. *)

(* Dense-bucket ceiling: 4M buckets. No dense scratch spans the range,
   but the padded row (an operand's lattice extent) and the staging
   area (room for every bucket that can be present) grow with it: the
   ceiling bounds them to 32 MB and 64 MB for one convolution. Past it
   the heap regime, whose scratch is proportional to the operands and
   the result, takes over. *)
let dense_range_ceiling = 1 lsl 22

(* The dense regime is used while the buckets number at most this
   multiple of the n*m products (and within the ceiling above); past it
   the heap merge is cheaper. Timing the 600 penalty convolutions of
   the grid-pfail workload with the windowed kernel (ten interleaved
   rounds, each run the best of five passes, release build, 2-core
   x86-64 host with AVX2), median: 1.07 s at 4, 0.97 s at 8, 0.87 s at
   16, 1.00 s at 32. Against 4 in the same round, 16 was faster in 9 of
   the 10 rounds, by 9 % in the median. *)
let dense_range_factor = 16

(* The window stubs read OCaml float arrays as C [double *], which
   only holds under the flat float array layout (the default). On a
   compiler configured with -no-flat-float-array it would corrupt
   memory, so refuse to start instead. *)
let () =
  if Obj.tag (Obj.repr [| 0.0 |]) <> Obj.double_array_tag then
    failwith
      "Prob.Dist: this OCaml runtime does not store float arrays flat \
       (-no-flat-float-array); the dense convolution stub needs the flat layout"

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [dense_rows acc row len margin weights offs r_lo r_hi descending w0
   w1 probs buckets count] adds [weights.(r) *. row.(margin + t)] into
   bucket [offs.(r) + t] for the rows r in [r_lo, r_hi), ascending or
   descending, restricted to the window [w0, w1) that [acc] holds;
   [row] is a padded row of [len] buckets with [margin]-bucket margins
   (see [padded_row]). It then appends the window's present buckets to
   the staging area [probs]/[buckets] from index [count] on, resets
   [acc] to -0.0 and returns the new count. See dense_stubs.c. *)
external dense_rows :
  floats -> floats -> int -> int -> float array -> int array -> int -> int -> bool -> int
  -> int -> floats -> ints -> int -> int = "pwcet_dense_rows_byte" "pwcet_dense_rows"
[@@noalloc]

(* [dense_scatter acc aw aoff bw boff cursor r_lo r_hi w0 w1 probs
   buckets count] adds, for i in [r_lo, r_hi) ascending, the products
   [aw.(i) *. bw.(j)] that land in [w0, w1) at bucket
   [aoff.(i) + boff.(j)], j ascending from [cursor.(i)], which it
   advances past them; then it compacts as [dense_rows] does. *)
external dense_scatter :
  floats -> float array -> int array -> float array -> int array -> int array -> int -> int
  -> int -> int -> floats -> ints -> int -> int
  = "pwcet_dense_scatter_byte" "pwcet_dense_scatter"
[@@noalloc]

(* Output window of one stub call, in buckets: 1,024 doubles (8 KB)
   stay in L1 while the rows overlapping them stream past, and a padded
   row's margin is at most this wide. Windows of 256 to 2,048 timed
   within noise of each other on the registry's penalty convolutions
   before the stub blocked its rows. The window also bounds one noalloc
   call to at most a window's worth of each row, so a stop-the-world
   collection requested by another domain waits for one window, never a
   whole convolution. *)
let dense_window = 1024

(* The padded rows are used only while their padded work is at most
   this multiple of the n*m products; past it the scatter loop is
   cheaper. Timing the 600 penalty convolutions of the grid-pfail
   workload with the blocked stub (median of ten interleaved runs, each
   the best of five passes, release build, 2-core x86-64 host with
   AVX2): 1.51 s at 4, 1.21 s at 8, 1.26 s at 12, 1.28 s at 16, 1.25 s
   at 24, with each setting's runs spread over 0.16-0.33 s (the unblocked
   stub at 4: 1.79 s over five runs). Past 8 the gain is within that
   noise, and hosts without AVX2 gain less per padded element, so 8. *)
let dense_padding_limit = 8

(* The dense regime's scratch, one per domain and outside the OCaml
   heap: the window accumulator ([dense_window] buckets, all -0.0
   between stub calls), the padded row, and the staging area the stubs
   compact each window into. The row and the staging area are sized
   for each convolution and kept for the next one, up to
   [dense_retained] entries each; a larger one is dropped when its
   convolution ends and left to the GC. [busy] marks a scratch in use
   by a convolution, so that another thread of the same domain, which
   can run between two windows, takes a fresh one instead. *)
type scratch = {
  acc : floats;
  mutable row : floats;
  mutable staged_probs : floats;
  mutable staged_buckets : ints;
  mutable busy : bool;
}

(* Scratch kept per domain between convolutions, in entries of the row
   and of the staging area: 6 MB in all, which holds every convolution
   of the registry's grid-pfail laws (the largest needs a 226,873-bucket
   row and 236,026 staging entries). Variants that dropped scratch past
   2^16 or 2^17 entries gained 6 % and 9 % grid-pfail throughput over
   the whole-range kernel, against 14 % with this bound (EXPERIMENTS.md,
   eighth performance pass); it only keeps a huge-range convolution
   from pinning its scratch for good. *)
let dense_retained = 1 lsl 18

let floats n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let new_scratch () =
  let acc = floats dense_window in
  Bigarray.Array1.fill acc (-0.0);
  { acc; row = floats 0; staged_probs = floats 0; staged_buckets = ints 0; busy = false }

let scratch_key = Domain.DLS.new_key new_scratch

(* Ends a convolution's use of [s]: drops a row or staging area past
   [dense_retained] entries. *)
let release s =
  if Bigarray.Array1.dim s.row > dense_retained then s.row <- floats 0;
  if Bigarray.Array1.dim s.staged_probs > dense_retained then begin
    s.staged_probs <- floats 0;
    s.staged_buckets <- ints 0
  end;
  s.busy <- false

let with_scratch f =
  let shared = Domain.DLS.get scratch_key in
  let s = if shared.busy then new_scratch () else shared in
  s.busy <- true;
  match f s with
  | result ->
    release s;
    result
  | exception e ->
    (* Every stub call leaves [acc] reset, so the scratch is clean. *)
    release s;
    raise e

(* [dense_emit probs buckets count lo step out_probs out_pens] copies
   the first [count] staged probabilities into [out_probs] and writes
   the penalties [lo + step * buckets.(k)] of the first
   [Array.length out_pens] of them into [out_pens], in one pass. *)
external dense_emit : floats -> ints -> int -> int -> int -> float array -> int array -> unit
  = "pwcet_dense_emit_byte" "pwcet_dense_emit"
[@@noalloc]

(* Room in the staging area for [need] entries. *)
let reserve_staging s need =
  if Bigarray.Array1.dim s.staged_probs < need then begin
    s.staged_probs <- floats need;
    s.staged_buckets <- ints need
  end

(* Bucket index of every point of a support on the lattice of [step],
   by exact division: [step] divides every difference, so with
   [step = 2^z * odd] the quotient is the difference shifted right by
   [z] times the inverse of [odd] modulo 2^63 (OCaml's [int]
   arithmetic), with no hardware division per point. *)
let lattice_offsets pens n step =
  let z = ref 0 and odd = ref step in
  while !odd land 1 = 0 do
    odd := !odd asr 1;
    incr z
  done;
  (* Newton's iteration doubles the correct low bits of the inverse;
     [odd] is its own inverse to 3 bits, so five steps give 96 >= 63. *)
  let inv = ref !odd in
  for _ = 1 to 5 do
    inv := !inv * (2 - (!odd * !inv))
  done;
  let z = !z and inv = !inv and base = pens.(0) in
  let offs = Array.make n 0 in
  for i = 1 to n - 1 do
    offs.(i) <- ((pens.(i) - base) asr z) * inv
  done;
  offs

(* The inner operand as one contiguous row in [s.row]: its weights at
   their lattice offsets, -0.0 in every gap, and a margin of -0.0 on
   both sides as wide as the row or a window, whichever is less. The
   stub runs a block of rows over the union of their extents, which
   each row's margins must cover; a margin as wide as a window covers
   every block that overlaps the window, and a narrower row (whose
   blocks are narrower too) pays only its own length, so a small
   operand never pays a window's worth of padding. Returns the
   margin. *)
let padded_row s probs offs len =
  let margin = min len dense_window in
  let width = len + (2 * margin) in
  if Bigarray.Array1.dim s.row < width then s.row <- floats width;
  let row = s.row in
  Bigarray.Array1.(fill (sub row 0 width) (-0.0));
  Array.iteri (fun i o -> Bigarray.Array1.unsafe_set row (margin + o) probs.(i)) offs;
  margin

(* Runs [add r_lo r_hi w0 w1 count] over the sum range [0, buckets),
   one output window [w0, w1) at a time, where [offs] (ascending) are
   the rows' offsets and [len] their extent, and returns the number of
   buckets staged. The rows overlapping a window are the contiguous
   range [r_lo, r_hi), and both of its ends only move up as the window
   does; when no row overlaps a window, nothing lands there before the
   next row's offset, so the walk jumps to it. *)
let each_window ~buckets ~offs ~len add =
  let nr = Array.length offs in
  let r_lo = ref 0 and r_hi = ref 0 and w0 = ref 0 and count = ref 0 in
  while !w0 < buckets do
    let w1 = min buckets (!w0 + dense_window) in
    while !r_lo < nr && offs.(!r_lo) + len <= !w0 do incr r_lo done;
    while !r_hi < nr && offs.(!r_hi) < w1 do incr r_hi done;
    if !r_lo < !r_hi then begin
      count := add !r_lo !r_hi !w0 w1 !count;
      w0 := w1
    end
    else w0 := offs.(!r_hi)
  done;
  !count

(* Adds [weights.(r)] times the padded [inner] (its probabilities at
   its lattice offsets, [len] buckets) at offset [offs.(r)] for every
   row r, window by window, in ascending r or descending r; returns
   the number of buckets staged. *)
let accumulate_rows s ~buckets ~weights ~offs ~descending (inner, inner_offs, len) =
  let margin = padded_row s inner inner_offs len in
  each_window ~buckets ~offs ~len (fun r_lo r_hi w0 w1 count ->
      dense_rows s.acc s.row len margin weights offs r_lo r_hi descending w0 w1 s.staged_probs
        s.staged_buckets count)

(* [lump] is [Some (bucket, mass)] for a result cut above a bound: the
   lumped point, appended after the last staged bucket. *)
let convolve_dense ~max_points ~lo ~step ~buckets ~lump a b =
  let n = size a and m = size b in
  let aw = a.probs and bw = b.probs in
  (* Penalties in this domain are multiples of the miss penalty, so
     indexing buckets by (value - lo) / step instead of raw value keeps
     the buckets proportional to the number of achievable sums, not the
     cycle range. *)
  let aoff = lattice_offsets a.penalties n step in
  let boff = lattice_offsets b.penalties m step in
  let la = aoff.(n - 1) + 1 and lb = boff.(m - 1) + 1 in
  (* Untouched buckets hold -0.0, so every update is a branch-free
     multiply-add. Products are never negative, and under round to
     nearest [-0.0 +. p = p] for every [p >= 0.0] (including a product
     that underflowed to +0.0), so the first touch matches the
     reference's [p +. 0.0] from an absent hash entry bit for bit.
     Presence is a clear sign bit: it survives an underflowed product,
     which the reference keeps as a point of probability 0.0. *)
  with_scratch (fun s ->
      (* At most min(buckets, n*m) buckets are present, and the stubs'
         branch-free compaction writes one entry past the last, which
         is where a lumped point goes. *)
      reserve_staging s (min buckets (n * m) + 1);
      let count =
        if n * lb <= m * la && n * lb <= dense_padding_limit * n * m then
          (* Rows over ascending i, each the whole padded [b]. *)
          accumulate_rows s ~buckets ~weights:aw ~offs:aoff ~descending:false (bw, boff, lb)
        else if m * la <= dense_padding_limit * n * m then
          (* Rows over descending j, each the whole padded [a]: bucket k
             meets row j at the [a] offset k - boff_j, so a larger j is
             a smaller i and the products still arrive in ascending i. *)
          accumulate_rows s ~buckets ~weights:bw ~offs:boff ~descending:true (aw, aoff, la)
        else begin
          (* Both operands too sparse to pad: scatter the n*m products,
             row i over [b] from its cursor, in ascending i per window. *)
          let cursor = Array.make n 0 in
          each_window ~buckets ~offs:aoff ~len:lb (fun r_lo r_hi w0 w1 count ->
              dense_scatter s.acc aw aoff bw boff cursor r_lo r_hi w0 w1 s.staged_probs
                s.staged_buckets count)
        end
      in
      let count =
        match lump with
        | None -> count
        | Some (bucket, mass) ->
          Bigarray.Array1.unsafe_set s.staged_probs count mass;
          Bigarray.Array1.unsafe_set s.staged_buckets count bucket;
          count + 1
      in
      let out_prob = Array.create_float count in
      if count <= max_points then begin
        let pens = Array.make count 0 in
        dense_emit s.staged_probs s.staged_buckets count lo step out_prob pens;
        of_sorted_arrays pens out_prob
      end
      else begin
        (* A capped result reads the penalties of its kept points
           straight from the staging area: no array of every point's
           penalty is built. *)
        dense_emit s.staged_probs s.staged_buckets count lo step out_prob [||];
        let pen_of k = lo + (step * Bigarray.Array1.unsafe_get s.staged_buckets k) in
        let pens, probs = cap_arrays max_points pen_of out_prob count in
        of_sorted_arrays pens probs
      end)

(* The heap keys on (sum, rank) over the runs of the smaller operand
   [r], each run walking the larger operand [w]. Within a run sums
   strictly increase, so equal sums come from distinct runs and the rank
   alone must order them by ascending i. Over [a] the runs are the i
   themselves: rank = i. Over [b], run j meets a sum s at the [a] point
   s - b_j, so a larger j means a smaller a-penalty and hence a smaller
   i: ascending i is descending j, and rank = m - 1 - j. Sums past
   [limit] are never emitted: the merge stops at the first, and [lump]
   (a penalty and a mass) is appended as the last point. *)
let convolve_heap ~max_points ~limit ~lump a b =
  let n = size a and m = size b in
  let over_a = n <= m in
  let rp, rw, nr, wp, ww, nw =
    if over_a then (a.penalties, a.probs, n, b.penalties, b.probs, m)
    else (b.penalties, b.probs, m, a.penalties, a.probs, n)
  in
  (* Maps a run to its rank and back (an involution). *)
  let flip x = if over_a then x else nr - 1 - x in
  (* Slot k holds the run of rank [heap_rank.(k)] at its current sum
     [heap_sum.(k)]; [jpos.(rank)] is that run's position in [w]. The
     initial sums r_k + w_0 strictly ascend in k, so the array starts
     heap-ordered whatever the ranks. *)
  let heap_sum = Array.make nr 0 and heap_rank = Array.make nr 0 in
  let jpos = Array.make nr 0 in
  for k = 0 to nr - 1 do
    heap_sum.(k) <- rp.(k) + wp.(0);
    heap_rank.(k) <- flip k
  done;
  let heap_len = ref nr in
  (* Move the root's hole down to where (s, rk) belongs. *)
  let sift_down s rk =
    let len = !heap_len in
    let k = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !k) + 1 in
      if l >= len then sinking := false
      else begin
        let c =
          let r = l + 1 in
          if r < len
             && (heap_sum.(r) < heap_sum.(l)
                || (heap_sum.(r) = heap_sum.(l) && heap_rank.(r) < heap_rank.(l)))
          then r
          else l
        in
        let cs = heap_sum.(c) and crk = heap_rank.(c) in
        if cs < s || (cs = s && crk < rk) then begin
          heap_sum.(!k) <- cs;
          heap_rank.(!k) <- crk;
          k := c
        end
        else sinking := false
      end
    done;
    heap_sum.(!k) <- s;
    heap_rank.(!k) <- rk
  in
  (* Output buffers, grown by doubling: after duplicate folding the
     support is usually far smaller than n*m. *)
  let out_pen = ref (Array.make (min (n * m) 1024) 0) in
  let out_prob = ref (Array.make (min (n * m) 1024) 0.0) in
  let out_len = ref 0 in
  let emit x p =
    if !out_len > 0 && !out_pen.(!out_len - 1) = x then
      !out_prob.(!out_len - 1) <- p +. !out_prob.(!out_len - 1)
    else begin
      if !out_len = Array.length !out_pen then begin
        let cap = 2 * !out_len in
        let pen' = Array.make cap 0 and prob' = Array.make cap 0.0 in
        Array.blit !out_pen 0 pen' 0 !out_len;
        Array.blit !out_prob 0 prob' 0 !out_len;
        out_pen := pen';
        out_prob := prob'
      end;
      !out_pen.(!out_len) <- x;
      !out_prob.(!out_len) <- p;
      incr out_len
    end
  in
  while !heap_len > 0 && heap_sum.(0) <= limit do
    let rk = heap_rank.(0) in
    let r = flip rk in
    let j = jpos.(rk) in
    emit heap_sum.(0) (rw.(r) *. ww.(j));
    if j + 1 < nw then begin
      jpos.(rk) <- j + 1;
      sift_down (rp.(r) + wp.(j + 1)) rk
    end
    else begin
      decr heap_len;
      sift_down heap_sum.(!heap_len) heap_rank.(!heap_len)
    end
  done;
  Option.iter (fun (x, p) -> emit x p) lump;
  let pens, probs =
    if !out_len <= max_points then
      (Array.sub !out_pen 0 !out_len, Array.sub !out_prob 0 !out_len)
    else cap_arrays max_points (Array.get !out_pen) !out_prob !out_len
  in
  of_sorted_arrays pens probs

(* The first [k] points of [t]. *)
let prefix t k =
  if k = size t then t else of_sorted_arrays (Array.sub t.penalties 0 k) (Array.sub t.probs 0 k)

(* Dense buckets or the heap merge for the sums of [a] and [b] on the
   lattice [lo + k * step], up to bucket [buckets - 1]. *)
let convolve_sums ~max_points ~lo ~step ~buckets ~limit ~lump a b =
  if buckets <= dense_range_ceiling && buckets <= dense_range_factor * size a * size b then
    convolve_dense ~max_points ~lo ~step ~buckets
      ~lump:(Option.map (fun (x, p) -> ((x - lo) / step, p)) lump)
      a b
  else convolve_heap ~max_points ~limit ~lump a b

let convolve_merge ~max_points ~above a b =
  let n = size a and m = size b in
  if n = 0 || m = 0 then of_sorted_arrays [||] [||]
  else begin
    let ap = a.penalties and bp = b.penalties in
    let lo = ap.(0) + bp.(0) and hi = ap.(n - 1) + bp.(m - 1) in
    (* Sums live on the lattice lo + k * step: step divides every
       pairwise difference on both sides. *)
    let step = sum_step a b in
    match above with
    | Some q when hi > q ->
      let lumped = lump_penalty ~lo ~step q and mass = lumped_mass ~above:q a b in
      (* Only points at most [q] minus the other side's least penalty
         have a sum at most [q]. *)
      let a = prefix a (count_upto ap (q - bp.(0))) and b = prefix b (count_upto bp (q - ap.(0))) in
      if size a = 0 || size b = 0 then of_sorted_arrays [| lumped |] [| mass |]
      else begin
        let top = a.penalties.(size a - 1) + b.penalties.(size b - 1) in
        let buckets = ((min q top - lo) / step) + 1 in
        convolve_sums ~max_points ~lo ~step ~buckets ~limit:q ~lump:(Some (lumped, mass)) a b
      end
    | _ ->
      convolve_sums ~max_points ~lo ~step ~buckets:(((hi - lo) / step) + 1) ~limit:max_int
        ~lump:None a b
  end

(* Weighted mixture. The per-penalty accumulation order is the given
   part order (Hashtbl bucket per penalty, like the reference convolution
   engine); within one part the support is strictly ascending so each
   penalty is touched at most once per part. Weighted masses that
   underflow to exactly 0.0 are dropped — below the subnormal floor
   (~1e-323) there is nothing left to keep, ~300 orders of magnitude
   past any exceedance target this pipeline answers. *)
let mixture ?(max_points = 65536) parts =
  check_max_points "Dist.mixture" max_points;
  let points = ref [] in
  List.iter
    (fun (w, t) ->
      if not (Float.is_finite w) || w < 0.0 || w > 1.0 then
        invalid_arg "Dist.mixture: weight outside [0,1]";
      if w > 0.0 then
        Array.iteri (fun i x -> points := (x, w *. t.probs.(i)) :: !points) t.penalties)
    parts;
  let merged = merge_points "Dist.mixture" (List.rev !points) in
  let total = Kahan.sum_by snd merged in
  if total > 1.0 +. 1e-9 then
    invalid_arg (Printf.sprintf "Dist.mixture: total mass %.12g > 1" total);
  match merged with
  | [] -> of_sorted_arrays [||] [||]
  | merged ->
    let merged = cap_points max_points merged in
    of_sorted_arrays
      (Array.of_list (List.map fst merged))
      (Array.of_list (List.map snd merged))

let convolve ?(max_points = 65536) ?above a b =
  check_max_points "Dist.convolve" max_points;
  convolve_merge ~max_points ~above a b

(* Balanced pairwise tree instead of a left fold: n-1 convolutions
   either way, but operands stay similarly sized, so total work drops
   from O(n * |acc|) against one ever-growing accumulator to the
   tree-sum of products, and capping (when it triggers) applies to
   balanced operands rather than degrading one long chain. *)
let convolve_all ?max_points dists =
  Option.iter (check_max_points "Dist.convolve_all") max_points;
  let rec pair_up = function
    | a :: b :: rest -> convolve ?max_points a b :: pair_up rest
    | tail -> tail
  in
  let rec reduce = function
    | [] -> point 0
    | [ d ] -> d
    | ds -> reduce (pair_up ds)
  in
  reduce dists

(* k-th convolution power by repeated squaring. Bit-identical to
   [convolve_all] on k copies of [d] for every k and max_points:
   the balanced tree over equal elements only ever contains a run of
   one repeated value plus at most one distinct trailing element, so
   the whole tree collapses to log-many distinct convolutions —
   [(e, c, tail)] below is exactly that run. With c odd, [pair_up]
   pairs the run's last copy with the trailing element, which is why
   the odd step convolves [e] into the tail rather than multiplying
   tails together at the end (plain binary exponentiation would not
   match the tree once capping triggers). *)
let convolve_pow ?max_points ?above d k =
  if k < 0 then invalid_arg "Dist.convolve_pow: negative power";
  Option.iter (check_max_points "Dist.convolve_pow") max_points;
  if k = 0 then point 0
  else begin
    let conv a b = convolve ?max_points ?above a b in
    let rec go e c tail =
      (* invariant: remaining tree level is [e; e; ...(c copies)] @ tail *)
      if c = 1 then (match tail with None -> e | Some t -> conv e t)
      else begin
        let e2 = conv e e in
        if c land 1 = 0 then go e2 (c / 2) tail
        else
          match tail with
          | None -> go e2 (c / 2) (Some e)
          | Some t -> go e2 (c / 2) (Some (conv e t))
      end
    in
    go d k None
  end

(* [dst] |= [src] shifted up by [v] bits, on 63-bit words. *)
let shift_or ~src ~dst v =
  let q = v / 63 and r = v mod 63 in
  for i = Array.length dst - 1 downto q do
    let low = if r > 0 && i - q - 1 >= 0 then src.(i - q - 1) lsr (63 - r) else 0 in
    dst.(i) <- dst.(i) lor (src.(i - q) lsl r) lor low
  done

let popcount words =
  let rec bits x n = if x = 0 then n else bits (x land (x - 1)) (n + 1) in
  Array.fold_left (fun n w -> bits w n) 0 words

(* The [k]-fold sums are counted on a bitset over the support's lattice,
   in steps from [k] times its least point: [T_0 = {0}], [T_(j+1)] the
   union of [T_j] shifted by each point's offset from the least. *)
let power_size ?(max_points = 65536) d k =
  if k < 0 then invalid_arg "Dist.power_size: negative power";
  check_max_points "Dist.power_size" max_points;
  let n = size d in
  if k = 0 || n = 1 then 1
  else if n = 0 then 0
  else begin
    let step = support_step d.penalties n in
    let shift i = (d.penalties.(i) - d.penalties.(0)) / step in
    let sums = ref (Array.make ((k * shift (n - 1) / 63) + 1) 0) in
    !sums.(0) <- 1;
    for _ = 1 to k do
      let next = Array.copy !sums in
      for i = 1 to n - 1 do
        shift_or ~src:!sums ~dst:next (shift i)
      done;
      sums := next
    done;
    min max_points (popcount !sums)
  end

(* P(X > x): suffix sum of the first support point strictly above x. *)
let exceedance t x =
  let i = count_upto t.penalties x in
  if i >= size t then 0.0 else (suffix t).(i)

let quantile t ~target =
  (* NaN fails every comparison, so [target < 0.0] alone would accept
     it and the binary search below would return nonsense. *)
  if not (Float.is_finite target) || target < 0.0 then
    invalid_arg "Dist.quantile: target must be finite and non-negative";
  let n = Array.length t.penalties in
  if n = 0 || exceedance t 0 <= target then 0
  else begin
    (* The exceedance function only drops at support values, so the
       smallest x with P(X > x) <= target is the first support value
       whose strict upper tail fits the target. [tail_above] is
       non-increasing in i, so binary-search the first index where it
       fits; at i = n-1 the tail is 0, so the search is total. *)
    let suffix = suffix t in
    let tail_above i = if i + 1 < n then suffix.(i + 1) else 0.0 in
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if tail_above mid <= target then search lo mid else search (mid + 1) hi
      end
    in
    t.penalties.(search 0 (n - 1))
  end

let exceedance_curve t =
  Array.to_list (Array.map2 (fun x s -> (x, s)) t.penalties (suffix t))

let expectation t =
  let acc = Kahan.create () in
  Array.iteri (fun i x -> Kahan.add acc (float_of_int x *. t.probs.(i))) t.penalties;
  Kahan.total acc

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i x -> Format.fprintf fmt "%d: %.6g@," x t.probs.(i)) t.penalties;
  Format.fprintf fmt "@]"

(* --- canonical serialization --------------------------------------------

   Fixed-width little-endian, no implicit state: [n] then n pairs of
   (penalty as int64, probability as IEEE-754 bits). The suffix array
   is derived data and is rebuilt on decode (the total-mass check reads
   it) by the same [Kahan.suffix_totals] that builds the original's — storing
   it would only add bytes that can disagree with the probabilities. *)

let to_wire t =
  let n = Array.length t.penalties in
  let b = Buffer.create (8 + (16 * n)) in
  Buffer.add_int64_le b (Int64.of_int n);
  for i = 0 to n - 1 do
    Buffer.add_int64_le b (Int64.of_int t.penalties.(i));
    Buffer.add_int64_le b (Int64.bits_of_float t.probs.(i))
  done;
  Buffer.contents b

let of_wire data =
  let len = String.length data in
  if len < 8 then Error "Dist.of_wire: truncated header"
  else begin
    let n = Int64.to_int (String.get_int64_le data 0) in
    (* Bound [n] before multiplying: a huge header would make
       [8 + 16 * n] wrap around to [len]. *)
    if n < 0 || n > (len - 8) / 16 || len <> 8 + (16 * n) then
      Error (Printf.sprintf "Dist.of_wire: length %d inconsistent with %d points" len n)
    else begin
      let penalties = Array.make n 0 in
      let probs = Array.make n 0.0 in
      let error = ref None and positive = ref false in
      let fail msg = if !error = None then error := Some msg in
      for i = 0 to n - 1 do
        let x = Int64.to_int (String.get_int64_le data (8 + (16 * i))) in
        let p = Int64.float_of_bits (String.get_int64_le data (16 + (16 * i))) in
        if x < 0 then fail (Printf.sprintf "Dist.of_wire: negative penalty %d" x);
        if i > 0 && x <= penalties.(i - 1) then
          fail (Printf.sprintf "Dist.of_wire: penalties not strictly ascending at %d" i);
        (* +0.0 is a point the kernels keep (a clear sign bit); -0.0,
           negative values and NaN are not. *)
        if (not (Float.is_finite p)) || Float.sign_bit p || p > 1.0 then
          fail (Printf.sprintf "Dist.of_wire: bad probability at %d" i);
        if p > 0.0 then positive := true;
        penalties.(i) <- x;
        probs.(i) <- p
      done;
      match !error with
      | Some msg -> Error msg
      | None when n > 0 && not !positive -> Error "Dist.of_wire: no positive probability"
      | None ->
        let t = of_sorted_arrays penalties probs in
        if total_mass t > 1.0 +. 1e-9 then
          Error (Printf.sprintf "Dist.of_wire: total mass %.12g > 1" (total_mass t))
        else Ok t
    end
  end
