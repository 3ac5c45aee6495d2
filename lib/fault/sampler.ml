let way_cdf ~ways ~pbf ~rw =
  let pmf = if rw then Model.way_distribution_rw ~ways ~pbf else Model.way_distribution ~ways ~pbf in
  let n = Array.length pmf in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. pmf.(i);
    cdf.(i) <- !acc
  done;
  let last = ref 0 in
  for i = 0 to n - 1 do
    if pmf.(i) > 0.0 then last := i
  done;
  for i = !last to n - 1 do
    cdf.(i) <- 1.0
  done;
  cdf

let index_of_u ~cdf u =
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 then i else if u < Array.unsafe_get cdf i then i else go (i + 1) in
  go 0
