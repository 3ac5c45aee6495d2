type mechanism =
  | No_protection
  | Reliable_way
  | Shared_reliable_buffer

type bound = {
  bound_base : int;
  bound_misses : int array array;
}

type spec = {
  mechanism : mechanism;
  pbf : float;
  samples : int;
  seed : int;
  jobs : int;
  bound : bound option;
}

type trace = {
  config : Cache.Config.t;
  accesses : int;
  fault_free_misses : int;
  gset : int array;  (** cache set of the k-th fetch *)
  gblock : int array;  (** memory block of the k-th fetch *)
  table : int array array;  (** [sets x (ways+1)] misses by working capacity *)
  alone : int array;  (** SRB misses of a set when it is the only dead one *)
}

type t = {
  spec : spec;
  trace : trace;
  cdf : float array;  (** faulty-way-count law for inverse sampling *)
}

let rec scan stack b j l =
  if j >= l then -1 else if Array.unsafe_get stack j = b then j else scan stack b (j + 1) l

(* Misses of one set's sub-trace through an LRU stack of the given
   capacity. [stack] is scratch of length >= cap. *)
let lru_replay blocks off len stack cap =
  if cap = 0 then len
  else begin
    let misses = ref 0 and sl = ref 0 in
    for k = off to off + len - 1 do
      let b = Array.unsafe_get blocks k in
      let l = !sl in
      let j = scan stack b 0 l in
      if j >= 0 then begin
        for m = j downto 1 do
          Array.unsafe_set stack m (Array.unsafe_get stack (m - 1))
        done;
        Array.unsafe_set stack 0 b
      end
      else begin
        incr misses;
        let nl = if l < cap then l + 1 else cap in
        for m = nl - 1 downto 1 do
          Array.unsafe_set stack m (Array.unsafe_get stack (m - 1))
        done;
        Array.unsafe_set stack 0 b;
        sl := nl
      end
    done;
    !misses
  end

let cycles_of_misses config ~accesses misses =
  (accesses * config.Cache.Config.hit_latency) + (Cache.Config.miss_penalty config * misses)

(* Everything of a campaign that neither the fault law nor the
   mechanism changes: the fetch trace of one run and the per-(set,
   capacity) miss tables. *)
let trace ~program ~data ~config =
  let sets = config.Cache.Config.sets and ways = config.Cache.Config.ways in
  let code = Code.decode ~config program in
  let machine = Machine.create ~code ~data in
  (* One run extracts the fetch trace — identical for every fault
     pattern, because faults change timing only. *)
  let buf = ref (Array.make 4096 0) and blen = ref 0 in
  let push i =
    if !blen = Array.length !buf then begin
      let bigger = Array.make (2 * !blen) 0 in
      Array.blit !buf 0 bigger 0 !blen;
      buf := bigger
    end;
    !buf.(!blen) <- i;
    incr blen
  in
  let invalid msg = raise (Robust.Pwcet_error.Error (Robust.Pwcet_error.Invalid_input msg)) in
  (match Machine.run ~on_fetch:push machine with
  | { Machine.status = Machine.Halted; _ } -> ()
  | { Machine.status = Machine.Out_of_fuel; instructions; _ } ->
    invalid (Printf.sprintf "program did not halt within %d instructions" instructions)
  | exception Machine.Trap msg -> invalid ("program trapped: " ^ msg));
  let n = !blen in
  let gset = Array.make n 0 and gblock = Array.make n 0 in
  let iset = code.Code.iset and iblock = code.Code.iblock in
  for k = 0 to n - 1 do
    let i = !buf.(k) in
    gset.(k) <- iset.(i);
    gblock.(k) <- iblock.(i)
  done;
  (* Group the trace by set for the capacity tables. *)
  let set_len = Array.make sets 0 in
  Array.iter (fun s -> set_len.(s) <- set_len.(s) + 1) gset;
  let off = Array.make (sets + 1) 0 in
  for s = 0 to sets - 1 do
    off.(s + 1) <- off.(s) + set_len.(s)
  done;
  let cursor = Array.copy off in
  let sub = Array.make (max n 1) 0 in
  for k = 0 to n - 1 do
    let s = gset.(k) in
    sub.(cursor.(s)) <- gblock.(k);
    cursor.(s) <- cursor.(s) + 1
  done;
  let stack = Array.make (max ways 1) 0 in
  let table =
    Array.init sets (fun s ->
        Array.init (ways + 1) (fun cap -> lru_replay sub off.(s) set_len.(s) stack cap))
  in
  let alone =
    Array.init sets (fun s ->
        let m = ref 0 and prev = ref (-1) in
        for k = off.(s) to off.(s) + set_len.(s) - 1 do
          let b = sub.(k) in
          if b <> !prev then begin
            incr m;
            prev := b
          end
        done;
        !m)
  in
  (* LRU sets are independent, so the fault-free run misses exactly what
     each set's sub-trace misses at full capacity. *)
  let fault_free_misses = Array.fold_left (fun acc row -> acc + row.(ways)) 0 table in
  { config; accesses = n; fault_free_misses; gset; gblock; table; alone }

let prepare trace spec =
  let sets = trace.config.Cache.Config.sets and ways = trace.config.Cache.Config.ways in
  if spec.samples <= 0 then invalid_arg "Sim.Campaign.prepare: samples must be positive";
  (match spec.bound with
  | Some b ->
    if
      Array.length b.bound_misses <> sets
      || Array.exists (fun row -> Array.length row <> ways + 1) b.bound_misses
    then invalid_arg "Sim.Campaign.prepare: bound table shape"
  | None -> ());
  let cdf = Fault.Sampler.way_cdf ~ways ~pbf:spec.pbf ~rw:(spec.mechanism = Reliable_way) in
  { spec; trace; cdf }

type result = {
  samples : int;
  accesses : int;
  fault_free_cycles : int;
  fault_free_misses : int;
  hit_cycles : int;
  miss_penalty : int;
  counts : int array;
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
  variance_cycles : float;
  bound_violations : int;
  srb_merged_replays : int;
}

let sample_faulty_counts t ~sample counts =
  let sets = t.trace.config.Cache.Config.sets in
  if Array.length counts <> sets then invalid_arg "Sim.Campaign.sample_faulty_counts: bad length";
  let stream = Rng.stream ~seed:t.spec.seed ~sample in
  for s = 0 to sets - 1 do
    counts.(s) <- Fault.Sampler.index_of_u ~cdf:t.cdf (Rng.uniform ~stream ~draw:s)
  done

(* Per-chunk worker state, allocated once per chunk (not per sample). *)
type scratch = {
  dead : int array;  (** dead-set indexes of the current sample *)
  flag : bool array;  (** dead-set membership, reset after each replay *)
}

let fresh_scratch t =
  let sets = t.trace.config.Cache.Config.sets in
  { dead = Array.make sets 0; flag = Array.make sets false }

(* Misses of one sample: O(sets) table lookups plus the
   SRB dead-set handling. Also accumulates the sample's analytic bound
   (in misses) when a bound table is present. *)
let replay_misses t scratch ~sample ~bound_misses_acc =
  let spec = t.spec in
  let sets = t.trace.config.Cache.Config.sets and ways = t.trace.config.Cache.Config.ways in
  let srb = spec.mechanism = Shared_reliable_buffer in
  let cdf = t.cdf and table = t.trace.table in
  let stream = Rng.stream ~seed:spec.seed ~sample in
  let misses = ref 0 and dead_n = ref 0 and bacc = ref 0 in
  for s = 0 to sets - 1 do
    let f = Fault.Sampler.index_of_u ~cdf (Rng.uniform ~stream ~draw:s) in
    (match spec.bound with Some b -> bacc := !bacc + b.bound_misses.(s).(f) | None -> ());
    let c = ways - f in
    if c = 0 && srb then begin
      scratch.dead.(!dead_n) <- s;
      incr dead_n
    end
    else misses := !misses + Array.unsafe_get (Array.unsafe_get table s) c
  done;
  bound_misses_acc := !bacc;
  let merged = !dead_n >= 2 in
  if !dead_n = 1 then misses := !misses + t.trace.alone.(scratch.dead.(0))
  else if merged then begin
    (* Several dead sets share the single buffer: replay their merged
       sub-trace exactly. *)
    for k = 0 to !dead_n - 1 do
      scratch.flag.(scratch.dead.(k)) <- true
    done;
    let gset = t.trace.gset and gblock = t.trace.gblock and flag = scratch.flag in
    let buf = ref (-1) and m = ref 0 in
    for k = 0 to t.trace.accesses - 1 do
      if Array.unsafe_get flag (Array.unsafe_get gset k) then begin
        let b = Array.unsafe_get gblock k in
        if b <> !buf then begin
          incr m;
          buf := b
        end
      end
    done;
    for k = 0 to !dead_n - 1 do
      scratch.flag.(scratch.dead.(k)) <- false
    done;
    misses := !misses + !m
  end;
  (!misses, merged)

let replay_cycles t ~sample =
  let scratch = fresh_scratch t in
  let acc = ref 0 in
  let misses, _ = replay_misses t scratch ~sample ~bound_misses_acc:acc in
  cycles_of_misses t.trace.config ~accesses:t.trace.accesses misses

type chunk_result = {
  hist : int array;
  moments : Welford.t;
  c_min : int;
  c_max : int;
  c_violations : int;
  c_replays : int;
}

(* Chunking is a fixed function of the sample count alone, and chunk
   results merge in chunk order — so the fan-out width never leaks into
   the result bits. *)
let chunk_bounds samples =
  let chunks = if samples < 1024 then 1 else 16 in
  Array.init chunks (fun c ->
      let start = c * samples / chunks in
      let stop = (c + 1) * samples / chunks in
      (start, stop - start))

let run t =
  let spec = t.spec and config = t.trace.config in
  let mp = Cache.Config.miss_penalty config in
  let hit_cycles = t.trace.accesses * config.Cache.Config.hit_latency in
  (* Misses are monotone in capacity (LRU inclusion), and an SRB buffer
     serves a dead set no better than its working-ways stack did, so no
     sample can miss less than the fault-free run — bucket 0 is the
     fault-free miss count and the histogram spans up to all-miss. *)
  let hsize = t.trace.accesses - t.trace.fault_free_misses + 1 in
  let worker (start, count) =
    let scratch = fresh_scratch t in
    let hist = Array.make hsize 0 in
    let moments = Welford.create () in
    let c_min = ref max_int and c_max = ref min_int in
    let violations = ref 0 and replays = ref 0 in
    let bacc = ref 0 in
    for sample = start to start + count - 1 do
      let misses, merged = replay_misses t scratch ~sample ~bound_misses_acc:bacc in
      if merged then incr replays;
      let delta = misses - t.trace.fault_free_misses in
      if delta < 0 || delta >= hsize then
        failwith "Sim.Campaign.run: miss count outside the provable range";
      hist.(delta) <- hist.(delta) + 1;
      let cycles = hit_cycles + (mp * misses) in
      Welford.add moments (float_of_int cycles);
      if cycles < !c_min then c_min := cycles;
      if cycles > !c_max then c_max := cycles;
      match spec.bound with
      | Some b -> if cycles > b.bound_base + (mp * !bacc) then incr violations
      | None -> ()
    done;
    {
      hist;
      moments;
      c_min = !c_min;
      c_max = !c_max;
      c_violations = !violations;
      c_replays = !replays;
    }
  in
  let parts = Parallel.Pool.map ~jobs:spec.jobs worker (chunk_bounds spec.samples) in
  let hist = Array.make hsize 0 in
  let moments = Welford.create () in
  let c_min = ref max_int and c_max = ref min_int in
  let violations = ref 0 and replays = ref 0 in
  Array.iter
    (fun part ->
      for d = 0 to hsize - 1 do
        hist.(d) <- hist.(d) + part.hist.(d)
      done;
      Welford.merge ~into:moments part.moments;
      if part.c_min < !c_min then c_min := part.c_min;
      if part.c_max > !c_max then c_max := part.c_max;
      violations := !violations + part.c_violations;
      replays := !replays + part.c_replays)
    parts;
  (* Trim trailing empty buckets: the histogram's useful width is the
     observed range, not the all-miss ceiling. *)
  let top = ref (hsize - 1) in
  while !top > 0 && hist.(!top) = 0 do
    decr top
  done;
  {
    samples = spec.samples;
    accesses = t.trace.accesses;
    fault_free_cycles = hit_cycles + (mp * t.trace.fault_free_misses);
    fault_free_misses = t.trace.fault_free_misses;
    hit_cycles;
    miss_penalty = mp;
    counts = Array.sub hist 0 (!top + 1);
    min_cycles = !c_min;
    max_cycles = !c_max;
    mean_cycles = Welford.mean moments;
    variance_cycles = Welford.variance moments;
    bound_violations = !violations;
    srb_merged_replays = !replays;
  }

let cycles_of_bucket r bucket = r.hit_cycles + (r.miss_penalty * (r.fault_free_misses + bucket))

let curve r =
  let n = float_of_int r.samples in
  let points = ref [] in
  let above = ref 0 in
  (* walk buckets descending; P(T >= x_d) counts buckets >= d *)
  for d = Array.length r.counts - 1 downto 0 do
    above := !above + r.counts.(d);
    if r.counts.(d) > 0 then points := (cycles_of_bucket r d, float_of_int !above /. n) :: !points
  done;
  !points

let exceedance r x =
  let strictly_above = ref 0 in
  for d = 0 to Array.length r.counts - 1 do
    if cycles_of_bucket r d > x then strictly_above := !strictly_above + r.counts.(d)
  done;
  float_of_int !strictly_above /. float_of_int r.samples

let noise_allowance ~samples analytic =
  let n = float_of_int samples in
  (5.0 *. sqrt (Float.max analytic (1.0 /. n) /. n)) +. (1.0 /. n)

let digest r =
  let b = Buffer.create ((8 * Array.length r.counts) + 64) in
  let add_int v = Buffer.add_string b (string_of_int v) in
  let sep () = Buffer.add_char b ',' in
  add_int r.samples;
  sep ();
  add_int r.accesses;
  sep ();
  add_int r.fault_free_misses;
  sep ();
  add_int r.min_cycles;
  sep ();
  add_int r.max_cycles;
  sep ();
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float r.mean_cycles));
  sep ();
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float r.variance_cycles));
  sep ();
  (* srb_merged_replays stays out: it says how samples were composed,
     not what they measured, and the digest asserts the statistical
     result alone. *)
  add_int r.bound_violations;
  Array.iter
    (fun c ->
      sep ();
      add_int c)
    r.counts;
  Digest.to_hex (Digest.string (Buffer.contents b))
