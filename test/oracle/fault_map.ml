type t = {
  sets : int;
  ways : int;
  faulty : bool array array;  (* faulty.(set).(way) *)
}

let fault_free (cfg : Cache.Config.t) =
  {
    sets = cfg.Cache.Config.sets;
    ways = cfg.Cache.Config.ways;
    faulty = Array.init cfg.Cache.Config.sets (fun _ -> Array.make cfg.Cache.Config.ways false);
  }

let of_faulty_counts (cfg : Cache.Config.t) counts =
  if Array.length counts <> cfg.Cache.Config.sets then
    invalid_arg "Fault_map.of_faulty_counts: wrong number of sets";
  Array.iter
    (fun c ->
      if c < 0 || c > cfg.Cache.Config.ways then
        invalid_arg "Fault_map.of_faulty_counts: count outside [0, ways]")
    counts;
  {
    sets = cfg.Cache.Config.sets;
    ways = cfg.Cache.Config.ways;
    faulty =
      Array.init cfg.Cache.Config.sets (fun s ->
          Array.init cfg.Cache.Config.ways (fun w -> w < counts.(s)));
  }

let sample (cfg : Cache.Config.t) ~pbf state =
  if not (Float.is_finite pbf) || pbf < 0.0 || pbf > 1.0 then
    invalid_arg "Fault_map.sample: pbf outside [0,1]";
  {
    sets = cfg.Cache.Config.sets;
    ways = cfg.Cache.Config.ways;
    faulty =
      Array.init cfg.Cache.Config.sets (fun _ ->
          Array.init cfg.Cache.Config.ways (fun _ -> Random.State.float state 1.0 < pbf));
  }

let is_faulty t ~set ~way = t.faulty.(set).(way)

let faulty_in_set t s = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 t.faulty.(s)
let working_in_set t s = t.ways - faulty_in_set t s

let total_faulty t =
  let acc = ref 0 in
  for s = 0 to t.sets - 1 do
    acc := !acc + faulty_in_set t s
  done;
  !acc

let faulty_counts t = Array.init t.sets (faulty_in_set t)

let mask_way t ~way =
  if way < 0 || way >= t.ways then invalid_arg "Fault_map.mask_way: way out of range";
  {
    t with
    faulty = Array.map (fun row -> Array.mapi (fun w f -> if w = way then false else f) row) t.faulty;
  }
