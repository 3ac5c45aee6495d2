type t = {
  cfg : Cache.Config.t;
  capacity : int array;        (* working ways per set *)
  stacks : int list array;     (* per set, MRU first; length <= capacity *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ?fault_map (cfg : Cache.Config.t) =
  let fm = match fault_map with Some m -> m | None -> Fault_map.fault_free cfg in
  {
    cfg;
    capacity = Array.init cfg.Cache.Config.sets (Fault_map.working_in_set fm);
    stacks = Array.make cfg.Cache.Config.sets [];
    hit_count = 0;
    miss_count = 0;
  }

let access_block t block =
  let s = Cache.Config.set_of_block t.cfg block in
  let stack = t.stacks.(s) in
  let hit = List.mem block stack in
  if hit then begin
    t.hit_count <- t.hit_count + 1;
    t.stacks.(s) <- block :: List.filter (fun b -> b <> block) stack
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    let cap = t.capacity.(s) in
    if cap > 0 then begin
      let trimmed =
        if List.length stack >= cap then List.filteri (fun i _ -> i < cap - 1) stack else stack
      in
      t.stacks.(s) <- block :: trimmed
    end
  end;
  hit

let access t addr = access_block t (Cache.Config.block_of_address t.cfg addr)

let latency (cfg : Cache.Config.t) ~hit = if hit then cfg.hit_latency else cfg.miss_latency

let latency_oracle t addr = latency t.cfg ~hit:(access t addr)

let reset t =
  Array.fill t.stacks 0 (Array.length t.stacks) [];
  t.hit_count <- 0;
  t.miss_count <- 0

let contents t s = t.stacks.(s)
let config t = t.cfg
let hits t = t.hit_count
let misses t = t.miss_count
