let rw_cache ~fault_map ?(reliable_way = 0) cfg =
  Lru.create ~fault_map:(Fault_map.mask_way fault_map ~way:reliable_way) cfg

module Srb = struct
  type t = {
    cfg : Cache.Config.t;
    cache : Lru.t;
    all_faulty : bool array;  (* per set: no working way at all *)
    mutable buffer : int option;
    mutable srb_refs : int;
    mutable hit_count : int;
    mutable miss_count : int;
  }

  let create ~fault_map cfg =
    {
      cfg;
      cache = Lru.create ~fault_map cfg;
      all_faulty =
        Array.init cfg.Cache.Config.sets (fun s ->
            Fault_map.working_in_set fault_map s = 0);
      buffer = None;
      srb_refs = 0;
      hit_count = 0;
      miss_count = 0;
    }

  let access_block t block =
    let s = Cache.Config.set_of_block t.cfg block in
    let hit =
      if t.all_faulty.(s) then begin
        (* Buffer path: consulted only for fully-faulty sets. *)
        t.srb_refs <- t.srb_refs + 1;
        if t.buffer = Some block then true
        else begin
          t.buffer <- Some block;
          false
        end
      end
      else Lru.access_block t.cache block
    in
    if hit then t.hit_count <- t.hit_count + 1 else t.miss_count <- t.miss_count + 1;
    hit

  let access t addr = access_block t (Cache.Config.block_of_address t.cfg addr)
  let latency_oracle t addr = Lru.latency t.cfg ~hit:(access t addr)

  let reset t =
    Lru.reset t.cache;
    t.buffer <- None;
    t.srb_refs <- 0;
    t.hit_count <- 0;
    t.miss_count <- 0

  let srb_contents t = t.buffer
  let srb_accesses t = t.srb_refs
  let hits t = t.hit_count
  let misses t = t.miss_count
end
