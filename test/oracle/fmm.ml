(* The naive Fault Miss Map, the reference [Pwcet.Fmm] is held to bit
   for bit. Per referenced set and fault count it reruns the whole-CFG
   degraded analysis ([Oracle.Chmc.analyze]) from scratch and bounds
   its extra misses with [Ipet.Delta.extra_misses]: no per-set slice,
   no ages shared across fault counts, no signature memo, no shared
   path-engine plan and no precomputed context. *)

module Whole_cfg = Chmc
module Chmc = Cache_analysis.Chmc
module Mechanism = Pwcet.Mechanism

(* One [sets x (ways + 1)] miss table per mechanism, in [mechanisms]
   order. Rows are kept monotone in the fault count, as the analysis
   keeps them; unreferenced sets stay all zeros. *)
let tables ~graph ~loops ~config ~mechanisms ?(engine = `Path) ?(exact = false) () =
  let n_sets = config.Cache.Config.sets and ways = config.Cache.Config.ways in
  let baseline = Chmc.analyze ~graph ~loops ~config () in
  let referenced = Array.make n_sets false in
  Chmc.fold_refs
    (fun ~node ~offset _ () -> referenced.(Chmc.cache_set baseline ~node ~offset) <- true)
    baseline ();
  let delta set degraded =
    Ipet.Delta.extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets:[ set ] ~engine
      ~exact ()
  in
  (* Columns 1 .. W-1: the set's associativity shrinks by one per fault. *)
  let prefix set =
    let row = Array.make (ways + 1) 0 in
    if referenced.(set) then
      for f = 1 to ways - 1 do
        let degraded =
          Whole_cfg.analyze ~graph ~loops ~config
            ~assoc:(fun s -> if s = set then ways - f else ways)
            ~only_sets:[ set ] ()
        in
        let value =
          delta set (fun ~node ~offset -> Whole_cfg.classification degraded ~node ~offset)
        in
        row.(f) <- max row.(f - 1) value
      done;
    row
  in
  let prefixes = Array.init n_sets prefix in
  let srb = lazy (Cache_analysis.Srb_analysis.analyze ~graph ~config ()) in
  (* Column W, the dead set: RW keeps a reliable way, so the column
     repeats W-1; without protection every reference misses; the SRB
     still serves the references its analysis proves always-hit. *)
  let dead_column mechanism set row =
    match mechanism with
    | Mechanism.Reliable_way -> row.(ways - 1)
    | Mechanism.No_protection ->
      max row.(ways - 1) (delta set (fun ~node:_ ~offset:_ -> Chmc.Always_miss))
    | Mechanism.Shared_reliable_buffer ->
      let srb = Lazy.force srb in
      max row.(ways - 1)
        (delta set (fun ~node ~offset ->
             if Cache_analysis.Srb_analysis.always_hit srb ~node ~offset then Chmc.Always_hit
             else Chmc.Always_miss))
  in
  List.map
    (fun mechanism ->
      ( mechanism,
        Array.mapi
          (fun set prefix ->
            let row = Array.copy prefix in
            if referenced.(set) then row.(ways) <- dead_column mechanism set row;
            row)
          prefixes ))
    mechanisms
