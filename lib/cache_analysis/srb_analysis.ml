type t = {
  hits : bool array array;
  reachable : bool array;
}

(* The abstract SRB state: the block the buffer is guaranteed to hold,
   or [unknown]. With capacity one this is a Must analysis of
   associativity 1: an access leaves exactly its own block, and two
   paths agree on a block only if both hold it. [touches] selects which
   references go through the buffer: all of them for the paper's
   conservative analysis, only one cache set's for the exclusive
   refinement. *)
let unknown = -1

let join a b = if a = b then a else unknown

let analyze_with ?ctx ~graph ~config ~touches () =
  let n = Cfg.Graph.node_count graph in
  let blocks =
    match ctx with
    | Some ctx -> ctx.Context.blocks
    | None ->
      Array.init n (fun u ->
          Array.of_list
            (List.map
               (Cache.Config.block_of_address config)
               (Cfg.Graph.addresses graph (Cfg.Graph.node graph u))))
  in
  let update held blk = if touches blk then blk else held in
  let transfer u held = Array.fold_left update held blocks.(u) in
  let must_in = Fixpoint.run ~graph ~entry_state:unknown ~transfer ~join ~equal:Int.equal () in
  let reachable =
    match ctx with
    | Some ctx -> ctx.Context.reachable
    | None ->
      let reachable = Array.make n false in
      Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
      reachable
  in
  let hits = Array.make n [||] in
  for u = 0 to n - 1 do
    let len = Array.length blocks.(u) in
    hits.(u) <- Array.make len false;
    match must_in.(u) with
    | Some held0 ->
      let held = ref held0 in
      for k = 0 to len - 1 do
        let blk = blocks.(u).(k) in
        if touches blk then begin
          hits.(u).(k) <- !held = blk;
          held := blk
        end
      done
    | None -> ()
  done;
  { hits; reachable }

let analyze ?ctx ~graph ~config () = analyze_with ?ctx ~graph ~config ~touches:(fun _ -> true) ()

let analyze_exclusive ?ctx ~graph ~config ~sets () =
  analyze_with ?ctx ~graph ~config
    ~touches:(fun blk -> List.mem (Cache.Config.set_of_block config blk) sets)
    ()

let always_hit t ~node ~offset = t.hits.(node).(offset)

let hit_count t =
  let acc = ref 0 in
  Array.iteri
    (fun u row -> if t.reachable.(u) then Array.iter (fun h -> if h then incr acc) row)
    t.hits;
  !acc
