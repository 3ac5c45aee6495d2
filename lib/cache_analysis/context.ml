module IntSet = Set.Make (Int)

type loop_info = {
  loop : Cfg.Loop.loop;
  body_size : int;
  members : bool array;
  conflict_counts : int array;
}

type refs = { ref_node : int array; ref_offset : int array }

type t = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  config : Cache.Config.t;
  n : int;
  blocks : int array array;
  sets : int array array;
  rpo : int array;
  rpo_pos : int array;
  reachable : bool array;
  global_counts : int array;
  loop_infos : loop_info array;
  enclosing : int array array;
  used_sets : IntSet.t;
  touching : int array array;
  refs : refs array;
}

let make ~graph ~loops ~config =
  let n = Cfg.Graph.node_count graph in
  let blocks = Array.make n [||] and sets = Array.make n [||] in
  for u = 0 to n - 1 do
    let addrs = Array.of_list (Cfg.Graph.addresses graph (Cfg.Graph.node graph u)) in
    blocks.(u) <- Array.map (Cache.Config.block_of_address config) addrs;
    sets.(u) <- Array.map (Cache.Config.set_of_block config) blocks.(u)
  done;
  let rpo = Cfg.Graph.reverse_postorder graph in
  let rpo_pos = Array.make n max_int in
  Array.iteri (fun i u -> rpo_pos.(u) <- i) rpo;
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) rpo;
  let n_sets = config.Cache.Config.sets in
  (* Number of distinct blocks per cache set over a node set — the
     conflict counts of the persistence criterion. *)
  let conflict_counts nodes =
    let per_set = Array.make n_sets IntSet.empty in
    List.iter
      (fun u ->
        Array.iteri
          (fun k blk -> per_set.(sets.(u).(k)) <- IntSet.add blk per_set.(sets.(u).(k)))
          blocks.(u))
      nodes;
    Array.map IntSet.cardinal per_set
  in
  let reachable_nodes = List.filter (fun u -> reachable.(u)) (List.init n Fun.id) in
  let global_counts = conflict_counts reachable_nodes in
  let loop_infos =
    List.map
      (fun (l : Cfg.Loop.loop) ->
        let members = Array.make n false in
        List.iter (fun u -> members.(u) <- true) l.Cfg.Loop.body;
        { loop = l
        ; body_size = List.length l.Cfg.Loop.body
        ; members
        ; conflict_counts = conflict_counts l.Cfg.Loop.body
        })
      loops
    (* Body-size descending (outermost first); natural loops of a
       reducible graph are disjoint or strictly nested, so ties cannot
       involve loops sharing a node and the order per node is total. *)
    |> List.sort (fun a b -> compare b.body_size a.body_size)
    |> Array.of_list
  in
  let enclosing =
    Array.init n (fun u ->
        let acc = ref [] in
        for i = Array.length loop_infos - 1 downto 0 do
          if loop_infos.(i).members.(u) then acc := i :: !acc
        done;
        Array.of_list !acc)
  in
  (* Each set's references at reachable nodes, in ascending (node,
     offset) order: count them, then fill the per-set arrays. The
     touching nodes and the used sets follow from the index. *)
  let count = Array.make n_sets 0 in
  for u = 0 to n - 1 do
    if reachable.(u) then Array.iter (fun s -> count.(s) <- count.(s) + 1) sets.(u)
  done;
  let refs =
    Array.map (fun c -> { ref_node = Array.make c 0; ref_offset = Array.make c 0 }) count
  in
  let fill = Array.make n_sets 0 in
  for u = 0 to n - 1 do
    if reachable.(u) then
      Array.iteri
        (fun k s ->
          let r = refs.(s) and i = fill.(s) in
          r.ref_node.(i) <- u;
          r.ref_offset.(i) <- k;
          fill.(s) <- i + 1)
        sets.(u)
  done;
  let touching =
    Array.map
      (fun r ->
        let nodes = r.ref_node and acc = ref [] in
        for i = Array.length nodes - 1 downto 0 do
          if i = 0 || nodes.(i - 1) <> nodes.(i) then acc := nodes.(i) :: !acc
        done;
        Array.of_list !acc)
      refs
  in
  let used_sets = ref IntSet.empty in
  Array.iteri (fun s c -> if c > 0 then used_sets := IntSet.add s !used_sets) count;
  { graph; loops; config; n; blocks; sets; rpo; rpo_pos; reachable; global_counts
  ; loop_infos; enclosing; used_sets = !used_sets; touching; refs }

let fitting_loop t ~node ~set ~assoc =
  if assoc <= 0 then None
  else begin
    let enc = t.enclosing.(node) in
    let rec find i =
      if i >= Array.length enc then None
      else begin
        let li = t.loop_infos.(enc.(i)) in
        if li.conflict_counts.(set) <= assoc then Some li.loop.Cfg.Loop.header
        else find (i + 1)
      end
    in
    find 0
  end
