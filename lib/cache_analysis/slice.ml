type t = {
  ctx : Context.t;
  set : int;
  nodes : int array;  (* slice position -> CFG node id, RPO-position order *)
  succ : int list array;  (* condensed edges between slice positions *)
  priority : int array;  (* identity: nodes are already in RPO order *)
  entry_pos : int;
  touches : bool array;  (* slice position -> node references the set *)
}

let make (ctx : Context.t) ~set =
  let graph = ctx.Context.graph in
  let entry = graph.Cfg.Graph.entry in
  let touching = ctx.Context.touching.(set) in
  let node_list =
    if Array.exists (fun u -> u = entry) touching then Array.to_list touching
    else entry :: Array.to_list touching
  in
  let nodes =
    List.sort (fun a b -> compare ctx.Context.rpo_pos.(a) ctx.Context.rpo_pos.(b)) node_list
    |> Array.of_list
  in
  let m = Array.length nodes in
  let pos_of = Array.make ctx.Context.n (-1) in
  Array.iteri (fun i u -> pos_of.(u) <- i) nodes;
  let touches_node = Array.make ctx.Context.n false in
  Array.iter (fun u -> touches_node.(u) <- true) touching;
  (* Condensed edge a -> b iff the CFG has a path a -> ... -> b whose
     interior nodes all miss the set. Interior transfers are the
     identity, so a fixpoint over these edges stabilises to exactly the
     in-states the full-CFG fixpoint computes at the touching nodes
     (join is associative, commutative and idempotent, so deferring the
     interior merges changes nothing). One DFS through the non-touching
     region per slice node, stamped to avoid clearing visit marks. *)
  let succ = Array.make m [] in
  let visited = Array.make ctx.Context.n 0 in
  let target_mark = Array.make m 0 in
  let stamp = ref 0 in
  Array.iteri
    (fun i u ->
      incr stamp;
      let s = !stamp in
      let targets = ref [] in
      let work = ref (Cfg.Graph.successors graph u) in
      let continue_ = ref true in
      while !continue_ do
        match !work with
        | [] -> continue_ := false
        | v :: rest ->
          work := rest;
          if touches_node.(v) then begin
            let j = pos_of.(v) in
            if target_mark.(j) <> s then begin
              target_mark.(j) <- s;
              targets := j :: !targets
            end
          end
          else if visited.(v) <> s then begin
            visited.(v) <- s;
            work := List.rev_append (Cfg.Graph.successors graph v) !work
          end
      done;
      succ.(i) <- !targets)
    nodes;
  { ctx; set; nodes; succ
  ; priority = Array.init m Fun.id
  ; entry_pos = pos_of.(entry)
  ; touches = Array.map (fun u -> touches_node.(u)) nodes
  }

let absent = max_int

let ages (sl : t) ~must ~may =
  let ctx = sl.ctx and set = sl.set in
  let blocks = ctx.Context.blocks and sets = ctx.Context.sets in
  let assoc = ctx.Context.config.Cache.Config.ways in
  let m = Array.length sl.nodes in
  let transfer update i acs =
    if not sl.touches.(i) then acs
    else begin
      let u = sl.nodes.(i) in
      let b = blocks.(u) and ss = sets.(u) in
      let acc = ref acs in
      Array.iteri (fun k blk -> if ss.(k) = set then acc := update !acc blk) b;
      !acc
    end
  in
  let run update join =
    Fixpoint.run_custom ~n:m ~entry:sl.entry_pos
      ~succ:(fun i -> sl.succ.(i))
      ~priority:sl.priority ~entry_state:Acs.empty ~transfer:(transfer update) ~join
      ~equal:Acs.equal ()
  in
  let must_in = run (Acs.must_update ~assoc) Acs.must_join in
  let may_in = run (Acs.may_update ~assoc) Acs.may_join in
  let age state blk =
    match state with
    | Some a -> Option.value (Acs.age a blk) ~default:absent
    | None -> absent
  in
  (* Replay each touching node's accesses from its in-state: a
     reference's age is the one its block has just before the fetch. *)
  for i = 0 to m - 1 do
    if sl.touches.(i) then begin
      let u = sl.nodes.(i) in
      let must_s = ref must_in.(i) and may_s = ref may_in.(i) in
      Array.iteri
        (fun k blk ->
          if sets.(u).(k) = set then begin
            must.(u).(k) <- age !must_s blk;
            may.(u).(k) <- age !may_s blk;
            must_s := Option.map (fun a -> Acs.must_update ~assoc a blk) !must_s;
            may_s := Option.map (fun a -> Acs.may_update ~assoc a blk) !may_s
          end)
        blocks.(u)
    end
  done
