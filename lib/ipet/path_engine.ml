module IntSet = Set.Make (Int)

type scope =
  | Whole_program
  | Loop_scope of int

(* One max-plus pass of the collapse: a loop body whose inner loops are
   already collapsed, or the final DAG. Ids index [eval]'s cost and
   distance arrays: [0, n) are graph nodes, [n + i] is the super-node of
   the i-th collapsed loop. *)
type region = {
  source : int;  (* loop header's representative, or the entry *)
  slots : int array;  (* every id the pass writes: the members and the source *)
  order : int array;  (* members in topological (Kahn) order *)
  succ_start : int array;  (* successors of [order.(i)]: [succ_start.(i), succ_start.(i + 1)) *)
  succ : int array;  (* member-only successors; edges into [source] dropped *)
}

type loop_step = {
  body : region;
  back : int array;  (* back-edge sources, as members *)
  leave : int array;  (* members with an exit or a successor outside the loop *)
  header : int;  (* the loop's header node: the key of its [Loop_scope] charges *)
  bound : int;
}

type plan = {
  nodes : int;
  reachable : int array;  (* ascending: the nodes [eval] asks [node_cost] about *)
  steps : loop_step array;  (* innermost first; step i collapses into super-node [nodes + i] *)
  loops_of_header : int array array;  (* node -> the steps whose loop it heads *)
  final : region;
  exits : int array;  (* final-DAG ids that contain a program exit *)
}

(* --- plan: the collapse, run once per CFG -------------------------------- *)

let plan ~graph ~loops =
  let n = Cfg.Graph.node_count graph in
  let is_reachable = Array.make n false in
  Array.iter (fun u -> is_reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let total = n + List.length loops in
  (* Collapse state. [parent] is a union-find with path compression;
     [succ] holds successor ids as recorded at insert time, always
     resolved through [find] when read. *)
  let parent = Array.init total Fun.id in
  let has_exit = Array.make total false in
  let succ = Array.make total IntSet.empty in
  for u = 0 to n - 1 do
    if is_reachable.(u) then
      List.iter
        (fun v -> if is_reachable.(v) then succ.(u) <- IntSet.add v succ.(u))
        (Cfg.Graph.successors graph u)
  done;
  List.iter (fun u -> if is_reachable.(u) then has_exit.(u) <- true) graph.Cfg.Graph.exits;
  let rec find u =
    let p = parent.(u) in
    if p = u then u
    else begin
      let root = find p in
      parent.(u) <- root;
      root
    end
  in
  let current_successors u =
    IntSet.fold
      (fun s acc ->
        let r = find s in
        if r = u then acc else IntSet.add r acc)
      succ.(u) IntSet.empty
  in
  (* Scratch for [region], indexed by id. *)
  let member = Array.make total false in
  let indegree = Array.make total 0 in
  (* The member-induced DAG from [source] (edges into it are the loop's
     back edges), in Kahn order. A member left unordered — one that no
     indegree-0 chain reaches — keeps whatever distance its ordered
     predecessors give it and propagates nothing. *)
  let region members ~source =
    IntSet.iter (fun u -> member.(u) <- true) members;
    let inner u =
      IntSet.filter (fun v -> member.(v) && v <> source) (current_successors u)
    in
    IntSet.iter
      (fun u -> IntSet.iter (fun v -> indegree.(v) <- indegree.(v) + 1) (inner u))
      members;
    let queue = Queue.create () in
    IntSet.iter (fun u -> if indegree.(u) = 0 then Queue.add u queue) members;
    let order = ref [] and succ_lists = ref [] in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let vs = inner u in
      order := u :: !order;
      succ_lists := IntSet.elements vs :: !succ_lists;
      IntSet.iter
        (fun v ->
          indegree.(v) <- indegree.(v) - 1;
          if indegree.(v) = 0 then Queue.add v queue)
        vs
    done;
    IntSet.iter
      (fun u ->
        member.(u) <- false;
        indegree.(u) <- 0)
      members;
    let succ_lists = Array.of_list (List.rev !succ_lists) in
    let succ_start = Array.make (Array.length succ_lists + 1) 0 in
    Array.iteri (fun i vs -> succ_start.(i + 1) <- succ_start.(i) + List.length vs) succ_lists;
    {
      source;
      slots = Array.of_list (IntSet.elements (IntSet.add source members));
      order = Array.of_list (List.rev !order);
      succ_start;
      succ = Array.of_list (List.concat (Array.to_list succ_lists));
    }
  in
  (* Innermost loops first: strictly smaller bodies. *)
  let ordered =
    List.sort
      (fun (a : Cfg.Loop.loop) b ->
        compare (List.length a.Cfg.Loop.body) (List.length b.Cfg.Loop.body))
      loops
  in
  let steps =
    List.mapi
      (fun i (l : Cfg.Loop.loop) ->
        let members =
          List.fold_left (fun acc u -> IntSet.add (find u) acc) IntSet.empty l.Cfg.Loop.body
        in
        let source = find l.Cfg.Loop.header in
        let body = region members ~source in
        (* Only members and the source carry a distance in this pass. *)
        let back =
          List.fold_left
            (fun acc (src, _) ->
              let r = find src in
              if r = source || IntSet.mem r members then IntSet.add r acc else acc)
            IntSet.empty l.Cfg.Loop.back_edges
        in
        let leave =
          IntSet.filter
            (fun u ->
              has_exit.(u)
              || IntSet.exists (fun s -> not (IntSet.mem s members)) (current_successors u))
            members
        in
        let super = n + i in
        has_exit.(super) <- IntSet.exists (fun m -> has_exit.(m)) members;
        succ.(super) <-
          IntSet.fold
            (fun m acc ->
              IntSet.union acc
                (IntSet.filter (fun s -> not (IntSet.mem s members)) (current_successors m)))
            members IntSet.empty;
        IntSet.iter (fun m -> parent.(m) <- super) members;
        {
          body;
          back = Array.of_list (IntSet.elements back);
          leave = Array.of_list (IntSet.elements leave);
          header = l.Cfg.Loop.header;
          bound = l.Cfg.Loop.bound;
        })
      ordered
    |> Array.of_list
  in
  let loops_of_header = Array.make n [||] in
  Array.iteri
    (fun i step ->
      let h = step.header in
      loops_of_header.(h) <- Array.append loops_of_header.(h) [| i |])
    steps;
  let reachable = List.filter (fun u -> is_reachable.(u)) (List.init n Fun.id) in
  let reps = List.fold_left (fun acc u -> IntSet.add (find u) acc) IntSet.empty reachable in
  {
    nodes = n;
    reachable = Array.of_list reachable;
    steps;
    loops_of_header;
    final = region reps ~source:(find graph.Cfg.Graph.entry);
    exits = Array.of_list (IntSet.elements (IntSet.filter (fun u -> has_exit.(u)) reps));
  }

(* --- eval: one forward max-plus pass per query ---------------------------- *)

let unset = min_int

(* Longest node-weighted path from the region's source to every member
   (cost includes both endpoints); [unset] where no path reaches. *)
let pass r ~cost ~dist =
  Array.iter (fun id -> dist.(id) <- unset) r.slots;
  dist.(r.source) <- cost.(r.source);
  let order = r.order and start = r.succ_start and succ = r.succ in
  for i = 0 to Array.length order - 1 do
    let d = dist.(order.(i)) in
    if d <> unset then
      for k = start.(i) to start.(i + 1) - 1 do
        let v = succ.(k) in
        let candidate = d + cost.(v) in
        if candidate > dist.(v) then dist.(v) <- candidate
      done
  done

let heaviest ~dist ids =
  Array.fold_left
    (fun acc id ->
      let d = dist.(id) in
      if d <> unset && d > acc then d else acc)
    0 ids

let eval p ~node_cost ~one_shots =
  let n_steps = Array.length p.steps in
  let cost = Array.make (p.nodes + n_steps) 0 in
  let dist = Array.make (p.nodes + n_steps) unset in
  Array.iter
    (fun u ->
      let c = node_cost u in
      if c < 0 then invalid_arg "Path_engine.eval: negative node cost";
      cost.(u) <- c)
    p.reachable;
  (* A [Loop_scope h] charge is paid once per entry of every collapsed
     loop headed by [h]; a header that heads no loop charges nothing. *)
  let shots = Array.make n_steps 0 in
  let whole = ref 0 in
  List.iter
    (fun (scope, amount) ->
      if amount < 0 then invalid_arg "Path_engine.eval: negative one-shot";
      match scope with
      | Whole_program -> whole := !whole + amount
      | Loop_scope h ->
        if h >= 0 && h < p.nodes then
          Array.iter (fun i -> shots.(i) <- shots.(i) + amount) p.loops_of_header.(h))
    one_shots;
  Array.iteri
    (fun i step ->
      pass step.body ~cost ~dist;
      let c_iter = heaviest ~dist step.back and c_exit = heaviest ~dist step.leave in
      cost.(p.nodes + i) <- (step.bound * c_iter) + c_exit + shots.(i))
    p.steps;
  pass p.final ~cost ~dist;
  heaviest ~dist p.exits + !whole

let longest ~graph ~loops ~node_cost ~one_shots = eval (plan ~graph ~loops) ~node_cost ~one_shots
