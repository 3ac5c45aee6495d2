(* The reference for [Ipet.Path_engine]: the loop collapse
   rebuilt from scratch on every call, with [IntSet] successor sets and
   a [Hashtbl]-based Kahn order per loop. This is the engine as it was
   before the collapse was split into a cost-independent [plan] and a
   per-query [eval]; the differential properties in
   test/test_path_engine.ml hold [eval (plan ...)] equal to it. *)

module IntSet = Set.Make (Int)

type scope = Ipet.Path_engine.scope =
  | Whole_program
  | Loop_scope of int

(* Collapse state: ids [0, n) are graph nodes, ids >= n are loop
   super-nodes. [parent] implements find with path compression. *)
type state = {
  parent : int array;
  cost : int array;
  has_exit : bool array;
  succ : IntSet.t array;  (* successor ids as recorded at insert time;
                             always resolve through [find] when read *)
}

let rec find st u =
  let p = st.parent.(u) in
  if p = u then u
  else begin
    let root = find st p in
    st.parent.(u) <- root;
    root
  end

let current_successors st u =
  IntSet.fold
    (fun s acc ->
      let r = find st s in
      if r = u then acc else IntSet.add r acc)
    st.succ.(u) IntSet.empty

(* Longest node-weighted path from [source] within the node set
   [members], ignoring edges into [excluded_target] (back edges). The
   subgraph is a DAG once inner loops are collapsed. Returns the
   distance table (cost includes both endpoints). *)
let longest_within st members ~source =
  let dist = Hashtbl.create (IntSet.cardinal members) in
  (* Topological order by Kahn's algorithm on the member-induced DAG. *)
  let indegree = Hashtbl.create 16 in
  IntSet.iter (fun u -> Hashtbl.replace indegree u 0) members;
  IntSet.iter
    (fun u ->
      IntSet.iter
        (fun v ->
          if IntSet.mem v members && v <> source then
            Hashtbl.replace indegree v (1 + Hashtbl.find indegree v))
        (current_successors st u))
    members;
  let queue = Queue.create () in
  IntSet.iter (fun u -> if Hashtbl.find indegree u = 0 then Queue.add u queue) members;
  Hashtbl.replace dist source st.cost.(source);
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find_opt dist u in
    IntSet.iter
      (fun v ->
        if IntSet.mem v members && v <> source then begin
          (match du with
          | Some d ->
            let candidate = d + st.cost.(v) in
            (match Hashtbl.find_opt dist v with
            | Some existing when existing >= candidate -> ()
            | _ -> Hashtbl.replace dist v candidate)
          | None -> ());
          let remaining = Hashtbl.find indegree v - 1 in
          Hashtbl.replace indegree v remaining;
          if remaining = 0 then Queue.add v queue
        end)
      (current_successors st u)
  done;
  dist

let longest ~graph ~loops ~node_cost ~one_shots =
  let n = Cfg.Graph.node_count graph in
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let total_ids = n + List.length loops in
  let st =
    {
      parent = Array.init total_ids (fun k -> k);
      cost = Array.make total_ids 0;
      has_exit = Array.make total_ids false;
      succ = Array.make total_ids IntSet.empty;
    }
  in
  for u = 0 to n - 1 do
    if reachable.(u) then begin
      let c = node_cost u in
      if c < 0 then invalid_arg "Oracle.Path_engine.longest: negative node cost";
      st.cost.(u) <- c;
      List.iter
        (fun v -> if reachable.(v) then st.succ.(u) <- IntSet.add v st.succ.(u))
        (Cfg.Graph.successors graph u)
    end
  done;
  List.iter (fun u -> if reachable.(u) then st.has_exit.(u) <- true) graph.Cfg.Graph.exits;
  let one_shot_total scope_filter =
    List.fold_left
      (fun acc (scope, amount) ->
        if amount < 0 then invalid_arg "Oracle.Path_engine.longest: negative one-shot";
        if scope_filter scope then acc + amount else acc)
      0 one_shots
  in
  (* Innermost loops first: strictly smaller bodies. *)
  let ordered =
    List.sort
      (fun (a : Cfg.Loop.loop) b ->
        compare (List.length a.Cfg.Loop.body) (List.length b.Cfg.Loop.body))
      loops
  in
  let next_id = ref n in
  List.iter
    (fun (l : Cfg.Loop.loop) ->
      let members =
        List.fold_left (fun acc u -> IntSet.add (find st u) acc) IntSet.empty l.Cfg.Loop.body
      in
      let header = find st l.Cfg.Loop.header in
      let dist = longest_within st members ~source:header in
      let back_sources =
        List.fold_left (fun acc (src, _) -> IntSet.add (find st src) acc) IntSet.empty
          l.Cfg.Loop.back_edges
      in
      let c_iter =
        IntSet.fold
          (fun m acc -> match Hashtbl.find_opt dist m with Some d -> max acc d | None -> acc)
          back_sources 0
      in
      let leaves u =
        st.has_exit.(u)
        || IntSet.exists (fun s -> not (IntSet.mem s members)) (current_successors st u)
      in
      let c_exit =
        IntSet.fold
          (fun m acc ->
            if leaves m then
              match Hashtbl.find_opt dist m with Some d -> max acc d | None -> acc
            else acc)
          members 0
      in
      let shots =
        one_shot_total (function
          | Loop_scope h -> h = l.Cfg.Loop.header
          | Whole_program -> false)
      in
      let super = !next_id in
      incr next_id;
      st.cost.(super) <- (l.Cfg.Loop.bound * c_iter) + c_exit + shots;
      st.has_exit.(super) <- IntSet.exists (fun m -> st.has_exit.(m)) members;
      let external_succ =
        IntSet.fold
          (fun m acc ->
            IntSet.fold
              (fun s acc -> if IntSet.mem s members then acc else IntSet.add s acc)
              (current_successors st m) acc)
          members IntSet.empty
      in
      st.succ.(super) <- external_succ;
      IntSet.iter (fun m -> st.parent.(m) <- super) members)
    ordered;
  (* Final DAG over representatives. *)
  let reps = ref IntSet.empty in
  for u = 0 to n - 1 do
    if reachable.(u) then reps := IntSet.add (find st u) !reps
  done;
  let entry = find st graph.Cfg.Graph.entry in
  let dist = longest_within st !reps ~source:entry in
  let best =
    IntSet.fold
      (fun u acc ->
        if st.has_exit.(u) then
          match Hashtbl.find_opt dist u with Some d -> max acc d | None -> acc
        else acc)
      !reps 0
  in
  best + one_shot_total (function Whole_program -> true | Loop_scope _ -> false)
