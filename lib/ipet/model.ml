module Lp = Ilp.Lp

type t = {
  lp : Lp.t;
  graph : Cfg.Graph.t;
  edge_vars : (int * int, Lp.var) Hashtbl.t;
  reachable : bool array;
}

let build graph loops =
  let lp = Lp.create () in
  let n = Cfg.Graph.node_count graph in
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let edge_vars = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      if reachable.(u) && reachable.(v) then
        Hashtbl.replace edge_vars (u, v)
          (Lp.add_var lp ~name:(Printf.sprintf "e_%d_%d" u v) ()))
    (Cfg.Graph.edges graph);
  let exit_vars = Hashtbl.create 4 in
  List.iter
    (fun u ->
      if reachable.(u) then
        Hashtbl.replace exit_vars u (Lp.add_var lp ~name:(Printf.sprintf "exit_%d" u) ()))
    graph.Cfg.Graph.exits;
  (* Flow conservation: in + [entry] = out + [exit]. *)
  for u = 0 to n - 1 do
    if reachable.(u) then begin
      let in_terms =
        List.filter_map
          (fun p -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt edge_vars (p, u)))
          (Cfg.Graph.predecessors graph u)
      in
      let out_terms =
        List.filter_map
          (fun s -> Option.map (fun v -> (v, -1)) (Hashtbl.find_opt edge_vars (u, s)))
          (Cfg.Graph.successors graph u)
      in
      let exit_term =
        match Hashtbl.find_opt exit_vars u with Some v -> [ (v, -1) ] | None -> []
      in
      let entry_const = if u = graph.Cfg.Graph.entry then 1 else 0 in
      Lp.add_constr_int lp
        ~name:(Printf.sprintf "flow_%d" u)
        (in_terms @ out_terms @ exit_term)
        Lp.Eq (-entry_const)
    end
  done;
  (* Exactly one exit is taken. *)
  Lp.add_constr_int lp ~name:"sink"
    (Hashtbl.fold (fun _ v acc -> (v, 1) :: acc) exit_vars [])
    Lp.Eq 1;
  let model = { lp; graph; edge_vars; reachable } in
  (* Loop bounds: sum(back) - bound * sum(entries) <= bound * [header=entry]. *)
  List.iter
    (fun (l : Cfg.Loop.loop) ->
      let back =
        List.filter_map (fun e -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt edge_vars e)) l.Cfg.Loop.back_edges
      in
      let entries =
        List.filter_map
          (fun e -> Option.map (fun v -> (v, -l.Cfg.Loop.bound)) (Hashtbl.find_opt edge_vars e))
          l.Cfg.Loop.entry_edges
      in
      let const = if l.Cfg.Loop.header = graph.Cfg.Graph.entry then l.Cfg.Loop.bound else 0 in
      Lp.add_constr_int lp
        ~name:(Printf.sprintf "loop_%d" l.Cfg.Loop.header)
        (back @ entries) Lp.Le const)
    loops;
  model

let lp t = t.lp
let graph t = t.graph
let reachable t u = t.reachable.(u)

let execution_terms t u =
  let terms =
    List.filter_map
      (fun p -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt t.edge_vars (p, u)))
      (Cfg.Graph.predecessors t.graph u)
  in
  let const = if u = t.graph.Cfg.Graph.entry then 1 else 0 in
  (terms, const)

let entry_terms_of_loop t (l : Cfg.Loop.loop) =
  let terms =
    List.filter_map
      (fun e -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt t.edge_vars e))
      l.Cfg.Loop.entry_edges
  in
  let const = if l.Cfg.Loop.header = t.graph.Cfg.Graph.entry then 1 else 0 in
  (terms, const)

(* Saturating arithmetic for the structural bounds: deep loop nests can
   overflow a product of (bound + 1) factors; clamping at [max_int]
   keeps the bound sound (it only ever gets looser). Operands are
   non-negative. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let execution_count_bound loops u =
  List.fold_left
    (fun acc (l : Cfg.Loop.loop) -> sat_mul acc (sat_add l.Cfg.Loop.bound 1))
    1
    (Cfg.Loop.loops_containing loops u)

let add_capped_counter t ~name ~node ~cap =
  let y = Lp.add_var t.lp ~name () in
  let exec_terms, exec_const = execution_terms t node in
  Lp.add_constr_int t.lp
    ~name:(name ^ "_exec")
    ((y, 1) :: List.map (fun (v, c) -> (v, -c)) exec_terms)
    Lp.Le exec_const;
  let cap_terms, cap_const = cap in
  Lp.add_constr_int t.lp
    ~name:(name ^ "_cap")
    ((y, 1) :: List.map (fun (v, c) -> (v, -c)) cap_terms)
    Lp.Le cap_const;
  y
