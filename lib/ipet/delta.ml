module Lp = Ilp.Lp
module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context
module Rung = Robust.Rung
module E = Robust.Pwcet_error

(* Per-execution miss indicator of a classification (first-miss counts
   through its one-shot variable instead). *)
let per_exec_miss = function
  | Chmc.Always_miss | Chmc.Not_classified -> 1
  | Chmc.Always_hit | Chmc.First_miss _ -> 0

let scope_cap model loops = function
  | Chmc.Global -> ([], 1)
  | Chmc.Loop header -> (
    match List.find_opt (fun (l : Cfg.Loop.loop) -> l.Cfg.Loop.header = header) loops with
    | Some l -> Model.entry_terms_of_loop model l
    | None -> ([], 1))

let path_scope = function
  | Chmc.Global -> Path_engine.Whole_program
  | Chmc.Loop header -> Path_engine.Loop_scope header

(* Per-node delta in misses-per-execution and the one-shot deltas, for
   references mapping to a set selected by [member]. *)
let node_delta ~graph ~baseline ~degraded ~member u =
  let node = Cfg.Graph.node graph u in
  let per_exec = ref 0 in
  let shots = ref [] in
  for k = 0 to node.Cfg.Graph.len - 1 do
    if member.(Chmc.cache_set baseline ~node:u ~offset:k) then begin
      let base = Chmc.classification baseline ~node:u ~offset:k in
      let degr = degraded ~node:u ~offset:k in
      if base <> degr then begin
        (* Per-execution part, clamped non-negative (the SRB can
           genuinely improve on the baseline; the paper only removes
           misses, never credits). *)
        per_exec := !per_exec + max 0 (per_exec_miss degr - per_exec_miss base);
        (* One-shot part: degraded first-miss where the baseline was
           strictly better (always-hit), or first-miss with a different
           (smaller) scope. The baseline's own one-shot allowance is
           dropped, never subtracted — conservative. *)
        match (degr, base) with
        | Chmc.First_miss scope, (Chmc.Always_hit | Chmc.First_miss _) ->
          shots := (scope, 1) :: !shots
        | _ -> ()
      end
    end
  done;
  (!per_exec, !shots)

(* Shared candidate-node enumeration: with a context, only the sets'
   touching nodes (the others cannot reference the sets, hence
   contribute nothing); otherwise every reachable node. *)
let candidate_nodes ~graph ~sets ?ctx () =
  match ctx with
  | Some ctx ->
    List.concat_map (fun s -> Array.to_list ctx.Context.touching.(s)) sets
    |> List.sort_uniq compare
  | None ->
    let n = Cfg.Graph.node_count graph in
    let reachable = Array.make n false in
    Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
    List.filter (fun u -> reachable.(u)) (List.init n Fun.id)

let member_of_sets ~config ~sets =
  let member = Array.make config.Cache.Config.sets false in
  List.iter (fun s -> member.(s) <- true) sets;
  member

(* The [Structural] rung for miss deltas: each reference to a selected
   set turns into at most one extra miss per execution of its node, and
   executions are bounded by the loop-bound product. Needs neither a
   degraded classification nor a solver, so it also serves as the
   fallback FMM row for a crashed or deadline-starved worker. *)
let structural_of_candidates ~graph ~loops ~baseline ~member candidates =
  List.fold_left
    (fun acc u ->
      let node = Cfg.Graph.node graph u in
      let refs = ref 0 in
      for k = 0 to node.Cfg.Graph.len - 1 do
        if member.(Chmc.cache_set baseline ~node:u ~offset:k) then incr refs
      done;
      Model.sat_add acc (Model.sat_mul !refs (Model.execution_count_bound loops u)))
    0 candidates

let structural_extra_misses ~graph ~loops ~config ~baseline ~sets ?ctx () =
  let member = member_of_sets ~config ~sets in
  let candidates = candidate_nodes ~graph ~sets ?ctx () in
  structural_of_candidates ~graph ~loops ~baseline ~member candidates

let extra_misses_ilp ~graph ~loops ~baseline ~degraded ~member ~candidates ~exact ?budget () =
  let model = Model.build graph loops in
  let lp = Model.lp model in
  let coeffs : (Lp.var, int) Hashtbl.t = Hashtbl.create 64 in
  let constant = ref 0 in
  let add_terms terms const factor =
    List.iter
      (fun (v, c) ->
        Hashtbl.replace coeffs v (Option.value ~default:0 (Hashtbl.find_opt coeffs v) + (c * factor)))
      terms;
    constant := !constant + (const * factor)
  in
  let any_delta = ref false in
  List.iter
    (fun u ->
      if Model.reachable model u then begin
        let per_exec, shots = node_delta ~graph ~baseline ~degraded ~member u in
        List.iteri
          (fun idx (scope, amount) ->
            any_delta := true;
            let y =
              Model.add_capped_counter model
                ~name:(Printf.sprintf "dfm_%d_%d" u idx)
                ~node:u ~cap:(scope_cap model loops scope)
            in
            add_terms [ (y, 1) ] 0 amount)
          shots;
        if per_exec > 0 then begin
          any_delta := true;
          let terms, const = Model.execution_terms model u in
          add_terms terms const per_exec
        end
      end)
    candidates;
  if not !any_delta then Ok (0, Rung.Exact)
  else begin
    Lp.set_objective_int lp (Hashtbl.fold (fun v c acc -> (v, c) :: acc) coeffs []);
    match Ilp.Solver.bounded_objective ?budget ~exact lp with
    | Ok { Ilp.Solver.value; rung } -> Ok (max 0 (value + !constant), rung)
    | Error (E.Unbounded _ | E.Budget_exhausted _) ->
      Ok
        ( structural_of_candidates ~graph ~loops ~baseline ~member candidates,
          Rung.Structural )
    | Error e -> Error e
  end

let extra_misses_path ~graph ~loops ?plan ~baseline ~degraded ~member ~candidates () =
  let n = Cfg.Graph.node_count graph in
  let per_exec = Array.make n 0 in
  let one_shots = ref [] in
  let any_delta = ref false in
  List.iter
    (fun u ->
      let d, shots = node_delta ~graph ~baseline ~degraded ~member u in
      per_exec.(u) <- d;
      if d > 0 || shots <> [] then any_delta := true;
      List.iter (fun (scope, amount) -> one_shots := (path_scope scope, amount) :: !one_shots) shots)
    candidates;
  if not !any_delta then 0
  else begin
    let plan = match plan with Some p -> p | None -> Path_engine.plan ~graph ~loops in
    Path_engine.eval plan ~node_cost:(fun u -> per_exec.(u)) ~one_shots:!one_shots
  end

let extra_misses_result ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ?plan
    ?(engine = `Path) ?(exact = false) ?budget () =
  let member = member_of_sets ~config ~sets in
  let candidates = candidate_nodes ~graph ~sets ?ctx () in
  match engine with
  | `Path ->
    Ok
      ( extra_misses_path ~graph ~loops ?plan ~baseline ~degraded ~member ~candidates (),
        Rung.Exact )
  | `Ilp -> extra_misses_ilp ~graph ~loops ~baseline ~degraded ~member ~candidates ~exact ?budget ()

let extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ?plan ?(engine = `Path)
    ?(exact = false) () =
  match
    extra_misses_result ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ?plan ~engine ~exact
      ()
  with
  | Ok (v, _) -> v
  | Error e -> E.raise_error e
