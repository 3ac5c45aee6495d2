module Chmc = Cache_analysis.Chmc
module Acs = Cache_analysis.Acs
module Dist = Prob.Dist
module PE = Ipet.Path_engine

type task = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  iconfig : Cache.Config.t;
  dconfig : Cache.Config.t;
  ictx : Cache_analysis.Context.t;
  dctx : Danalysis.ctx;
  ichmc : Chmc.t;
  dchmc : Danalysis.t;
  annot : Annot.t;
  plan : PE.plan;
  wcet_ff : int;
}

type estimate = {
  task : task;
  imech : Pwcet.Mechanism.t;
  dmech : Pwcet.Mechanism.t;
  ifmm : Pwcet.Fmm.t;
  dfmm : Pwcet.Fmm.t;
  penalty : Dist.t;
}

let path_scope = function
  | Chmc.Global -> PE.Whole_program
  | Chmc.Loop header -> PE.Loop_scope header

(* Per-execution data-fetch cost and one-shots of one node. *)
let data_node_costs ~graph ~dchmc ~dconfig u =
  let node = Cfg.Graph.node graph u in
  let hit = dconfig.Cache.Config.hit_latency in
  let miss = dconfig.Cache.Config.miss_latency in
  let penalty = Cache.Config.miss_penalty dconfig in
  let per_exec = ref 0 in
  let shots = ref [] in
  for k = 0 to node.Cfg.Graph.len - 1 do
    match Danalysis.classification dchmc ~node:u ~offset:k with
    | None -> ()
    | Some Chmc.Always_hit -> per_exec := !per_exec + hit
    | Some (Chmc.First_miss scope) ->
      per_exec := !per_exec + hit;
      shots := (scope, penalty) :: !shots
    | Some (Chmc.Always_miss | Chmc.Not_classified) -> per_exec := !per_exec + miss
  done;
  (!per_exec, !shots)

let combined_wcet ~graph ~plan ~iconfig ~dconfig ~ichmc ~dchmc =
  let n = Cfg.Graph.node_count graph in
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let cost = Array.make n 0 in
  let one_shots = ref [] in
  for u = 0 to n - 1 do
    if reachable.(u) then begin
      let icost, ishots = Ipet.Wcet.node_costs ~graph ~chmc:ichmc ~config:iconfig u in
      let dcost, dshots = data_node_costs ~graph ~dchmc ~dconfig u in
      cost.(u) <- icost + dcost;
      List.iter
        (fun (scope, amount) -> one_shots := (path_scope scope, amount) :: !one_shots)
        (ishots @ dshots)
    end
  done;
  PE.eval plan ~node_cost:(fun u -> cost.(u)) ~one_shots:!one_shots

let prepare ~compiled ~iconfig ~dconfig () =
  let program = compiled.Minic.Compile.program in
  let graph = Cfg.Graph.build program in
  let loops = Cfg.Loop.detect graph in
  let ictx = Cache_analysis.Context.make ~graph ~loops ~config:iconfig in
  let ichmc = Chmc.analyze ~ctx:ictx ~graph ~loops ~config:iconfig () in
  let annot = Annot.build graph compiled.Minic.Compile.data_refs in
  let dctx = Danalysis.prepare ~graph ~loops ~config:dconfig ~annot in
  let dchmc = Danalysis.analyze ~ctx:dctx ~graph ~loops ~config:dconfig ~annot () in
  let plan = PE.plan ~graph ~loops in
  let wcet_ff = combined_wcet ~graph ~plan ~iconfig ~dconfig ~ichmc ~dchmc in
  { graph; loops; iconfig; dconfig; ictx; dctx; ichmc; dchmc; annot; plan; wcet_ff }

(* --- data-cache fault miss map ------------------------------------------- *)

let per_exec_miss = function
  | Chmc.Always_miss | Chmc.Not_classified -> 1
  | Chmc.Always_hit | Chmc.First_miss _ -> 0

(* Miss-delta bound for precise data loads of [set], via the path
   engine — the data-cache counterpart of Ipet.Delta. *)
let data_extra_misses ~task ~degraded ~set =
  let graph = task.graph in
  let n = Cfg.Graph.node_count graph in
  let per_exec = Array.make n 0 in
  let one_shots = ref [] in
  let any = ref false in
  (* Only reachable nodes with a precise load of [set] can carry a
     delta; the context indexes them directly. *)
  Array.iter
    (fun u ->
      let node = Cfg.Graph.node graph u in
      for k = 0 to node.Cfg.Graph.len - 1 do
        if Danalysis.cache_set task.dchmc ~node:u ~offset:k = Some set then begin
          let base = Option.get (Danalysis.classification task.dchmc ~node:u ~offset:k) in
          let degr = degraded ~node:u ~offset:k in
          if base <> degr then begin
            let d = max 0 (per_exec_miss degr - per_exec_miss base) in
            if d > 0 then begin
              per_exec.(u) <- per_exec.(u) + d;
              any := true
            end;
            match (degr, base) with
            | Chmc.First_miss scope, (Chmc.Always_hit | Chmc.First_miss _) ->
              any := true;
              one_shots := (path_scope scope, 1) :: !one_shots
            | _ -> ()
          end
        end
      done)
    (Danalysis.ctx_touching task.dctx ~set);
  if not !any then 0
  else PE.eval task.plan ~node_cost:(fun u -> per_exec.(u)) ~one_shots:!one_shots

(* Must analysis of a data SRB: a 1-block buffer over precise loads;
   imprecise loads clobber it. *)
let dsrb_hits task =
  let graph = task.graph in
  let n = Cfg.Graph.node_count graph in
  let kinds u k = Annot.cached_load task.annot ~node:u ~offset:k in
  let block_of = Cache.Config.block_of_address task.dconfig in
  let step acs (u, k) =
    match kinds u k with
    | Some (Minic.Compile.Data_exact addr) -> Acs.must_update ~assoc:1 acs (block_of addr)
    | Some (Minic.Compile.Data_range _) -> Acs.must_age_all ~assoc:1 acs
    | _ -> acs
  in
  let transfer u acs =
    let node = Cfg.Graph.node graph u in
    let result = ref acs in
    for k = 0 to node.Cfg.Graph.len - 1 do
      result := step !result (u, k)
    done;
    !result
  in
  let must_in =
    Cache_analysis.Fixpoint.run ~graph ~entry_state:Acs.empty ~transfer ~join:Acs.must_join
      ~equal:Acs.equal ()
  in
  let hits = Array.init n (fun u -> Array.make (Cfg.Graph.node graph u).Cfg.Graph.len false) in
  for u = 0 to n - 1 do
    match must_in.(u) with
    | None -> ()
    | Some acs0 ->
      let acs = ref acs0 in
      let node = Cfg.Graph.node graph u in
      for k = 0 to node.Cfg.Graph.len - 1 do
        (match kinds u k with
        | Some (Minic.Compile.Data_exact addr) -> hits.(u).(k) <- Acs.mem !acs (block_of addr)
        | _ -> ());
        acs := step !acs (u, k)
      done
  done;
  hits

(* One data-cache FMM row; self-contained so rows can run on separate
   domains (the task's plan is immutable, so they share it). *)
let compute_dfmm_row task ~mechanism ~srb_hits set =
  let dconfig = task.dconfig in
  let ways = dconfig.Cache.Config.ways in
  let row = Array.make (ways + 1) 0 in
  let max_f = match mechanism with Pwcet.Mechanism.Reliable_way -> ways - 1 | _ -> ways in
  for f = 1 to max_f do
    let degraded =
      if f < ways then begin
        let dchmc_f =
          Danalysis.analyze ~ctx:task.dctx ~graph:task.graph ~loops:task.loops ~config:dconfig
            ~annot:task.annot
            ~assoc:(fun s -> if s = set then ways - f else ways)
            ~only_sets:[ set ] ()
        in
        fun ~node ~offset ->
          Option.value
            (Danalysis.classification dchmc_f ~node ~offset)
            ~default:Chmc.Not_classified
      end
      else
        match srb_hits with
        | Some hits ->
          fun ~node ~offset ->
            if hits.(node).(offset) then Chmc.Always_hit else Chmc.Always_miss
        | None -> fun ~node:_ ~offset:_ -> Chmc.Always_miss
    in
    let v = data_extra_misses ~task ~degraded ~set in
    row.(f) <- max v row.(f - 1)
  done;
  if max_f < ways then row.(ways) <- row.(max_f);
  row

(* Structural fallback row for a data set: every precise load of the
   set misses at most once per execution of its node — no degraded
   analysis, no path search, dominates every fault count. *)
let structural_drow task set =
  Array.fold_left
    (fun acc u ->
      let node = Cfg.Graph.node task.graph u in
      let refs = ref 0 in
      for k = 0 to node.Cfg.Graph.len - 1 do
        if Danalysis.cache_set task.dchmc ~node:u ~offset:k = Some set then incr refs
      done;
      Ipet.Model.sat_add acc
        (Ipet.Model.sat_mul !refs (Ipet.Model.execution_count_bound task.loops u)))
    0
    (Danalysis.ctx_touching task.dctx ~set)

let compute_dfmm task ~mechanism ~jobs ?deadline () =
  let dconfig = task.dconfig in
  let n_sets = dconfig.Cache.Config.sets and ways = dconfig.Cache.Config.ways in
  let used = Array.make n_sets false in
  Danalysis.fold_loads
    (fun ~node ~offset _ () ->
      match Danalysis.cache_set task.dchmc ~node ~offset with
      | Some s -> used.(s) <- true
      | None -> ())
    task.dchmc ();
  let srb_hits =
    match mechanism with
    | Pwcet.Mechanism.Shared_reliable_buffer -> Some (dsrb_hits task)
    | _ -> None
  in
  let misses = Array.make_matrix n_sets (ways + 1) 0 in
  let provenance =
    Array.init n_sets (fun _ -> Array.make (ways + 1) Robust.Rung.Exact)
  in
  let used_sets =
    Array.of_list (List.filter (fun s -> used.(s)) (List.init n_sets Fun.id))
  in
  let rows =
    Parallel.Pool.map_result ?deadline ~jobs (compute_dfmm_row task ~mechanism ~srb_hits)
      used_sets
  in
  let errors = ref [] in
  Array.iteri
    (fun i set ->
      match rows.(i) with
      | Ok row -> misses.(set) <- row
      | Error e ->
        let v = structural_drow task set in
        let row = Array.make (ways + 1) v in
        row.(0) <- 0;
        misses.(set) <- row;
        let p = Array.make (ways + 1) Robust.Rung.Structural in
        p.(0) <- Robust.Rung.Exact;
        provenance.(set) <- p;
        errors := (set, e) :: !errors)
    used_sets;
  (misses, provenance, List.rev !errors)

let estimate task ~pfail ~imech ~dmech ?(jobs = 1) ?budget () =
  let ifmm =
    Pwcet.Fmm.compute ~graph:task.graph ~loops:task.loops ~config:task.iconfig
      ~mechanism:imech ~jobs ~ctx:task.ictx ?budget ()
  in
  let deadline =
    match budget with Some b -> b.Robust.Budget.deadline | None -> None
  in
  let dfmm =
    let misses, provenance, errors = compute_dfmm task ~mechanism:dmech ~jobs ?deadline () in
    Pwcet.Fmm.of_table ~config:task.dconfig ~mechanism:dmech ~provenance ~errors misses
  in
  let ipbf = Fault.Model.pbf_of_config ~pfail task.iconfig in
  let dpbf = Fault.Model.pbf_of_config ~pfail task.dconfig in
  let ipenalty = Pwcet.Penalty.total_distribution ~jobs ~fmm:ifmm ~pbf:ipbf () in
  let dpenalty = Pwcet.Penalty.total_distribution ~jobs ~fmm:dfmm ~pbf:dpbf () in
  let penalty = Dist.convolve ipenalty dpenalty in
  { task; imech; dmech; ifmm; dfmm; penalty }

let pwcet e ~target = e.task.wcet_ff + Dist.quantile e.penalty ~target

let dfmm_misses e ~set ~faulty = Pwcet.Fmm.misses e.dfmm ~set ~faulty

let worst_rung e =
  Robust.Rung.worst (Pwcet.Fmm.worst_rung e.ifmm) (Pwcet.Fmm.worst_rung e.dfmm)

let degradation_errors e = Pwcet.Fmm.errors e.ifmm @ Pwcet.Fmm.errors e.dfmm
