module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context
module Srb_analysis = Cache_analysis.Srb_analysis
module Rung = Robust.Rung
module E = Robust.Pwcet_error

type t = {
  misses : int array array;  (* sets x (ways + 1); column 0 is all zeros *)
  provenance : Rung.t array array;  (* same shape: which ladder rung produced each cell *)
  errors : (int * E.t) list;  (* sets whose row fell back to the structural bound, and why *)
  config : Cache.Config.t;
  mechanism : Mechanism.t;
}

(* The f = ways classification: the set holds nothing; only an SRB can
   still serve hits. *)
let dead_set_degraded ~srb ~node ~offset =
  match srb with
  | Some srb_result ->
    if Srb_analysis.always_hit srb_result ~node ~offset then Chmc.Always_hit
    else Chmc.Always_miss
  | None -> Chmc.Always_miss

(* Rung of a [max]-combined cell: the contributor that set the value
   wins; on a tie the tighter rung does (both bounds hold, so the cell
   is as trustworthy as its best witness). *)
let pick_rung ~value ~rung ~prev_value ~prev_rung =
  if value > prev_value then rung
  else if value < prev_value then prev_rung
  else if Rung.compare rung prev_rung <= 0 then rung
  else prev_rung

(* Fallback row when a per-set worker crashed or the deadline passed:
   the structural bound needs no degraded analysis and no solver, and
   dominates every fault count's true delta, so a constant row is both
   monotone and sound. *)
let structural_row ~ctx ~graph ~loops ~config ~baseline ~ways set =
  let v =
    Ipet.Delta.structural_extra_misses ~graph ~loops ~config ~baseline ~sets:[ set ] ~ctx ()
  in
  let row = Array.make (ways + 1) v in
  row.(0) <- 0;
  let rungs = Array.make (ways + 1) Rung.Structural in
  rungs.(0) <- Rung.Exact;
  (row, rungs)

(* [compute_multi] in three steps, so a scheduler other than
   [Pool.map_result] (the grid's DAG) can run the per-set rows itself:
   [setup_multi] holds the shared inputs, [compute_rows_multi] is one
   set's row for every mechanism, [assemble_multi] builds the maps. *)
type multi = {
  m_graph : Cfg.Graph.t;
  m_loops : Cfg.Loop.loop list;
  m_config : Cache.Config.t;
  m_mechanisms : Mechanism.t list;
  m_engine : [ `Path | `Ilp ];
  m_exact : bool;
  m_ctx : Context.t;
  m_budget : Robust.Budget.t option;
  m_baseline : Chmc.t;
  m_srb : Srb_analysis.t option;
  m_used_sets : int array;
  m_plan : Ipet.Path_engine.plan;  (* the path engine's collapse, shared by every row *)
}

type rows = (Mechanism.t * int array * Rung.t array) list

(* One set's rows for every requested mechanism, with a shared prefix.
   The f < W columns never consult the mechanism: the degraded analysis
   shrinks the set's associativity, the signature memo keys on the
   classification alone, and the delta bound sees only the
   classification. Only the dead-set column (f = W) is
   mechanism-dependent — RW copies column W-1 (the all-faulty situation
   cannot occur), while None/SRB classify the dead set via
   [dead_set_degraded]. So one prefix pass (f = 1 .. W-1) feeds every
   mechanism's tail, bit-identically to running each mechanism alone:
   the tails read the prefix's signature memo exactly where a
   single-mechanism run would, and never write it.

   The degraded classification at [W - f] is a threshold on the ages
   the baseline CHMC already holds ([Chmc.degraded]), so a row runs no
   cache fixpoint of its own. (The test oracle re-runs the whole-CFG
   fixpoint per fault count instead; the differential tests hold the
   two to bit-identical tables.) Self-contained (no mutable state
   outside the row), so rows of distinct sets can run on separate
   domains. *)
let compute_rows_multi m set =
  let { m_graph = graph; m_loops = loops; m_config = config; m_mechanisms = mechanisms;
        m_engine = engine; m_exact = exact; m_ctx = ctx; m_budget = budget;
        m_baseline = baseline; m_srb = srb; m_plan = plan; _ } =
    m
  in
  let ways = config.Cache.Config.ways in
  let row = Array.make (ways + 1) 0 in
  let rungs = Array.make (ways + 1) Rung.Exact in
  let previous : (Chmc.classification list * (int * Rung.t)) option ref = ref None in
  let delta ~degraded =
    match
      Ipet.Delta.extra_misses_result ~graph ~loops ~config ~baseline ~degraded ~sets:[ set ] ~ctx
        ~plan ~engine ~exact ?budget ()
    with
    | Ok v -> v
    | Error e -> E.raise_error e
  in
  (* One prefix column: reuse the previous fault count's bound while the
     set's classification is unchanged, and keep the row monotone in
     the fault count. *)
  let step ~degraded f =
    let signature = Chmc.set_signature ctx ~set ~degraded in
    let value, rung =
      match !previous with
      | Some (prev_sig, prev) when prev_sig = signature -> prev
      | _ ->
        let v = delta ~degraded in
        previous := Some (signature, v);
        v
    in
    row.(f) <- max value row.(f - 1);
    rungs.(f) <- pick_rung ~value ~rung ~prev_value:row.(f - 1) ~prev_rung:rungs.(f - 1)
  in
  for f = 1 to ways - 1 do
    step ~degraded:(Chmc.degraded baseline ~set ~assoc:(ways - f)) f
  done;
  List.map
    (fun mechanism ->
      let row_m = Array.copy row and rungs_m = Array.copy rungs in
      (match mechanism with
      | Mechanism.Reliable_way ->
        row_m.(ways) <- row_m.(ways - 1);
        rungs_m.(ways) <- rungs_m.(ways - 1)
      | Mechanism.No_protection | Mechanism.Shared_reliable_buffer ->
        let srb =
          match mechanism with Mechanism.Shared_reliable_buffer -> srb | _ -> None
        in
        let degraded = dead_set_degraded ~srb in
        let signature = Chmc.set_signature ctx ~set ~degraded in
        let value, rung =
          match !previous with
          | Some (prev_sig, prev) when prev_sig = signature -> prev
          | _ -> delta ~degraded
        in
        row_m.(ways) <- max value row_m.(ways - 1);
        rungs_m.(ways) <-
          pick_rung ~value ~rung ~prev_value:row_m.(ways - 1) ~prev_rung:rungs_m.(ways - 1));
      (mechanism, row_m, rungs_m))
    mechanisms

let setup_multi ~graph ~loops ~config ~mechanisms ?(engine = `Path) ?(exact = false) ?ctx
    ?budget ?baseline () =
  let ctx = match ctx with Some c -> c | None -> Context.make ~graph ~loops ~config in
  let baseline =
    match baseline with Some b -> b | None -> Chmc.analyze ~ctx ~graph ~loops ~config ()
  in
  (* One SRB analysis serves every mechanism that needs it. *)
  let srb =
    if List.mem Mechanism.Shared_reliable_buffer mechanisms then
      Some (Srb_analysis.analyze ~ctx ~graph ~config ())
    else None
  in
  let used_sets =
    Array.of_list
      (List.filter
         (fun s -> Array.length ctx.Context.touching.(s) > 0)
         (List.init config.Cache.Config.sets Fun.id))
  in
  { m_graph = graph; m_loops = loops; m_config = config; m_mechanisms = mechanisms;
    m_engine = engine; m_exact = exact; m_ctx = ctx; m_budget = budget;
    m_baseline = baseline; m_srb = srb; m_used_sets = used_sets;
    m_plan = Ipet.Path_engine.plan ~graph ~loops }

let used_sets m = m.m_used_sets

let assemble_multi m rows =
  let n_sets = m.m_config.Cache.Config.sets and ways = m.m_config.Cache.Config.ways in
  List.map
    (fun mechanism ->
      let misses = Array.make_matrix n_sets (ways + 1) 0 in
      let provenance = Array.init n_sets (fun _ -> Array.make (ways + 1) Rung.Exact) in
      let errors = ref [] in
      Array.iteri
        (fun i set ->
          match rows.(i) with
          | Ok per_mech ->
            let _, r, p = List.find (fun (m, _, _) -> Mechanism.equal m mechanism) per_mech in
            misses.(set) <- Array.copy r;
            provenance.(set) <- Array.copy p
          | Error e ->
            (* A crashed or starved shared prefix poisons the set's
               row for every mechanism — each falls back to the same
               structural bound an independent run would. *)
            let r, p =
              structural_row ~ctx:m.m_ctx ~graph:m.m_graph ~loops:m.m_loops ~config:m.m_config
                ~baseline:m.m_baseline ~ways set
            in
            misses.(set) <- r;
            provenance.(set) <- p;
            errors := (set, e) :: !errors)
        m.m_used_sets;
      ( mechanism,
        { misses; provenance; errors = List.rev !errors; config = m.m_config; mechanism } ))
    m.m_mechanisms

let compute_multi ~graph ~loops ~config ~mechanisms ?engine ?exact ?(jobs = 1) ?ctx ?budget
    ?baseline () =
  match mechanisms with
  | [] -> []
  | _ ->
    let m = setup_multi ~graph ~loops ~config ~mechanisms ?engine ?exact ?ctx ?budget ?baseline () in
    let deadline = match budget with Some b -> b.Robust.Budget.deadline | None -> None in
    assemble_multi m
      (Parallel.Pool.map_result ?deadline ~jobs (compute_rows_multi m) m.m_used_sets)

let of_table ~config ~mechanism ?provenance ?(errors = []) table =
  if Array.length table <> config.Cache.Config.sets then
    invalid_arg "Fmm.of_table: wrong number of rows";
  Array.iter
    (fun row ->
      if Array.length row <> config.Cache.Config.ways + 1 then
        invalid_arg "Fmm.of_table: wrong row width";
      if row.(0) <> 0 then invalid_arg "Fmm.of_table: column 0 must be zero";
      for f = 1 to config.Cache.Config.ways do
        if row.(f) < row.(f - 1) then invalid_arg "Fmm.of_table: non-monotone row"
      done)
    table;
  let provenance =
    match provenance with
    | None ->
      Array.init config.Cache.Config.sets (fun _ ->
          Array.make (config.Cache.Config.ways + 1) Rung.Exact)
    | Some p ->
      if
        Array.length p <> config.Cache.Config.sets
        || Array.exists (fun r -> Array.length r <> config.Cache.Config.ways + 1) p
      then invalid_arg "Fmm.of_table: provenance shape mismatch";
      Array.map Array.copy p
  in
  { misses = Array.map Array.copy table; provenance; errors; config; mechanism }

let misses t ~set ~faulty =
  if set < 0 || set >= Array.length t.misses then invalid_arg "Fmm.misses: bad set";
  if faulty < 0 || faulty > t.config.Cache.Config.ways then invalid_arg "Fmm.misses: bad count";
  t.misses.(set).(faulty)

let provenance t ~set ~faulty =
  if set < 0 || set >= Array.length t.provenance then invalid_arg "Fmm.provenance: bad set";
  if faulty < 0 || faulty > t.config.Cache.Config.ways then
    invalid_arg "Fmm.provenance: bad count";
  t.provenance.(set).(faulty)

let worst_rung t =
  Array.fold_left
    (fun acc row -> Array.fold_left Rung.worst acc row)
    Rung.Exact t.provenance

let degraded_cells t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc r -> if Rung.equal r Rung.Exact then acc else acc + 1) acc row)
    0 t.provenance

let errors t = t.errors
let config t = t.config
let mechanism t = t.mechanism
let table t = Array.map Array.copy t.misses

let max_penalty_misses t =
  let last =
    match t.mechanism with
    | Mechanism.Reliable_way -> t.config.Cache.Config.ways - 1
    | _ -> t.config.Cache.Config.ways
  in
  Array.fold_left (fun acc row -> acc + row.(last)) 0 t.misses

let pp fmt t =
  let ways = t.config.Cache.Config.ways in
  Format.fprintf fmt "      ";
  for f = 1 to ways do
    Format.fprintf fmt "%8s" (Printf.sprintf "%d faulty" f)
  done;
  Format.fprintf fmt "@.";
  Array.iteri
    (fun s row ->
      Format.fprintf fmt "set %2d" s;
      for f = 1 to ways do
        Format.fprintf fmt "%8d" row.(f)
      done;
      Format.fprintf fmt "@.")
    t.misses

(* --- canonical serialization --------------------------------------------

   Payload only: geometry and mechanism live in the store key, so the
   decoder receives them as trusted context and revalidates the payload
   against them (shape, zero column, monotone rows, known provenance
   tags) — a decoded map upholds exactly the invariants [of_table]
   enforces on a fresh one. *)

let to_wire t =
  let w = Store.Wire.writer () in
  Store.Wire.put_int w (Array.length t.misses);
  Store.Wire.put_int w t.config.Cache.Config.ways;
  Array.iter (Store.Wire.put_int_array w) t.misses;
  Array.iter
    (fun row -> Store.Wire.put_int_array w (Array.map Rung.to_tag row))
    t.provenance;
  Store.Wire.put_int w (List.length t.errors);
  List.iter
    (fun (set, e) ->
      Store.Wire.put_int w set;
      Store.Wire.put_string w (E.category e);
      Store.Wire.put_string w (E.message e))
    t.errors;
  Store.Wire.contents w

let of_wire ~config ~mechanism data =
  let n_sets = config.Cache.Config.sets and ways = config.Cache.Config.ways in
  Store.Wire.decode data (fun r ->
      if Store.Wire.get_int r <> n_sets then Store.Wire.malformed "Fmm.of_wire: set count";
      if Store.Wire.get_int r <> ways then Store.Wire.malformed "Fmm.of_wire: way count";
      let misses = Array.init n_sets (fun _ -> Store.Wire.get_int_array r) in
      let provenance =
        Array.init n_sets (fun _ ->
            Array.map
              (fun tag ->
                match Rung.of_tag tag with
                | Some rung -> rung
                | None -> Store.Wire.malformed "Fmm.of_wire: unknown provenance tag")
              (Store.Wire.get_int_array r))
      in
      let n_errors = Store.Wire.get_int r in
      if n_errors < 0 || n_errors > n_sets then
        Store.Wire.malformed "Fmm.of_wire: implausible error count";
      let errors =
        List.init n_errors (fun _ ->
            let set = Store.Wire.get_int r in
            let category = Store.Wire.get_string r in
            let message = Store.Wire.get_string r in
            if set < 0 || set >= n_sets then Store.Wire.malformed "Fmm.of_wire: error set";
            match E.of_category category message with
            | Some e -> (set, e)
            | None -> Store.Wire.malformed "Fmm.of_wire: unknown error category")
      in
      match of_table ~config ~mechanism ~provenance ~errors misses with
      | t -> t
      | exception Invalid_argument msg -> Store.Wire.malformed msg)
