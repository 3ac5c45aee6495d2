module Mechanism = Pwcet.Mechanism
module Estimator = Pwcet.Estimator
module Fmm = Pwcet.Fmm
module Rung = Robust.Rung
module E = Robust.Pwcet_error

type spec = {
  benchmarks : (string * Isa.Program.t) list;
  configs : Cache.Config.t list;
  mechanisms : Mechanism.t list;
  pfail_grid : float list;
  targets : float list;
  engine : [ `Path | `Ilp ];
  exact : bool;
  impl : [ `Sliced ];
}

type point = {
  bench : string;
  config : Cache.Config.t;
  mechanism : Mechanism.t;
  pfail : float;
}

type cell = {
  point : point;
  wcet_ff : int;
  pbf : float;
  pwcets : (float * int) list;
  rung : Rung.t;
  degraded : int;
}

let point_key p =
  Printf.sprintf "%s/%dx%dx%d+%d+%d/%s/%s" p.bench p.config.Cache.Config.sets
    p.config.Cache.Config.ways p.config.Cache.Config.line_bytes
    p.config.Cache.Config.hit_latency p.config.Cache.Config.miss_latency
    (Mechanism.short_name p.mechanism) (Estimator.float_key p.pfail)

(* Canonical cell order: benchmark x geometry x mechanism x pfail, each
   axis in spec order.  Every consumer — the DAG result merge, the
   digest, the journal replay, the JSON matrix — walks cells in this
   order, which is what makes outputs comparable byte-for-byte across
   runs, processes and job counts. *)
let points spec =
  List.concat_map
    (fun (bench, _) ->
      List.concat_map
        (fun config ->
          List.concat_map
            (fun mechanism ->
              List.map (fun pfail -> { bench; config; mechanism; pfail }) spec.pfail_grid)
            spec.mechanisms)
        spec.configs)
    spec.benchmarks

(* Each program's digest by benchmark name, hashed at most once and only
   when first asked for. *)
let program_digests spec =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, program) ->
      Hashtbl.replace table name (lazy (Estimator.program_digest program)))
    spec.benchmarks;
  fun name -> Lazy.force (Hashtbl.find table name)

(* Labelled content identity of the whole grid — program digests,
   geometries, axes and engine flags — for resume-journal run keys and
   daemon request dedup.  Reuses the per-(program, geometry) identity
   the estimator derives, so anything that would change a cell's value
   changes the grid's key; each program is hashed once, not once per
   geometry, and not at all when the caller already holds its digest.
   The ("impl", "sliced") part names the FMM engine of earlier builds,
   which offered a second one; it stays so that their resume journals
   still match. *)
let identity ?digest spec =
  let digest = match digest with Some d -> d | None -> program_digests spec in
  List.concat_map
    (fun (name, _) ->
      let digest = digest name in
      List.concat_map
        (fun config -> ("bench", name) :: Estimator.identity_of_digest ~digest ~config)
        spec.configs)
    spec.benchmarks
  @ [ ("mechanisms", String.concat "," (List.map Mechanism.short_name spec.mechanisms));
      ("pfail-grid", String.concat "," (List.map Estimator.float_key spec.pfail_grid));
      ("targets", String.concat "," (List.map Estimator.float_key spec.targets));
      ("engine", Estimator.engine_tag spec.engine);
      ("exact", string_of_bool spec.exact);
      ("impl", "sliced") ]

(* --- canonical cell serialization (journal payloads, digests) ----------- *)

let cell_to_wire c =
  let w = Store.Wire.writer () in
  Store.Wire.put_string w c.point.bench;
  Store.Wire.put_int w c.point.config.Cache.Config.sets;
  Store.Wire.put_int w c.point.config.Cache.Config.ways;
  Store.Wire.put_int w c.point.config.Cache.Config.line_bytes;
  Store.Wire.put_int w c.point.config.Cache.Config.hit_latency;
  Store.Wire.put_int w c.point.config.Cache.Config.miss_latency;
  Store.Wire.put_string w (Mechanism.short_name c.point.mechanism);
  Store.Wire.put_float w c.point.pfail;
  Store.Wire.put_int w c.wcet_ff;
  Store.Wire.put_float w c.pbf;
  Store.Wire.put_int w (List.length c.pwcets);
  List.iter
    (fun (target, value) ->
      Store.Wire.put_float w target;
      Store.Wire.put_int w value)
    c.pwcets;
  Store.Wire.put_int w (Rung.to_tag c.rung);
  Store.Wire.put_int w c.degraded;
  Store.Wire.contents w

let cell_of_wire data =
  Store.Wire.decode data (fun r ->
      let bench = Store.Wire.get_string r in
      let sets = Store.Wire.get_int r in
      let ways = Store.Wire.get_int r in
      let line_bytes = Store.Wire.get_int r in
      let hit_latency = Store.Wire.get_int r in
      let miss_latency = Store.Wire.get_int r in
      let config =
        match Cache.Config.make ~sets ~ways ~line_bytes ~hit_latency ~miss_latency () with
        | c -> c
        | exception Invalid_argument msg -> Store.Wire.malformed msg
      in
      let mechanism =
        match Mechanism.of_string (Store.Wire.get_string r) with
        | Some m -> m
        | None -> Store.Wire.malformed "Grid.cell_of_wire: unknown mechanism"
      in
      let pfail = Store.Wire.get_float r in
      let wcet_ff = Store.Wire.get_int r in
      if wcet_ff < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative WCET";
      let pbf = Store.Wire.get_float r in
      let n = Store.Wire.get_int r in
      if n < 0 || n > 1024 then Store.Wire.malformed "Grid.cell_of_wire: implausible target count";
      let pwcets =
        List.init n (fun _ ->
            let target = Store.Wire.get_float r in
            let value = Store.Wire.get_int r in
            if value < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative pWCET";
            (target, value))
      in
      let rung =
        match Rung.of_tag (Store.Wire.get_int r) with
        | Some rung -> rung
        | None -> Store.Wire.malformed "Grid.cell_of_wire: unknown rung tag"
      in
      let degraded = Store.Wire.get_int r in
      if degraded < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative degraded count";
      { point = { bench; config; mechanism; pfail }; wcet_ff; pbf; pwcets; rung; degraded })

let digest results =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (point, r) ->
      match r with
      | Ok cell -> Buffer.add_string buf (cell_to_wire cell)
      | Error e ->
        Buffer.add_string buf (point_key point);
        Buffer.add_string buf (E.category e);
        Buffer.add_string buf (E.message e))
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the one-pass evaluator --------------------------------------------- *)

(* DAG node values.  Each (benchmark, geometry) panel contributes:
   - one prepare node: CFG, context, CHMC, fault-free WCET (shared by
     every mechanism and pfail at that geometry), the FMM store lookup,
     and the shared inputs of the missing mechanisms' maps;
   - one row node per cache set: that set's FMM row for every missing
     mechanism (the f < W row prefixes are mechanism-independent, so all
     mechanisms' rows cost roughly one).  The set count is known before
     the context is built, the used sets only after, so a node whose
     position is past the used sets (or whose panel is fully cached)
     does nothing;
   - one assemble node: the maps, and the store put;
   - one cheap node per (mechanism, pfail) cell: binomial reweight,
     convolution, quantiles.
   The DAG is the only scheduler: every stage runs at jobs:1 inside its
   node, so nested domain fan-outs never oversubscribe. *)
type value =
  | Prepared of Estimator.task * (Mechanism.t * Fmm.t) list * Fmm.multi option
  | Row of (Fmm.rows, E.t) result option
  | Panel of Estimator.task * (Mechanism.t * Fmm.t) list
  | Cell of cell

let run ?(jobs = 1) ?budget ?store ?digest ?skip ?on_cell ?chaos spec =
  let skip = match skip with Some f -> f | None -> fun _ -> None in
  let deadline = match budget with Some b -> b.Robust.Budget.deadline | None -> None in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let push deps run =
    let idx = !n_nodes in
    nodes := { Parallel.Pool.deps; run } :: !nodes;
    incr n_nodes;
    idx
  in
  let panel_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let panel_key bench config =
    Printf.sprintf "%s/%dx%dx%d+%d+%d" bench config.Cache.Config.sets config.Cache.Config.ways
      config.Cache.Config.line_bytes config.Cache.Config.hit_latency
      config.Cache.Config.miss_latency
  in
  (* Store keys carry the program digest. It is read while the DAG is
     built, on this domain, so each program is hashed at most once per
     run rather than once per geometry inside [prepare]. *)
  let programs = Hashtbl.create 16 in
  List.iter (fun (name, program) -> Hashtbl.replace programs name program) spec.benchmarks;
  let digest = match digest with Some d -> d | None -> program_digests spec in
  let engine = spec.engine and exact = spec.exact in
  (* A panel's nodes are created lazily, only when some cell of that
     panel actually needs computing — a fully replayed panel costs
     nothing.  Returns the assemble node. *)
  let panel_node bench config =
    let key = panel_key bench config in
    match Hashtbl.find_opt panel_index key with
    | Some idx -> idx
    | None ->
      let program = Hashtbl.find programs bench in
      let program_digest = Option.map (fun _ -> digest bench) store in
      let prepared =
        push [||] (fun _ ->
            let task =
              Estimator.prepare ~program ~config ?program_digest ~engine ~exact ?budget ?store ()
            in
            let hits, missing =
              Estimator.fmm_lookup task ~mechanisms:spec.mechanisms ~engine ~exact ?budget ?store ()
            in
            let multi =
              match missing with
              | [] -> None
              | _ ->
                Some
                  (Fmm.setup_multi ~graph:task.Estimator.graph ~loops:task.Estimator.loops
                     ~config ~mechanisms:missing ~engine ~exact ~ctx:task.Estimator.ctx
                     ?budget ~baseline:task.Estimator.chmc ())
            in
            Prepared (task, hits, multi))
      in
      let rows =
        Array.init config.Cache.Config.sets (fun i ->
            push [| prepared |] (fun deps ->
                match deps.(0) with
                | Prepared (_, _, Some multi) when i < Array.length (Fmm.used_sets multi) ->
                  (* Refused past the deadline or crashed: [assemble_multi]
                     falls back to the structural row, as for a map. *)
                  Row
                    (Some
                       (Parallel.Pool.attempt ?deadline i (fun () ->
                            Fmm.compute_rows_multi multi (Fmm.used_sets multi).(i))))
                | _ -> Row None))
      in
      let idx =
        push (Array.append [| prepared |] rows) (fun deps ->
            match deps.(0) with
            | Prepared (task, hits, multi) ->
              let computed =
                match multi with
                | None -> []
                | Some multi ->
                  let outcomes =
                    Array.init
                      (Array.length (Fmm.used_sets multi))
                      (fun i ->
                        match deps.(i + 1) with Row (Some r) -> r | _ -> assert false)
                  in
                  Fmm.assemble_multi multi outcomes
              in
              Estimator.fmm_put task ~engine ~exact ?budget ?store computed;
              Panel (task, hits @ computed)
            | _ -> assert false)
      in
      Hashtbl.replace panel_index key idx;
      idx
  in
  let all_points = points spec in
  let slots =
    List.map
      (fun point ->
        match skip point with
        | Some cell -> `Replayed cell
        | None ->
          let panel = panel_node point.bench point.config in
          `Computed
            (push [| panel |] (fun deps ->
                 let task, fmms =
                   match deps.(0) with Panel (t, f) -> (t, f) | _ -> assert false
                 in
                 let fmm =
                   snd (List.find (fun (m, _) -> Mechanism.equal m point.mechanism) fmms)
                 in
                 let e =
                   Estimator.estimate_of_fmm task ~fmm ~pfail:point.pfail ~engine ~exact ~jobs:1
                     ?budget ?store ()
                 in
                 (* One read of every target: a single law, cut at the
                    smallest one. *)
                 let pwcets = Estimator.pwcets e ~targets:spec.targets in
                 let cell =
                   {
                     point;
                     wcet_ff = Estimator.fault_free_wcet task;
                     pbf = e.Estimator.pbf;
                     pwcets;
                     rung = Estimator.worst_rung e;
                     degraded = Fmm.degraded_cells fmm;
                   }
                 in
                 (match on_cell with Some f -> f cell e | None -> ());
                 Cell cell)))
      all_points
  in
  let node_array = Array.of_list (List.rev !nodes) in
  (* The budget is threaded into every stage (prepare, FMM rows,
     penalty), each of which degrades internally and completes — a
     starved grid yields looser cells, not missing ones.  [run_dag]'s
     own deadline refusal is deliberately not armed here for that
     reason; row nodes apply the per-row refusal themselves. *)
  let outcomes = Parallel.Pool.run_dag ?chaos ~jobs node_array in
  List.map2
    (fun point slot ->
      match slot with
      | `Replayed cell -> (point, Ok cell)
      | `Computed idx -> (
        match outcomes.(idx) with
        | Ok (Cell cell) -> (point, Ok cell)
        | Ok _ -> assert false
        | Error e -> (point, Error e)))
    all_points slots

let fig4_rows spec cells =
  List.filter_map
    (fun (name, _) ->
      let cell mech =
        List.find_opt
          (fun c -> c.point.bench = name && Mechanism.equal c.point.mechanism mech)
          cells
      in
      match List.map cell Mechanism.all with
      | [ Some none; Some srb; Some rw ] ->
        let pwcet c = snd (List.hd c.pwcets) in
        Some
          ( { Pwcet.Report_data.name; wcet_ff = none.wcet_ff; pwcet_none = pwcet none;
              pwcet_srb = pwcet srb; pwcet_rw = pwcet rw },
            List.fold_left Rung.worst none.rung [ srb.rung; rw.rung ] )
      | _ -> None)
    spec.benchmarks
