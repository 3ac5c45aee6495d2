type task = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  config : Cache.Config.t;
  ctx : Cache_analysis.Context.t;
  chmc : Cache_analysis.Chmc.t;
  wcet_ff : int;
  wcet_rung : Robust.Rung.t;
  identity : (string * string) list;
}

type estimate = {
  task : task;
  mechanism : Mechanism.t;
  pfail : float;
  pbf : float;
  fmm : Fmm.t;
  penalty : Prob.Dist.t;
}

(* --- artifact-store plumbing --------------------------------------------- *)

(* Bump whenever a change can alter any computed table: every existing
   artifact then keys differently and reads as a miss, not a stale
   hit. *)
let code_version = "pwcet-analysis-1"

let wcet_kind = "WCET" and wcet_version = 1
let fmm_kind = "FMM " and fmm_version = 1
let dist_kind = "DIST" and dist_version = 1

let artifact_kinds =
  [ (wcet_kind, wcet_version); (fmm_kind, fmm_version); (dist_kind, dist_version) ]

let engine_tag = function `Path -> "path" | `Ilp -> "ilp"
let impl_tag = function `Naive -> "naive" | `Sliced -> "sliced"

(* Content digest, not a name: editing a benchmark or source file
   changes the key, so a stale artifact cannot shadow new code. *)
let program_digest program =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Isa.Program.pp program))

let identity_of_digest ~digest ~config =
  [ ("code", code_version);
    ("program", digest);
    ("sets", string_of_int config.Cache.Config.sets);
    ("ways", string_of_int config.Cache.Config.ways);
    ("line", string_of_int config.Cache.Config.line_bytes);
    ("hit", string_of_int config.Cache.Config.hit_latency);
    ("miss", string_of_int config.Cache.Config.miss_latency) ]

let identity_of ~program ~config = identity_of_digest ~digest:(program_digest program) ~config

(* Read-through cache wrapper. Budgeted runs bypass the store in both
   directions: their outcomes depend on wall-clock, so a cached
   degraded table could mask an exact one (and vice versa). A payload
   that decodes but fails semantic validation is quarantined exactly
   like a checksum failure — corruption costs a recompute, never a
   wrong result. *)
let cached ~store ~budget ~parts ~kind ~version ~encode ~decode compute =
  match store with
  | Some st when budget = None -> (
    let key = Store.Artifact.key parts in
    let recompute_and_put () =
      let v = compute () in
      Store.Artifact.put st ~key ~kind ~version (encode v);
      v
    in
    match Store.Artifact.get st ~key ~kind ~version with
    | None -> recompute_and_put ()
    | Some payload -> (
      match decode payload with
      | Ok v -> v
      | Error reason ->
        Store.Artifact.quarantine st ~key ~reason;
        recompute_and_put ()))
  | _ -> compute ()

let prepare ~program ~config ?(engine = `Path) ?(exact = false) ?budget ?store () =
  let graph = Cfg.Graph.build program in
  let loops = Cfg.Loop.detect graph in
  let ctx = Cache_analysis.Context.make ~graph ~loops ~config in
  let chmc = Cache_analysis.Chmc.analyze ~ctx ~graph ~loops ~config () in
  let identity = identity_of ~program ~config in
  let wcet_ff, wcet_rung =
    cached ~store ~budget
      ~parts:
        (identity
        @ [ ("artifact", "wcet"); ("engine", engine_tag engine);
            ("exact", string_of_bool exact) ])
      ~kind:wcet_kind ~version:wcet_version
      ~encode:(fun (wcet, rung) ->
        let w = Store.Wire.writer () in
        Store.Wire.put_int w wcet;
        Store.Wire.put_int w (Robust.Rung.to_tag rung);
        Store.Wire.contents w)
      ~decode:(fun payload ->
        Store.Wire.decode payload (fun r ->
            let wcet = Store.Wire.get_int r in
            let tag = Store.Wire.get_int r in
            if wcet < 0 then Store.Wire.malformed "wcet artifact: negative WCET";
            match Robust.Rung.of_tag tag with
            | Some rung -> (wcet, rung)
            | None -> Store.Wire.malformed "wcet artifact: unknown rung tag"))
      (fun () ->
        match Ipet.Wcet.compute_result ~graph ~loops ~chmc ~config ~engine ~exact ?budget () with
        | Ok (result, rung) -> (result.Ipet.Wcet.wcet, rung)
        | Error e -> Robust.Pwcet_error.raise_error e)
  in
  { graph; loops; config; ctx; chmc; wcet_ff; wcet_rung; identity }

(* The FMM (and everything upstream of it) is pfail-independent: pfail
   only enters through the binomial reweighting of the per-set penalty
   distributions. [compute_fmm] is the expensive pfail-free prefix,
   [estimate_with_fmm] the cheap per-pfail suffix — the grid amortises
   the former across its pfail points, and the store persists both
   across processes. [jobs] stays out of every key: results are
   bit-identical across job counts. *)
let fmm_parts task ~mechanism ~engine ~exact ~impl =
  task.identity
  @ [ ("mechanism", Mechanism.short_name mechanism); ("engine", engine_tag engine);
      ("exact", string_of_bool exact); ("impl", impl_tag impl) ]

let compute_fmm task ~mechanism ~engine ~exact ~jobs ~impl ?budget ?store () =
  cached ~store ~budget
    ~parts:(("artifact", "fmm") :: fmm_parts task ~mechanism ~engine ~exact ~impl)
    ~kind:fmm_kind ~version:fmm_version ~encode:Fmm.to_wire
    ~decode:(Fmm.of_wire ~config:task.config ~mechanism)
    (fun () ->
      Fmm.compute ~graph:task.graph ~loops:task.loops ~config:task.config ~mechanism ~engine
        ~exact ~jobs ~impl ~ctx:task.ctx ?budget ~baseline:task.chmc ())

(* Multi-mechanism FMM with store read-through: cached tables are
   served per mechanism, the misses are computed together through
   {!Fmm.compute_multi} (sharing the mechanism-independent row
   prefixes), and every fresh table is persisted under the exact same
   per-mechanism key [compute_fmm] uses — so grid runs and single runs
   interchangeably warm each other's cache. [fmm_lookup] and [fmm_put]
   are the two store halves, for callers that run the rows themselves. *)
let fmm_key task ~mechanism ~engine ~exact ~impl =
  Store.Artifact.key (("artifact", "fmm") :: fmm_parts task ~mechanism ~engine ~exact ~impl)

let fmm_lookup task ~mechanisms ?(engine = `Path) ?(exact = false) ?(impl = `Sliced) ?budget
    ?store () =
  let lookup mechanism =
    match store with
    | Some st when budget = None -> (
      let key = fmm_key task ~mechanism ~engine ~exact ~impl in
      match Store.Artifact.get st ~key ~kind:fmm_kind ~version:fmm_version with
      | None -> None
      | Some payload -> (
        match Fmm.of_wire ~config:task.config ~mechanism payload with
        | Ok fmm -> Some fmm
        | Error reason ->
          Store.Artifact.quarantine st ~key ~reason;
          None))
    | _ -> None
  in
  let hits, missing =
    List.fold_left
      (fun (hits, missing) m ->
        let seen = List.exists (fun (m', _) -> Mechanism.equal m m') hits in
        if seen || List.exists (Mechanism.equal m) missing then (hits, missing)
        else
          match lookup m with
          | Some fmm -> ((m, fmm) :: hits, missing)
          | None -> (hits, m :: missing))
      ([], []) mechanisms
  in
  (List.rev hits, List.rev missing)

let fmm_put task ?(engine = `Path) ?(exact = false) ?(impl = `Sliced) ?budget ?store computed =
  match store with
  | Some st when budget = None ->
    List.iter
      (fun (mechanism, fmm) ->
        Store.Artifact.put st
          ~key:(fmm_key task ~mechanism ~engine ~exact ~impl)
          ~kind:fmm_kind ~version:fmm_version (Fmm.to_wire fmm))
      computed
  | _ -> ()

let fmm_grid task ~mechanisms ?(engine = `Path) ?(exact = false) ?(jobs = 1) ?(impl = `Sliced)
    ?budget ?store () =
  let hits, missing = fmm_lookup task ~mechanisms ~engine ~exact ~impl ?budget ?store () in
  let computed =
    Fmm.compute_multi ~graph:task.graph ~loops:task.loops ~config:task.config
      ~mechanisms:missing ~engine ~exact ~jobs ~impl ~ctx:task.ctx ?budget ~baseline:task.chmc ()
  in
  fmm_put task ~engine ~exact ~impl ?budget ?store computed;
  let tables = hits @ computed in
  List.map (fun m -> (m, snd (List.find (fun (m', _) -> Mechanism.equal m m') tables))) mechanisms

let estimate_with_fmm task ~fmm ~parts ~mechanism ~jobs ~pfail ?budget ?store () =
  let pbf = Fault.Model.pbf_of_config ~pfail task.config in
  let penalty =
    cached ~store ~budget
      ~parts:
        (("artifact", "penalty")
        :: ("pfail", Int64.to_string (Int64.bits_of_float pfail))
        :: parts)
      ~kind:dist_kind ~version:dist_version ~encode:Prob.Dist.to_wire ~decode:Prob.Dist.of_wire
      (fun () -> Penalty.total_distribution ~jobs ~fmm ~pbf ())
  in
  { task; mechanism; pfail; pbf; fmm; penalty }

let estimate task ~pfail ~mechanism ?(engine = `Path) ?(exact = false) ?(jobs = 1)
    ?(impl = `Sliced) ?budget ?store () =
  let fmm = compute_fmm task ~mechanism ~engine ~exact ~jobs ~impl ?budget ?store () in
  let parts = fmm_parts task ~mechanism ~engine ~exact ~impl in
  estimate_with_fmm task ~fmm ~parts ~mechanism ~jobs ~pfail ?budget ?store ()

let estimate_of_fmm task ~fmm ~pfail ?(engine = `Path) ?(exact = false) ?(jobs = 1)
    ?(impl = `Sliced) ?budget ?store () =
  let mechanism = Fmm.mechanism fmm in
  let parts = fmm_parts task ~mechanism ~engine ~exact ~impl in
  estimate_with_fmm task ~fmm ~parts ~mechanism ~jobs ~pfail ?budget ?store ()

let pwcet e ~target = e.task.wcet_ff + Prob.Dist.quantile e.penalty ~target

let exceedance_curve e =
  List.map (fun (x, p) -> (e.task.wcet_ff + x, p)) (Prob.Dist.exceedance_curve e.penalty)

let fault_free_wcet task = task.wcet_ff
let worst_rung e = Robust.Rung.worst e.task.wcet_rung (Fmm.worst_rung e.fmm)
let degradation_errors e = Fmm.errors e.fmm
