type task = {
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  config : Cache.Config.t;
  ctx : Cache_analysis.Context.t;
  chmc : Cache_analysis.Chmc.t;
  wcet_ff : int;
  wcet_rung : Robust.Rung.t;
  program : Isa.Program.t;
  identity : (string * string) list option;
}

type estimate = {
  task : task;
  mechanism : Mechanism.t;
  pfail : float;
  pbf : float;
  fmm : Fmm.t;
  slot : slot;
}

(* The penalty law an estimate has built so far: a law cut above a bound
   on its quantile at [target], which answers quantiles at [target] and
   above, or the whole law, which answers everything. [build] makes
   either: [Some target] a cut law, [None] the whole one. *)
and law = Cut of float * Prob.Dist.t | Whole of Prob.Dist.t

and slot = {
  build : float option -> Prob.Dist.t;
  law : law option Atomic.t;
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

(* The key components every persisted or deduplicated key shares: the
   store keys here, the grid's journal run key, the daemon's dedup keys
   and the schedulability campaign's identity. A float is keyed by its
   IEEE bit pattern, so keys are exact and independent of printing. *)
let engine_tag = function `Path -> "path" | `Ilp -> "ilp"
let float_key f = Int64.to_string (Int64.bits_of_float f)

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

(* Hashing the program costs about a millisecond per request, and only
   store keys read the result: [prepare] pays it only when given a
   store and no digest, and a store-keyed call on a task prepared
   without either pays it at that call. Recomputed rather than
   memoised, so a task shared by several domains is never written. *)
let identity task =
  match task.identity with
  | Some identity -> identity
  | None -> identity_of ~program:task.program ~config:task.config

(* The stored artifact under [key], decoded. A payload that decodes but
   fails semantic validation is quarantined exactly like a checksum
   failure — corruption costs a recompute, never a wrong result. *)
let read st ~key ~kind ~version ~decode =
  match Store.Artifact.get st ~key ~kind ~version with
  | None -> None
  | Some payload -> (
    match decode payload with
    | Ok v -> Some v
    | Error reason ->
      Store.Artifact.quarantine st ~key ~reason;
      None)

(* Read-through cache wrapper; [parts] is forced only when the store is
   consulted. Budgeted runs bypass the store in both
   directions: their outcomes depend on wall-clock, so a cached
   degraded table could mask an exact one (and vice versa). *)
let cached ~store ~budget ~parts ~kind ~version ~encode ~decode compute =
  match store with
  | Some st when budget = None -> (
    let key = Store.Artifact.key (parts ()) in
    match read st ~key ~kind ~version ~decode with
    | Some v -> v
    | None ->
      let v = compute () in
      Store.Artifact.put st ~key ~kind ~version (encode v);
      v)
  | _ -> compute ()

let prepare ~program ~config ?program_digest ?(engine = `Path) ?(exact = false) ?budget ?store
    () =
  let graph = Cfg.Graph.build program in
  let loops = Cfg.Loop.detect graph in
  let ctx = Cache_analysis.Context.make ~graph ~loops ~config in
  let chmc = Cache_analysis.Chmc.analyze ~ctx ~graph ~loops ~config () in
  let identity =
    match (program_digest, store) with
    | Some digest, _ -> Some (identity_of_digest ~digest ~config)
    | None, Some _ -> Some (identity_of ~program ~config)
    | None, None -> None
  in
  let wcet_ff, wcet_rung =
    cached ~store ~budget
      ~parts:(fun () ->
        Option.get identity
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
  { graph; loops; config; ctx; chmc; wcet_ff; wcet_rung; program; identity }

(* The FMM (and everything upstream of it) is pfail-independent: pfail
   only enters through the binomial reweighting of the per-set penalty
   distributions. [fmm_grid] is the expensive pfail-free prefix,
   [estimate_of_fmm] the cheap per-pfail suffix — the grid amortises
   the former across its pfail points, and the store persists both
   across processes. [jobs] stays out of every key: results are
   bit-identical across job counts. The ("impl", "sliced") part names
   the FMM engine of earlier builds, which offered a second one; it
   stays so that their store entries still hit. *)
let fmm_parts ~identity ~mechanism ~engine ~exact =
  identity
  @ [ ("mechanism", Mechanism.short_name mechanism); ("engine", engine_tag engine);
      ("exact", string_of_bool exact); ("impl", "sliced") ]

(* Multi-mechanism FMM with store read-through: cached tables are
   served per mechanism, the misses are computed together through
   {!Fmm.compute_multi} (sharing the mechanism-independent row
   prefixes), and every fresh table is persisted under its
   per-mechanism key, so one FMM store path serves every caller.
   [fmm_lookup] and [fmm_put] are the two store halves, for callers
   that run the rows themselves. *)
let fmm_key ~identity ~mechanism ~engine ~exact =
  Store.Artifact.key (("artifact", "fmm") :: fmm_parts ~identity ~mechanism ~engine ~exact)

let fmm_lookup task ~mechanisms ?(engine = `Path) ?(exact = false) ?budget ?store () =
  let keyed = match store with Some st when budget = None -> Some (st, identity task) | _ -> None in
  let lookup mechanism =
    Option.bind keyed (fun (st, identity) ->
        read st ~key:(fmm_key ~identity ~mechanism ~engine ~exact) ~kind:fmm_kind
          ~version:fmm_version ~decode:(Fmm.of_wire ~config:task.config ~mechanism))
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

let fmm_put task ?(engine = `Path) ?(exact = false) ?budget ?store computed =
  match store with
  | Some st when budget = None ->
    let identity = identity task in
    List.iter
      (fun (mechanism, fmm) ->
        Store.Artifact.put st
          ~key:(fmm_key ~identity ~mechanism ~engine ~exact)
          ~kind:fmm_kind ~version:fmm_version (Fmm.to_wire fmm))
      computed
  | _ -> ()

let fmm_grid task ~mechanisms ?(engine = `Path) ?(exact = false) ?(jobs = 1) ?budget ?store () =
  let hits, missing = fmm_lookup task ~mechanisms ~engine ~exact ?budget ?store () in
  let computed =
    Fmm.compute_multi ~graph:task.graph ~loops:task.loops ~config:task.config
      ~mechanisms:missing ~engine ~exact ~jobs ~ctx:task.ctx ?budget ~baseline:task.chmc ()
  in
  fmm_put task ~engine ~exact ?budget ?store computed;
  let tables = hits @ computed in
  List.map (fun m -> (m, snd (List.find (fun (m', _) -> Mechanism.equal m m') tables))) mechanisms

(* The penalty law is built on first read, not here: a caller that
   reads quantiles only gets a law cut at its smallest target, one that
   reads the curve the whole law. A cut law keys apart from the whole
   law of the same point, so a whole-law read can never receive a cut
   one. The key's parts are taken now, on the calling domain, so a law
   built later on another domain forces nothing shared; they are taken
   whenever there is a store, so every key [cached] makes carries them. *)
let estimate_of_fmm task ~fmm ~pfail ?(engine = `Path) ?(exact = false) ?(jobs = 1) ?budget
    ?store () =
  let mechanism = Fmm.mechanism fmm in
  let pbf = Fault.Model.pbf_of_config ~pfail task.config in
  let parts =
    match store with
    | Some _ -> fmm_parts ~identity:(identity task) ~mechanism ~engine ~exact
    | None -> []
  in
  let build cut =
    cached ~store ~budget
      ~parts:(fun () ->
        ("artifact", "penalty")
        :: ("pfail", float_key pfail)
        :: (match cut with Some target -> [ ("cut", float_key target) ] | None -> [])
        @ parts)
      ~kind:dist_kind ~version:dist_version ~encode:Prob.Dist.to_wire ~decode:Prob.Dist.of_wire
      (fun () ->
        match cut with
        | Some target -> Penalty.cut_distribution ~jobs ~fmm ~pbf ~target ()
        | None -> Penalty.total_distribution ~jobs ~fmm ~pbf ())
  in
  { task; mechanism; pfail; pbf; fmm; slot = { build; law = Atomic.make None } }

let estimates task ~pfail ~mechanisms ?engine ?exact ?jobs ?budget ?store () =
  List.map
    (fun (mechanism, fmm) ->
      (mechanism, estimate_of_fmm task ~fmm ~pfail ?engine ?exact ?jobs ?budget ?store ()))
    (fmm_grid task ~mechanisms ?engine ?exact ?jobs ?budget ?store ())

let estimate task ~pfail ~mechanism ?engine ?exact ?jobs ?budget ?store () =
  match estimates task ~pfail ~mechanisms:[ mechanism ] ?engine ?exact ?jobs ?budget ?store () with
  | [ (_, e) ] -> e
  | _ -> assert false

(* [want] is the law a read needs: [Some target] for a quantile at
   [target], [None] for the whole law. The slot is filled by
   compare-and-set, never by [Lazy], which raises when two domains force
   it at once: domains that miss together each build the law, which is
   deterministic, so a lost race wastes work and changes nothing. A law
   replaces the slot's only when it answers more. *)
let answers law want =
  match (law, want) with
  | Whole _, _ -> true
  | Cut (cut, _), Some target -> cut <= target
  | Cut _, None -> false

let dist = function Whole d | Cut (_, d) -> d

let law e want =
  match Atomic.get e.slot.law with
  | Some held when answers held want -> dist held
  | _ ->
    let built =
      match want with
      | Some target -> Cut (target, e.slot.build want)
      | None -> Whole (e.slot.build None)
    in
    let rec install () =
      match Atomic.get e.slot.law with
      | Some held when answers held want -> ()
      | held -> if not (Atomic.compare_and_set e.slot.law held (Some built)) then install ()
    in
    install ();
    dist built

let penalty e = law e None

(* A NaN or negative target is refused by [Penalty.cut_distribution] or
   [Dist.quantile], whichever the read reaches; [Float.min] keeps a NaN
   among [targets], so it reaches one of them too. *)
let pwcet e ~target =
  e.task.wcet_ff + Prob.Dist.quantile (law e (Some target)) ~target

(* The first read is at the smallest target, so one cut law answers
   every target. *)
let pwcets e ~targets =
  (match targets with
   | [] -> ()
   | t :: ts -> ignore (law e (Some (List.fold_left Float.min t ts))));
  List.map (fun target -> (target, pwcet e ~target)) targets

let exceedance_curve e =
  List.map (fun (x, p) -> (e.task.wcet_ff + x, p)) (Prob.Dist.exceedance_curve (penalty e))

let fault_free_wcet task = task.wcet_ff
let worst_rung e = Robust.Rung.worst e.task.wcet_rung (Fmm.worst_rung e.fmm)
let degradation_errors e = Fmm.errors e.fmm
