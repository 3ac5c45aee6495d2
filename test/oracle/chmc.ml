(* The whole-CFG CHMC, the reference [Cache_analysis.Chmc] is held to
   classification for classification. Per analysed set it runs a Must
   and a May fixpoint over the whole CFG at that set's own
   associativity, on the [Set]-based worklist of [Oracle.Fixpoint] and
   the [IntMap] states of [Acs], then replays every node's accesses: no
   per-set slice, no flat state, and no sharing of one fixpoint across
   associativities. *)

module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context
module Acs = Cache_analysis.Acs
module IntSet = Context.IntSet

type t = { classes : Chmc.classification array array (* per node, per instruction offset *) }

(* Must and may in-states for the given cache set, then per-reference
   presence flags obtained by replaying each node's accesses. *)
let presence_for_set graph blocks sets ~set ~assoc =
  let transfer update u acs =
    let b = blocks.(u) and ss = sets.(u) in
    let acc = ref acs in
    Array.iteri (fun k blk -> if ss.(k) = set then acc := update !acc blk) b;
    !acc
  in
  let must_in =
    Fixpoint.run ~graph ~entry_state:Acs.empty
      ~transfer:(transfer (Acs.must_update ~assoc))
      ~join:Acs.must_join ~equal:Acs.equal ()
  in
  let may_in =
    Fixpoint.run ~graph ~entry_state:Acs.empty
      ~transfer:(transfer (Acs.may_update ~assoc))
      ~join:Acs.may_join ~equal:Acs.equal ()
  in
  let n = Cfg.Graph.node_count graph in
  let must_hit = Array.make n [||] and may_present = Array.make n [||] in
  for u = 0 to n - 1 do
    let len = Array.length blocks.(u) in
    must_hit.(u) <- Array.make len false;
    may_present.(u) <- Array.make len false;
    (match (must_in.(u), may_in.(u)) with
    | Some must0, Some may0 ->
      let must = ref must0 and may = ref may0 in
      for k = 0 to len - 1 do
        let blk = blocks.(u).(k) in
        if sets.(u).(k) = set then begin
          must_hit.(u).(k) <- Acs.mem !must blk;
          may_present.(u).(k) <- Acs.mem !may blk;
          must := Acs.must_update ~assoc !must blk;
          may := Acs.may_update ~assoc !may blk
        end
      done
    | _ -> () (* unreachable node *))
  done;
  (must_hit, may_present)

let analyze ~graph ~loops ~config ?assoc ?only_sets () =
  let ctx = Context.make ~graph ~loops ~config in
  let ways = config.Cache.Config.ways in
  let assoc = match assoc with Some f -> f | None -> fun _ -> ways in
  let blocks = ctx.Context.blocks and sets = ctx.Context.sets in
  let n = ctx.Context.n in
  (* Referenced cache sets, optionally restricted. *)
  let used_sets =
    match only_sets with
    | None -> ctx.Context.used_sets
    | Some keep -> IntSet.inter ctx.Context.used_sets (IntSet.of_list keep)
  in
  let classes = Array.init n (fun u -> Array.make (Array.length blocks.(u)) Chmc.Not_classified) in
  IntSet.iter
    (fun set ->
      let assoc_s = assoc set in
      let must_hit, may_present = presence_for_set graph blocks sets ~set ~assoc:assoc_s in
      Array.iter
        (fun u ->
          Array.iteri
            (fun k s ->
              if s = set then
                classes.(u).(k) <-
                  Chmc.classify_ref ctx ~set ~assoc:assoc_s ~node:u ~must_hit:must_hit.(u).(k)
                    ~may_present:may_present.(u).(k))
            sets.(u))
        ctx.Context.touching.(set))
    used_sets;
  { classes }

let classification t ~node ~offset = t.classes.(node).(offset)
