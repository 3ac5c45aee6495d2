type scope =
  | Global
  | Loop of int

type classification =
  | Always_hit
  | First_miss of scope
  | Always_miss
  | Not_classified

type t = {
  ctx : Context.t;
  classes : classification array array;  (* per node, per instruction offset *)
  must_age : int array array;  (* same shape: Must age at config.ways, or Slice.absent *)
  may_age : int array array;  (* same shape: May age at config.ways, or Slice.absent *)
  analysed : bool array;  (* per cache set: its ages were computed *)
}

module IntSet = Context.IntSet

(* The classification lattice of one reference, given its presence in
   the stabilised Must/May states at associativity [assoc]. *)
let classify_ref ctx ~set ~assoc ~node ~must_hit ~may_present =
  if must_hit then Always_hit
  else if assoc > 0 && ctx.Context.global_counts.(set) <= assoc then First_miss Global
  else
    match Context.fitting_loop ctx ~node ~set ~assoc with
    | Some header -> First_miss (Loop header)
    | None -> if not may_present then Always_miss else Not_classified

(* The Must/May fixpoints at [assoc] are those at config.ways with every
   age [>= assoc] dropped (see [Slice]), so presence is a threshold. *)
let classify t ~set ~assoc ~node ~offset =
  classify_ref t.ctx ~set ~assoc ~node
    ~must_hit:(t.must_age.(node).(offset) < assoc)
    ~may_present:(t.may_age.(node).(offset) < assoc)

let set_signature ctx ~set ~degraded =
  let refs = ctx.Context.refs.(set) in
  let acc = ref [] in
  Array.iteri
    (fun r u -> acc := degraded ~node:u ~offset:refs.Context.ref_offset.(r) :: !acc)
    refs.Context.ref_node;
  !acc

let check_assoc ~ways ~assoc =
  if assoc > ways then invalid_arg "Chmc: associativity above the configured ways"

let analyze ?ctx ~graph ~loops ~config ?assoc ?only_sets () =
  let ctx = match ctx with Some c -> c | None -> Context.make ~graph ~loops ~config in
  let ways = config.Cache.Config.ways in
  let assoc = match assoc with Some f -> f | None -> fun _ -> ways in
  let blocks = ctx.Context.blocks in
  (* Referenced cache sets, optionally restricted. *)
  let used_sets =
    match only_sets with
    | None -> ctx.Context.used_sets
    | Some keep -> IntSet.inter ctx.Context.used_sets (IntSet.of_list keep)
  in
  let per_ref v = Array.map (fun b -> Array.make (Array.length b) v) blocks in
  let t =
    { ctx; classes = per_ref Not_classified; must_age = per_ref Slice.absent
    ; may_age = per_ref Slice.absent; analysed = Array.make config.Cache.Config.sets false }
  in
  IntSet.iter
    (fun set ->
      let assoc = assoc set in
      check_assoc ~ways ~assoc;
      Slice.ages (Slice.make ctx ~set) ~must:t.must_age ~may:t.may_age;
      t.analysed.(set) <- true;
      let refs = ctx.Context.refs.(set) in
      Array.iteri
        (fun r u ->
          let k = refs.Context.ref_offset.(r) in
          t.classes.(u).(k) <- classify t ~set ~assoc ~node:u ~offset:k)
        refs.Context.ref_node)
    used_sets;
  t

let degraded t ~set ~assoc =
  check_assoc ~ways:t.ctx.Context.config.Cache.Config.ways ~assoc;
  if IntSet.mem set t.ctx.Context.used_sets && not t.analysed.(set) then
    invalid_arg "Chmc.degraded: set outside the analysed sets";
  let sets = t.ctx.Context.sets and reachable = t.ctx.Context.reachable in
  fun ~node ~offset ->
    if reachable.(node) && sets.(node).(offset) = set then classify t ~set ~assoc ~node ~offset
    else Not_classified

let classification t ~node ~offset = t.classes.(node).(offset)
let block t ~node ~offset = t.ctx.Context.blocks.(node).(offset)
let cache_set t ~node ~offset = t.ctx.Context.sets.(node).(offset)

let fold_refs f t init =
  let acc = ref init in
  Array.iteri
    (fun u row ->
      if t.ctx.Context.reachable.(u) then
        Array.iteri (fun k cls -> acc := f ~node:u ~offset:k cls !acc) row)
    t.classes;
  !acc

let pp_classification fmt = function
  | Always_hit -> Format.pp_print_string fmt "AH"
  | First_miss Global -> Format.pp_print_string fmt "FM(global)"
  | First_miss (Loop h) -> Format.fprintf fmt "FM(loop n%d)" h
  | Always_miss -> Format.pp_print_string fmt "AM"
  | Not_classified -> Format.pp_print_string fmt "NC"
