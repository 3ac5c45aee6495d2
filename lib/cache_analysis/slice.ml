let absent = max_int

(* Level [t] of a state holds the blocks whose age is [<= t]; why the
   joins are AND/OR and the ages threshold reads: slice.mli, DESIGN.md §5. *)
module State = struct
  type shape = { levels : int; words : int }
  type t = int array  (* level t, word w at index t * words + w *)

  let bits = Sys.int_size
  let shape ~ways ~blocks = { levels = max ways 0; words = max 1 ((blocks + bits - 1) / bits) }
  let empty sh = Array.make (sh.levels * sh.words) 0

  let age sh (st : t) b =
    let i = b / bits and mask = 1 lsl (b mod bits) in
    let rec first t =
      if t >= sh.levels then absent
      else if st.((t * sh.words) + i) land mask <> 0 then t
      else first (t + 1)
    in
    first 0

  (* Access block [b] in place, aging by one every block of age [< lim]:
     level [t < lim] becomes level [t - 1] plus [b] (level 0 becomes
     [{b}]), the levels from [lim] up keep their blocks. A block pushed
     past the top level drops out. *)
  let shift sh (st : t) b ~lim =
    let nw = sh.words in
    let i = b / bits and mask = 1 lsl (b mod bits) in
    for t = lim - 1 downto 1 do
      let dst = t * nw in
      for w = 0 to nw - 1 do
        st.(dst + w) <- st.(dst - nw + w)
      done;
      st.(dst + i) <- st.(dst + i) lor mask
    done;
    if lim > 0 then begin
      Array.fill st 0 nw 0;
      st.(i) <- mask
    end

  (* With [o] the old age of [b] ([absent] ages every block): Must ages
     the blocks strictly younger than [o] and keeps the rest; May ages
     those no older than [o], ties included. *)
  let must_access sh st b = shift sh st b ~lim:(min (age sh st b) sh.levels)

  let may_access sh st b =
    let o = age sh st b in
    shift sh st b ~lim:(if o >= sh.levels then sh.levels else o + 1)

  let must_update sh st b =
    let st = Array.copy st in
    must_access sh st b;
    st

  let may_update sh st b =
    let st = Array.copy st in
    may_access sh st b;
    st

  (* The joins return [a] itself when [b] adds nothing: no allocation,
     and [equal] then answers at once. *)
  let must_join (a : t) (b : t) =
    let n = Array.length a in
    let rec same i = i >= n || (a.(i) land b.(i) = a.(i) && same (i + 1)) in
    if same 0 then a else Array.init n (fun i -> a.(i) land b.(i))

  let may_join (a : t) (b : t) =
    let n = Array.length a in
    let rec same i = i >= n || (a.(i) lor b.(i) = a.(i) && same (i + 1)) in
    if same 0 then a else Array.init n (fun i -> a.(i) lor b.(i))

  let equal (a : t) (b : t) =
    a == b
    ||
    let n = Array.length a in
    let rec same i = i >= n || (a.(i) = b.(i) && same (i + 1)) in
    n = Array.length b && same 0
end

type t = {
  ctx : Context.t;
  set : int;
  nodes : int array;  (* slice position -> CFG node id, RPO-position order *)
  succ : int list array;  (* condensed edges between slice positions *)
  priority : int array;  (* identity: nodes are already in RPO order *)
  entry_pos : int;
  first : int array;  (* slice position -> its first index into the set's refs *)
  last : int array;  (* slice position -> one past its last index (= first if none) *)
  local : int array;  (* set's ref index -> slice-local block id *)
  shape : State.shape;
}

let make (ctx : Context.t) ~set =
  let graph = ctx.Context.graph in
  let entry = graph.Cfg.Graph.entry in
  let touching = ctx.Context.touching.(set) in
  let node_list =
    if Array.exists (fun u -> u = entry) touching then Array.to_list touching
    else entry :: Array.to_list touching
  in
  let nodes =
    List.sort (fun a b -> compare ctx.Context.rpo_pos.(a) ctx.Context.rpo_pos.(b)) node_list
    |> Array.of_list
  in
  let m = Array.length nodes in
  let pos_of = Array.make ctx.Context.n (-1) in
  Array.iteri (fun i u -> pos_of.(u) <- i) nodes;
  let touches_node = Array.make ctx.Context.n false in
  Array.iter (fun u -> touches_node.(u) <- true) touching;
  (* Condensed edge a -> b iff the CFG has a path a -> ... -> b whose
     interior nodes all miss the set. Interior transfers are the
     identity, so a fixpoint over these edges stabilises to exactly the
     in-states the full-CFG fixpoint computes at the touching nodes
     (join is associative, commutative and idempotent, so deferring the
     interior merges changes nothing). One DFS through the non-touching
     region per slice node, stamped to avoid clearing visit marks. *)
  let succ = Array.make m [] in
  let visited = Array.make ctx.Context.n 0 in
  let target_mark = Array.make m 0 in
  let stamp = ref 0 in
  Array.iteri
    (fun i u ->
      incr stamp;
      let s = !stamp in
      let targets = ref [] in
      let work = ref (Cfg.Graph.successors graph u) in
      let continue_ = ref true in
      while !continue_ do
        match !work with
        | [] -> continue_ := false
        | v :: rest ->
          work := rest;
          if touches_node.(v) then begin
            let j = pos_of.(v) in
            if target_mark.(j) <> s then begin
              target_mark.(j) <- s;
              targets := j :: !targets
            end
          end
          else if visited.(v) <> s then begin
            visited.(v) <- s;
            work := List.rev_append (Cfg.Graph.successors graph v) !work
          end
      done;
      succ.(i) <- !targets)
    nodes;
  (* The set's references, in node order, each with its slice-local
     block id, and the range of them every slice position owns. *)
  let refs = ctx.Context.refs.(set) in
  let n_refs = Array.length refs.Context.ref_node in
  let ids = Hashtbl.create 64 in
  let local =
    Array.init n_refs (fun r ->
        let blk = ctx.Context.blocks.(refs.Context.ref_node.(r)).(refs.Context.ref_offset.(r)) in
        match Hashtbl.find_opt ids blk with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids blk id;
          id)
  in
  let first = Array.make m 0 and last = Array.make m 0 in
  Array.iteri
    (fun r u ->
      let i = pos_of.(u) in
      if first.(i) = last.(i) then first.(i) <- r;
      last.(i) <- r + 1)
    refs.Context.ref_node;
  { ctx; set; nodes; succ
  ; priority = Array.init m Fun.id
  ; entry_pos = pos_of.(entry)
  ; first; last; local
  ; shape = State.shape ~ways:ctx.Context.config.Cache.Config.ways ~blocks:(Hashtbl.length ids)
  }

let ages (sl : t) ~must ~may =
  let refs = sl.ctx.Context.refs.(sl.set) in
  let sh = sl.shape in
  let m = Array.length sl.nodes in
  (* A touching node's transfer copies its in-state once and applies
     its accesses in place. *)
  let transfer access i st =
    if sl.first.(i) = sl.last.(i) then st
    else begin
      let st = Array.copy st in
      for r = sl.first.(i) to sl.last.(i) - 1 do
        access sh st sl.local.(r)
      done;
      st
    end
  in
  let run access join =
    Fixpoint.run_custom ~n:m ~entry:sl.entry_pos
      ~succ:(fun i -> sl.succ.(i))
      ~priority:sl.priority ~entry_state:(State.empty sh) ~transfer:(transfer access) ~join
      ~equal:State.equal ()
  in
  (* Replay each touching node's accesses from its in-state: a
     reference's age is the one its block has just before the fetch. *)
  let replay in_states access out =
    for i = 0 to m - 1 do
      let st = Option.map Array.copy in_states.(i) in
      for r = sl.first.(i) to sl.last.(i) - 1 do
        let u = refs.Context.ref_node.(r) and k = refs.Context.ref_offset.(r) in
        match st with
        | Some st ->
          out.(u).(k) <- State.age sh st sl.local.(r);
          access sh st sl.local.(r)
        | None -> out.(u).(k) <- absent
      done
    done
  in
  replay (run State.must_access State.must_join) State.must_access must;
  replay (run State.may_access State.may_join) State.may_access may
