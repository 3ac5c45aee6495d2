(* The worklist fixpoint engine as it stood before the production one
   moved to an int heap: a [Set] of (priority, node) pairs ordered by
   polymorphic [compare]. [Oracle.Chmc] runs on it, so a fault in the
   production worklist cannot hide behind the oracle it is checked
   against. *)

(* Worklist keyed by a per-node priority (reverse-postorder position for
   CFGs) so nodes are processed in a near-topological order; a set of
   (priority, node) pairs gives O(log n) pops of the minimum. *)
module PQ = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let run_custom ~n ~entry ~succ ~priority ~entry_state ~transfer ~join ~equal ?max_iters () =
  let in_state : 'a option array = Array.make n None in
  in_state.(entry) <- Some entry_state;
  let work = ref (PQ.singleton (priority.(entry), entry)) in
  let pops = ref 0 in
  while not (PQ.is_empty !work) do
    incr pops;
    (match max_iters with
    | Some cap when !pops > cap ->
      Robust.Pwcet_error.raise_error
        (Robust.Pwcet_error.Fixpoint_divergence
           (Printf.sprintf "Fixpoint.run_custom: no fixpoint after %d worklist pops" cap))
    | _ -> ());
    let ((_, u) as el) = PQ.min_elt !work in
    work := PQ.remove el !work;
    match in_state.(u) with
    | None -> ()
    | Some s ->
      let out = transfer u s in
      List.iter
        (fun v ->
          let updated =
            match in_state.(v) with
            | None -> Some out
            | Some old ->
              let joined = join old out in
              if equal joined old then None else Some joined
          in
          match updated with
          | None -> ()
          | Some j ->
            in_state.(v) <- Some j;
            work := PQ.add (priority.(v), v) !work)
        (succ u)
  done;
  in_state

let run ~graph ~entry_state ~transfer ~join ~equal ?max_iters () =
  let n = Cfg.Graph.node_count graph in
  let rpo = Cfg.Graph.reverse_postorder graph in
  let priority = Array.make n max_int in
  Array.iteri (fun i u -> priority.(u) <- i) rpo;
  run_custom ~n ~entry:graph.Cfg.Graph.entry
    ~succ:(Cfg.Graph.successors graph)
    ~priority ~entry_state ~transfer ~join ~equal ?max_iters ()
