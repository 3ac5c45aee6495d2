(* Worklist keyed by a per-node priority (reverse-postorder position for
   CFGs) so nodes are processed in a near-topological order: a binary
   min-heap of node ids ordered by (priority, node id), with a queued
   flag per node so that a node waits in the heap at most once. Pops
   come out in the order a set of (priority, node) pairs would give. *)
let run_custom ~n ~entry ~succ ~priority ~entry_state ~transfer ~join ~equal ?max_iters () =
  let in_state : 'a option array = Array.make n None in
  in_state.(entry) <- Some entry_state;
  let heap = Array.make n 0 and size = ref 0 in
  let queued = Array.make n false in
  let before u v =
    let pu = priority.(u) and pv = priority.(v) in
    pu < pv || (pu = pv && u < v)
  in
  let push u =
    if not queued.(u) then begin
      queued.(u) <- true;
      let i = ref !size in
      incr size;
      while !i > 0 && before u heap.((!i - 1) / 2) do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- u
    end
  in
  let pop () =
    let top = heap.(0) in
    queued.(top) <- false;
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
        if before heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  push entry;
  let pops = ref 0 in
  while !size > 0 do
    incr pops;
    (match max_iters with
    | Some cap when !pops > cap ->
      Robust.Pwcet_error.raise_error
        (Robust.Pwcet_error.Fixpoint_divergence
           (Printf.sprintf "Fixpoint.run_custom: no fixpoint after %d worklist pops" cap))
    | _ -> ());
    let u = pop () in
    match in_state.(u) with
    | None -> ()
    | Some s ->
      let out = transfer u s in
      List.iter
        (fun v ->
          match in_state.(v) with
          | None ->
            in_state.(v) <- Some out;
            push v
          | Some old ->
            let joined = join old out in
            if not (equal joined old) then begin
              in_state.(v) <- Some joined;
              push v
            end)
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
