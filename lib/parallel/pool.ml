module E = Robust.Pwcet_error

let default_jobs () = Domain.recommended_domain_count ()

(* Test-only fault injection: make the [count]-th (0-based) spawn of a
   map call fail, simulating the runtime's domain limit being hit under
   load.  [None] (the default) never injects. *)
let injected_spawn_failure : int option Atomic.t = Atomic.make None
let inject_spawn_failure_after count = Atomic.set injected_spawn_failure count

let spawn worker =
  (match Atomic.get injected_spawn_failure with
  | Some k when k <= 0 -> failwith "Pool: injected Domain.spawn failure"
  | Some k ->
    Atomic.set injected_spawn_failure (Some (k - 1));
    ()
  | None -> ());
  Domain.spawn worker

(* Spawn [count] worker domains, all-or-error.  [Domain.spawn] itself
   can raise (domain limit reached — routine for a process fanning many
   concurrent requests over pools); spawning bare [Array.init] would
   then unwind with the already-spawned domains never joined: they keep
   racing on the result array after the exception propagates, and the
   domains leak.  Instead, on a spawn failure: push the shared item
   counter past [n] so in-flight workers drain instead of starting new
   items, join every domain that did spawn, then re-raise. *)
let spawn_all ~count ~next ~n worker =
  let spawned = ref [] in
  (try
     for _ = 1 to count do
       spawned := spawn worker :: !spawned
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set next n;
     List.iter Domain.join !spawned;
     Printexc.raise_with_backtrace e bt);
  !spawned

let mapi ~jobs f input =
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then Array.mapi f input
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get error <> None then continue := false
        else
          match f i input.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set error None (Some (e, bt)));
            continue := false
      done
    in
    (* The caller is one of the workers: [jobs] domains run in total. *)
    let spawned = spawn_all ~count:(min (jobs - 1) (n - 1)) ~next ~n worker in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ~jobs f input = mapi ~jobs (fun _ x -> f x) input

(* Crash-isolating variant: every item gets its own outcome, a raising
   item poisons only its own slot, and items picked up after the
   deadline are refused without running. Unlike [mapi], nothing aborts
   the remaining work — independent items survive a crashing sibling.
   [chaos] may kill or stall individual items (occurrence = item index,
   so the same items die at every [jobs]); a killed item is exactly a
   crashed one — a typed [Worker_crash] in its own slot. *)
let attempt ?deadline ?chaos i f =
  match deadline with
  | Some d when Robust.Budget.now () > d ->
    Error (E.Budget_exhausted (Printf.sprintf "Pool.mapi_result: deadline expired before item %d" i))
  | _ -> (
    match
      Chaos.Injector.tap_at chaos ~site:Chaos.Site.pool_node ~occurrence:i;
      f ()
    with
    | v -> Ok v
    | exception e -> Error (E.Worker_crash (Printexc.to_string e)))

let mapi_result ?deadline ?chaos ~jobs f input =
  let item i x = attempt ?deadline ?chaos i (fun () -> f i x) in
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then Array.mapi item input
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false else results.(i) <- Some (item i input.(i))
      done
    in
    let spawned = spawn_all ~count:(min (jobs - 1) (n - 1)) ~next ~n worker in
    worker ();
    List.iter Domain.join spawned;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_result ?deadline ?chaos ~jobs f input =
  mapi_result ?deadline ?chaos ~jobs (fun _ x -> f x) input

(* Balanced pairwise reduction with per-layer fan-out: each layer's
   pairs are independent, so they run through [map]; the combination
   tree itself is fixed (adjacent pairs, odd leftover kept at the end —
   the same shape as a sequential pairwise tree reduction), so the
   result is bit-identical for every [jobs]. *)
let reduce_pairs ~jobs f input =
  let rec loop arr =
    let n = Array.length arr in
    if n = 0 then None
    else if n = 1 then Some arr.(0)
    else begin
      let pairs = Array.init (n / 2) (fun i -> (arr.(2 * i), arr.((2 * i) + 1))) in
      let merged = map ~jobs (fun (a, b) -> f a b) pairs in
      loop (if n land 1 = 0 then merged else Array.append merged [| arr.(n - 1) |])
    end
  in
  loop input

type 'a dag_node = { deps : int array; run : 'a array -> 'a }

(* Deadline-aware work-stealing executor for an irregular DAG of
   heterogeneous tasks.  The fixed chunking of [mapi_result] leaves
   domains idle behind the slowest item when per-item costs vary by
   orders of magnitude (a whole-program fixpoint next to a single
   convolution); here idle workers instead pull from a shared deque of
   ready nodes, so any runnable node keeps every domain busy.

   Node outcomes are a pure function of the node's own [run] and its
   dependencies' outcomes — the deque only decides *when* a node runs,
   never *what* it computes — and results are returned in node-index
   order, so the output is bit-identical for every [jobs] value. *)
let run_dag ?deadline ?chaos ~jobs nodes =
  let n = Array.length nodes in
  Array.iteri
    (fun i node ->
      Array.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg
              (Printf.sprintf "Pool.run_dag: node %d depends on %d (deps must point backwards)" i d))
        node.deps)
    nodes;
  let past_deadline () =
    match deadline with None -> false | Some d -> Robust.Budget.now () > d
  in
  let results : ('a, E.t) result option array = Array.make n None in
  let outcome i =
    match results.(i) with Some r -> r | None -> assert false
  in
  (* A node whose dependency failed propagates the first (lowest dep
     index) failure without running — deterministic given the deps'
     outcomes, hence independent of scheduling. *)
  let compute i =
    let node = nodes.(i) in
    let failed =
      Array.fold_left
        (fun acc d ->
          match acc with
          | Some _ -> acc
          | None -> ( match outcome d with Error e -> Some e | Ok _ -> None))
        None node.deps
    in
    match failed with
    | Some e -> Error e
    | None ->
      if past_deadline () then
        Error
          (E.Budget_exhausted
             (Printf.sprintf "Pool.run_dag: deadline expired before node %d" i))
      else
        let args = Array.map (fun d -> match outcome d with Ok v -> v | Error _ -> assert false) node.deps in
        (* The chaos tap is keyed by node index, not arrival order, so
           the same nodes die (as typed [Worker_crash] outcomes) at
           every [jobs] value — fault schedules stay jobs-invariant. *)
        (match
           Chaos.Injector.tap_at chaos ~site:Chaos.Site.pool_node ~occurrence:i;
           node.run args
         with
        | v -> Ok v
        | exception e -> Error (E.Worker_crash (Printexc.to_string e)))
  in
  if jobs <= 1 || n <= 1 then begin
    (* Dependencies point backwards, so index order is a topological
       order: the sequential path is a plain left-to-right scan. *)
    for i = 0 to n - 1 do
      results.(i) <- Some (compute i)
    done;
    Array.init n outcome
  end
  else begin
    let dependents = Array.make n [] in
    let pending = Array.make n 0 in
    Array.iteri
      (fun i node ->
        pending.(i) <- Array.length node.deps;
        Array.iter (fun d -> dependents.(d) <- i :: dependents.(d)) node.deps)
      nodes;
    let ready = Queue.create () in
    for i = 0 to n - 1 do
      if pending.(i) = 0 then Queue.push i ready
    done;
    let mutex = Mutex.create () in
    let cond = Condition.create () in
    let completed = ref 0 in
    let aborted = ref false in
    (* Workers are spawned on demand, not up front: an idle domain
       blocked on [cond] still has to take part in every stop-the-world
       minor collection, which slows a lone busy domain (a long prepare
       node with nothing else ready) by a fifth or more. [live] counts
       workers running or being spawned (the caller included), [idle]
       those waiting for a ready node. *)
    let live = ref 1 in
    let idle = ref 0 in
    let spawned = ref [] in
    let spawn_error = ref None in
    (* With the mutex held, by a worker about to take a ready node
       itself: how many more workers the ready queue can keep busy. *)
    let wanted () = max 0 (min (jobs - !live) (Queue.length ready - !idle - 1)) in
    (* Worker: steal a ready node, run it, publish its outcome and
       release newly-ready dependents.  Result slots are written under
       the mutex and a dependent is only enqueued afterwards, so its
       worker's later pop (also under the mutex) sees every dependency
       outcome published. *)
    let rec worker () =
      let running = ref true in
      while !running do
        Mutex.lock mutex;
        while Queue.is_empty ready && !completed < n && not !aborted do
          incr idle;
          Condition.wait cond mutex;
          decr idle
        done;
        if !aborted || (Queue.is_empty ready && !completed >= n) then begin
          Mutex.unlock mutex;
          running := false
        end
        else begin
          let i = Queue.pop ready in
          Mutex.unlock mutex;
          let r = compute i in
          Mutex.lock mutex;
          results.(i) <- Some r;
          incr completed;
          List.iter
            (fun j ->
              pending.(j) <- pending.(j) - 1;
              if pending.(j) = 0 then Queue.push j ready)
            dependents.(i);
          let more = wanted () in
          live := !live + more;
          Condition.broadcast cond;
          Mutex.unlock mutex;
          grow more
        end
      done
    (* Same all-or-error spawn discipline as [spawn_all], adapted to
       on-demand spawning: a failed spawn aborts the run (waking any
       waiting workers); the caller joins every domain that did spawn,
       then re-raises. *)
    and grow count =
      for _ = 1 to count do
        match spawn worker with
        | d -> Mutex.protect mutex (fun () -> spawned := d :: !spawned)
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.protect mutex (fun () ->
              if !spawn_error = None then spawn_error := Some (e, bt);
              aborted := true;
              Condition.broadcast cond)
      done
    in
    (* The caller takes one initial ready node; the rest may need help. *)
    let initial = min (jobs - 1) (Queue.length ready - 1) in
    live := 1 + initial;
    grow initial;
    worker ();
    (* A worker may spawn another right before it exits: join until no
       domain is left unjoined. *)
    let rec join_all () =
      let unjoined =
        Mutex.protect mutex (fun () ->
            let l = !spawned in
            spawned := [];
            l)
      in
      match unjoined with
      | [] -> ()
      | l ->
        List.iter Domain.join l;
        join_all ()
    in
    join_all ();
    (match !spawn_error with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ());
    Array.init n outcome
  end
