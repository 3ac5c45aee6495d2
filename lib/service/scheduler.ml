type config = {
  domains : int;
  queue_max : int;
  store : Store.Artifact.t option;
  task_cache_max : int;
  result_cache_max : int;
  chaos : Chaos.Injector.t option;
}

let default_config ?store ?chaos () =
  { domains = 2; queue_max = 64; store; task_cache_max = 32; result_cache_max = 256; chaos }

(* A write-once cell: the leader's computation fills it, every waiter
   (the leader's own connection thread included) blocks on it. *)
type 'a ivar = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

let ivar () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill iv x =
  Mutex.lock iv.m;
  iv.v <- Some x;
  Condition.broadcast iv.c;
  Mutex.unlock iv.m

let wait iv =
  Mutex.lock iv.m;
  while Option.is_none iv.v do
    Condition.wait iv.c iv.m
  done;
  let x = Option.get iv.v in
  Mutex.unlock iv.m;
  x

(* A bounded memo, FIFO-evicted; a bound of 0 disables it. *)
module Memo = struct
  type 'a t = { table : (string, 'a) Hashtbl.t; order : string Queue.t; max : int }

  let create max = { table = Hashtbl.create 16; order = Queue.create (); max }
  let find m key = Hashtbl.find_opt m.table key

  let add m key v =
    if m.max > 0 then begin
      Hashtbl.replace m.table key v;
      Queue.push key m.order;
      while Hashtbl.length m.table > m.max && not (Queue.is_empty m.order) do
        Hashtbl.remove m.table (Queue.pop m.order)
      done
    end
end

(* Single flight over a memo: concurrent claims of one key elect one
   leader, and every joiner shares the leader's outcome through its
   ivar. The owner serialises [claim] and [retire] under its lock. *)
module Single_flight = struct
  type 'a t = { memo : 'a Memo.t; flights : (string, ('a, string) result ivar) Hashtbl.t }

  let create memo = { memo; flights = Hashtbl.create 16 }

  let claim sf key =
    match Memo.find sf.memo key with
    | Some v -> `Cached v
    | None -> (
      match Hashtbl.find_opt sf.flights key with
      | Some iv -> `Join iv
      | None ->
        let iv = ivar () in
        Hashtbl.add sf.flights key iv;
        `Lead iv)

  (* The leader is done: the flight ends and a success is memoised. *)
  let retire sf key outcome =
    Hashtbl.remove sf.flights key;
    match outcome with Ok v -> Memo.add sf.memo key v | Error _ -> ()
end

type sched_summary = { analyzed : int; passes : int; degraded : int; digest : string }
type grid_summary = { cells : int; failed : int; grid_digest : string }

type t = {
  pool : Parallel.Workers.t;
  store : Store.Artifact.t option;
  queue_max : int;
  started : float;  (* Budget.now scale *)
  lock : Mutex.t;  (* guards everything below *)
  programs : (string, (Isa.Program.t * string, string) result) Hashtbl.t;
      (* registry name -> compiled program and its content digest, or
         the compile error; bounded by the registry *)
  estimates : Pwcet.Estimator.estimate Single_flight.t;
  bench_estimates : Pwcet.Estimator.estimate Single_flight.t;
      (* per-benchmark estimates led inline by sched campaign jobs —
         kept apart from [estimates], whose leaders are pool jobs a
         worker-resident waiter could deadlock against; both share one
         result memo *)
  tasks : Pwcet.Estimator.task Single_flight.t;
  scheds : sched_summary Single_flight.t;
  grids : grid_summary Single_flight.t;
  mutable requests : int;
  mutable computations : int;
  mutable deduped : int;
  mutable overloaded : int;
  mutable errors : int;
  mutable slow_clients : int;
  mutable rejected_conns : int;
}

type setting = Queue_max | Task_cache | Result_cache

let check_setting setting v =
  let least, range =
    match setting with
    | Queue_max | Result_cache -> (0, "must be non-negative")
    | Task_cache -> (1, "must be at least 1")
  in
  if v >= least then Ok v else Error (Printf.sprintf "%s, got %d" range v)

let create (config : config) =
  List.iter
    (fun (setting, field, v) ->
      match check_setting setting v with
      | Ok _ -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Scheduler.create: %s %s" field msg))
    [ (Queue_max, "queue_max", config.queue_max);
      (Task_cache, "task_cache_max", config.task_cache_max);
      (Result_cache, "result_cache_max", config.result_cache_max) ];
  let results = Memo.create config.result_cache_max in
  { pool =
      Parallel.Workers.create ?chaos:config.chaos ~domains:config.domains
        ~queue_max:config.queue_max ();
    store = config.store;
    queue_max = config.queue_max;
    started = Robust.Budget.now ();
    lock = Mutex.create ();
    programs = Hashtbl.create 32;
    estimates = Single_flight.create results;
    bench_estimates = Single_flight.create results;
    tasks = Single_flight.create (Memo.create config.task_cache_max);
    scheds = Single_flight.create (Memo.create config.result_cache_max);
    grids = Single_flight.create (Memo.create config.result_cache_max);
    requests = 0;
    computations = 0;
    deduped = 0;
    overloaded = 0;
    errors = 0;
    slow_clients = 0;
    rejected_conns = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

exception Compute_error of string

let guarded f =
  try Ok (f ()) with
  | Compute_error msg -> Error msg
  | e -> Error (Printexc.to_string e)

let value = function Ok v -> v | Error msg -> raise (Compute_error msg)

let error_reply t msg =
  locked t (fun () -> t.errors <- t.errors + 1);
  Protocol.Error_reply msg

let shed t =
  let queued = Parallel.Workers.queued t.pool in
  locked t (fun () -> t.overloaded <- t.overloaded + 1);
  Protocol.Overloaded { queued; queue_max = t.queue_max }

(* Each flight states what it counts: [count_join] makes a join count
   as [deduped], [count_compute] makes the leader's success count as a
   computation. *)
let claim t ~count_join sf key =
  locked t (fun () ->
      let c = Single_flight.claim sf key in
      (match c with `Join _ when count_join -> t.deduped <- t.deduped + 1 | _ -> ());
      c)

(* The leader's epilogue: retire the flight, then wake every joiner. *)
let release t ~count_compute sf key iv outcome =
  locked t (fun () ->
      Single_flight.retire sf key outcome;
      if count_compute && Result.is_ok outcome then t.computations <- t.computations + 1);
  fill iv outcome

(* Join or lead [key], the leader running [f] on the calling thread. *)
let single_flight_inline t ~count_join ~count_compute sf key f =
  match claim t ~count_join sf key with
  | `Cached v -> v
  | `Join iv -> value (wait iv)
  | `Lead iv ->
    let outcome = guarded f in
    release t ~count_compute sf key iv outcome;
    value outcome

(* Join or lead [key], the leader running [f] as a pool job.
   [respond ~computed outcome] builds the reply. *)
let single_flight_pooled t ~count_join ~count_compute sf key f ~respond =
  match claim t ~count_join sf key with
  | `Cached v -> respond ~computed:false (Ok v)
  | `Join iv -> respond ~computed:false (wait iv)
  | `Lead iv ->
    if Parallel.Workers.submit t.pool (fun () -> release t ~count_compute sf key iv (guarded f))
    then respond ~computed:true (wait iv)
    else begin
      (* Nobody else can be waiting: joiners found the entry only
         while it existed, and its removal under the lock precedes
         any chance of a response — fill the ivar anyway so a racy
         joiner that slipped in between claim and shed still
         unblocks. *)
      release t ~count_compute sf key iv (Error "request shed by admission control");
      shed t
    end

let unknown_benchmark bench =
  Printf.sprintf "unknown benchmark %S; the registry lists the valid names" bench

(* Registry programs cannot change inside a process, so each is
   compiled and hashed on first use and never again. The lock is not
   held while compiling: two racing first requests may both compute
   the same deterministic value, and the second [replace] is harmless.
   Unknown names never enter the table. *)
let compiled t bench =
  match locked t (fun () -> Hashtbl.find_opt t.programs bench) with
  | Some c -> c
  | None -> (
    match Benchmarks.Registry.find bench with
    | None -> Error (unknown_benchmark bench)
    | Some entry ->
      let c =
        match (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program with
        | program -> Ok (program, Pwcet.Estimator.program_digest program)
        | exception (Minic.Typecheck.Error msg | Minic.Compile.Error msg) -> Error msg
      in
      locked t (fun () -> Hashtbl.replace t.programs bench c);
      c)

let task_key ~identity ~engine ~exact =
  Store.Artifact.key
    (identity
    @ [ ("service", "task");
        ("engine", Pwcet.Estimator.engine_tag engine);
        ("exact", string_of_bool exact) ])

(* The dedup key: everything that shapes the computed estimate. The
   exceedance target stays out — waiters read their own quantile from
   the shared penalty distribution — and so do jobs/delay, which never
   change results. *)
let request_key ~identity (a : Protocol.analyze) =
  Store.Artifact.key
    (identity
    @ [ ("service", "analyze");
        ("mechanism", Pwcet.Mechanism.short_name a.mechanism);
        ("engine", Pwcet.Estimator.engine_tag a.engine);
        ("exact", string_of_bool a.exact);
        ("pfail", Pwcet.Estimator.float_key a.pfail) ])

(* Prepared-task cache: bounded, FIFO-evicted, with its own in-flight
   dedup so N concurrent cold requests against one benchmark run the
   expensive preparation (CFG recovery, cache analysis, fault-free
   WCET) once. Only called from worker domains. *)
let prepared_task t ~program ~config ~digest (a : Protocol.analyze) =
  single_flight_inline t ~count_join:false ~count_compute:false t.tasks
    (task_key ~identity:(Pwcet.Estimator.identity_of_digest ~digest ~config) ~engine:a.engine
       ~exact:a.exact)
    (fun () ->
      Pwcet.Estimator.prepare ~program ~config ~program_digest:digest ~engine:a.engine
        ~exact:a.exact ?store:t.store ())

(* An estimate builds its penalty law on first read. The memo shares one
   estimate among requests at any target, and [respond] runs on the
   front-end thread, so the worker builds the whole law, which answers
   every target, before the estimate leaves it. *)
let whole_law est =
  ignore (Pwcet.Estimator.penalty est);
  est

(* The computation a worker domain runs. [jobs:1]: request-level
   parallelism comes from the pool itself; nested per-set domains
   would oversubscribe it. *)
let compute t ~program ~config ~digest ?budget (a : Protocol.analyze) () =
  if a.delay_ms > 0 then Unix.sleepf (float_of_int a.delay_ms /. 1000.0);
  let task, store =
    match budget with
    | Some b ->
      (* Budgeted bypass: fresh prepare + estimate, no task cache, no
         store (a degraded, wall-clock-dependent result must never be
         memoised), deadline riding the whole ladder. *)
      ( Pwcet.Estimator.prepare ~program ~config ~engine:a.engine ~exact:a.exact ~budget:b (),
        None )
    | None -> (prepared_task t ~program ~config ~digest a, t.store)
  in
  whole_law
    (Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism ~engine:a.engine
       ~exact:a.exact ~jobs:1 ?budget ?store ())

let respond t (a : Protocol.analyze) ~computed outcome : Protocol.response =
  match outcome with
  | Ok est ->
    Protocol.Result
      { pwcet = Pwcet.Estimator.pwcet est ~target:a.target;
        wcet_ff = Pwcet.Estimator.fault_free_wcet est.Pwcet.Estimator.task;
        pbf = est.Pwcet.Estimator.pbf;
        rung = Robust.Rung.to_string (Pwcet.Estimator.worst_rung est);
        computed }
  | Error msg -> error_reply t msg

(* Per-request bookkeeping shared by the three entry points. The
   [ensure_alive] call is the watchdog's second line: every admission
   tops the pool back up to its target headcount, so even if a dying
   worker's in-line respawn failed, the very next request repairs the
   deficit before it needs a worker. *)
let admit t =
  ignore (Parallel.Workers.ensure_alive t.pool);
  locked t (fun () -> t.requests <- t.requests + 1)

(* Connection-level incidents reported by the server front end. *)
let note_slow_client t = locked t (fun () -> t.slow_clients <- t.slow_clients + 1)
let note_rejected_conn t = locked t (fun () -> t.rejected_conns <- t.rejected_conns + 1)

let analyze t (a : Protocol.analyze) : Protocol.response =
  admit t;
  match
    ( compiled t a.bench,
      Cache.Config.of_geometry ~sets:a.sets ~ways:a.ways ~line_bytes:a.line )
  with
  | Error msg, _ | _, Error msg -> error_reply t msg
  | Ok (program, digest), Ok config -> (
    let identity = Pwcet.Estimator.identity_of_digest ~digest ~config in
    match a.timeout_ms with
    | Some ms ->
      (* Budgeted: private computation, admission control only. *)
      let budget = Robust.Budget.make ~timeout:(float_of_int ms /. 1000.0) () in
      let iv = ivar () in
      let job () =
        let outcome = guarded (compute t ~program ~config ~digest ~budget a) in
        if Result.is_ok outcome then locked t (fun () -> t.computations <- t.computations + 1);
        fill iv outcome
      in
      if Parallel.Workers.submit t.pool job then respond t a ~computed:true (wait iv)
      else shed t
    | None ->
      single_flight_pooled t ~count_join:true ~count_compute:true t.estimates
        (request_key ~identity a)
        (compute t ~program ~config ~digest a)
        ~respond:(respond t a))

(* --- bulk schedulability campaigns ----------------------------------------- *)

(* One benchmark's estimate for a sched campaign, computed INLINE on
   the calling worker domain. Submitting it to the pool — or joining
   an [estimates] flight whose leader is a pool job that may be queued
   behind this very campaign — could deadlock a fully sched-occupied
   pool, so the campaign path has its own single flight whose leaders
   never need a pool slot. It still reads and feeds the shared result
   memo (same [request_key]), so sched campaigns and analyze traffic
   warm each other. *)
let bench_estimate t ~config (spec : Sched.Campaign.spec) bench =
  let program, digest = value (compiled t bench) in
  let identity = Pwcet.Estimator.identity_of_digest ~digest ~config in
  let a =
    { (Protocol.default_analyze ~bench) with
      Protocol.pfail = spec.pfail;
      mechanism = spec.mechanism;
      sets = spec.sets;
      ways = spec.ways;
      line = spec.line }
  in
  single_flight_inline t ~count_join:true ~count_compute:true t.bench_estimates
    (request_key ~identity a) (fun () ->
      let task = prepared_task t ~program ~config ~digest a in
      whole_law
        (Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism ~engine:a.engine
           ~exact:a.exact ~jobs:1 ?store:t.store ()))

(* The campaign computation a worker domain runs. [jobs:1] as in
   [compute]: request-level parallelism comes from the pool itself. *)
let compute_sched t (spec : Sched.Campaign.spec) () =
  let config = Cache.Config.make ~sets:spec.sets ~ways:spec.ways ~line_bytes:spec.line () in
  let laws =
    List.map
      (fun bench ->
        Sched.Campaign.law_of_estimate spec ~bench (bench_estimate t ~config spec bench))
      (Sched.Campaign.distinct_benchmarks spec)
  in
  let c = Sched.Campaign.run_with_laws ~jobs:1 spec laws in
  let passes =
    List.length
      (List.filter
         (fun (r : Sched.Campaign.set_result) -> List.for_all snd r.passes)
         c.Sched.Campaign.results)
  in
  let degraded =
    List.length
      (List.filter (fun (r : Sched.Campaign.set_result) -> r.degraded) c.Sched.Campaign.results)
  in
  { analyzed = spec.count; passes; degraded; digest = c.Sched.Campaign.digest }

(* A campaign's success is not a computation of its own: its
   per-benchmark estimates already counted. *)
let sched t (spec : Sched.Campaign.spec) : Protocol.response =
  admit t;
  single_flight_pooled t ~count_join:true ~count_compute:false t.scheds
    (Store.Artifact.key (("service", "sched") :: Sched.Campaign.identity spec))
    (compute_sched t spec)
    ~respond:(fun ~computed outcome ->
      match outcome with
      | Ok sum ->
        Protocol.Sched_reply
          { Protocol.analyzed = sum.analyzed;
            passes = sum.passes;
            degraded = sum.degraded;
            digest = sum.digest;
            sched_computed = computed }
      | Error msg -> error_reply t msg)

(* --- bulk comparison grids -------------------------------------------------- *)

(* The spec, and each program's digest from the compiled memo, so that
   neither the request key nor the store keys hash a program again. *)
let spec_of_grid t (g : Protocol.grid) =
  try
    let compiled = List.map (fun bench -> (bench, value (compiled t bench))) g.g_benchmarks in
    let benchmarks = List.map (fun (bench, (program, _)) -> (bench, program)) compiled in
    let digest bench = snd (List.assoc bench compiled) in
    Ok
      ( { Grid.benchmarks; configs = g.g_geometries; mechanisms = g.g_mechanisms;
          pfail_grid = g.g_pfails; targets = g.g_targets; engine = g.g_engine; exact = g.g_exact;
          impl = `Sliced },
        digest )
  with Compute_error msg -> Error msg

(* The grid computation a worker domain runs. [jobs:1] as everywhere
   on the pool: request-level parallelism comes from the pool itself,
   and the one-pass sharing — not the work-stealing DAG — is what the
   daemon buys here. The store read-through means a repeat grid over a
   populated store replays its FMMs instead of recomputing. *)
let compute_grid t (spec : Grid.spec) ~digest () =
  let results = Grid.run ~jobs:1 ?store:t.store ~digest spec in
  let failed =
    List.length (List.filter (fun (_, r) -> Result.is_error r) results)
  in
  { cells = List.length results; failed; grid_digest = Grid.digest results }

let grid t (g : Protocol.grid) : Protocol.response =
  admit t;
  match spec_of_grid t g with
  | Error msg -> error_reply t msg
  | Ok (spec, digest) ->
    single_flight_pooled t ~count_join:true ~count_compute:true t.grids
      (Store.Artifact.key (("service", "grid") :: Grid.identity ~digest spec))
      (compute_grid t spec ~digest)
      ~respond:(fun ~computed outcome ->
        match outcome with
        | Ok sum ->
          Protocol.Grid_reply
            { Protocol.cells = sum.cells;
              failed = sum.failed;
              grid_digest = sum.grid_digest;
              grid_computed = computed }
        | Error msg -> error_reply t msg)

let stats t : Protocol.stats_payload =
  let queued = Parallel.Workers.queued t.pool in
  let crashed_workers = Parallel.Workers.crashed t.pool in
  let respawned_workers = Parallel.Workers.respawned t.pool in
  let store =
    Option.map
      (fun st ->
        let s = Store.Artifact.stats st in
        (s.Store.Artifact.hits, s.Store.Artifact.misses, s.Store.Artifact.puts))
      t.store
  in
  locked t (fun () ->
      { Protocol.requests = t.requests;
        computations = t.computations;
        deduped = t.deduped;
        overloaded = t.overloaded;
        errors = t.errors;
        queued;
        crashed_workers;
        respawned_workers;
        slow_clients = t.slow_clients;
        rejected_conns = t.rejected_conns;
        store;
        uptime_s = Robust.Budget.now () -. t.started })

let shutdown t = Parallel.Workers.shutdown t.pool
