(* Command-line front end for the fault-aware pWCET analyzer.

   Subcommands:
     list                     enumerate the benchmark suite
     disasm <bench>           disassembly of a compiled benchmark
     analyze <bench>          WCET / pWCET analysis of one benchmark
     sweep <bench>            pWCET across a pfail grid, one analysis per mechanism
     grid [bench...]          one-pass benchmark x geometry x mechanism x pfail matrix
     suite                    the Fig. 4 table over the whole suite
     validate [bench...]      batched fault-injection campaigns vs the analytic curve
     audit                    invariant auditor over the whole registry
     sched                    probabilistic schedulability campaigns (generate / analyze / sweep)
     cache                    artifact-store maintenance (stat / verify / gc)
     serve                    long-running analysis daemon on a Unix socket
     client                   talk to a running daemon (ping / stats / analyze / load)
     chaos                    deterministic fault-injection soak (self-healing audit)

   Exit codes: 0 success; 1 analysis failure, audit or validate bound
   violation, corrupt store entries found by cache verify, or a client
   request that fails or draws a daemon error; 2 invalid input that no
   single option value shows (unknown benchmark or source, source
   error, a campaign Sched.Campaign.make rejects, malformed budget,
   inconsistent --resume, a serve/client setting out of range, or a
   validated program that traps or does not halt); 3 a client request
   shed by the daemon's admission control; 124 a usage error, among
   them every analysis parameter value that fails its shared parse or
   range check (probability, jobs count, mechanism, engine, policy,
   cache geometry, empty list), the same on every command; 130
   sweep/suite/grid/sched analyze/sched sweep cancelled cleanly by
   SIGINT/SIGTERM, or a serve run ended by those signals after a clean
   drain. *)

open Cmdliner

let exit_invalid_input = 2
let exit_cancelled = 130

(* A target is a registered benchmark name or a path to a mini-C source
   file (anything containing '/' or ending in .c). *)
let load_target name =
  let from_file () =
    match Minic.Parser.program_of_file name with
    | prog -> (name, prog)
    | exception Minic.Parser.Error msg ->
      Printf.eprintf "%s: parse error: %s\n" name msg;
      exit exit_invalid_input
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit exit_invalid_input
  in
  if Sys.file_exists name && not (Sys.is_directory name) then from_file ()
  else
    match Benchmarks.Registry.find name with
    | Some e -> (e.Benchmarks.Registry.name, e.Benchmarks.Registry.program)
    | None ->
      Printf.eprintf "unknown benchmark or file %s; try 'pwcet_tool list'\n" name;
      exit exit_invalid_input

let compile_target name =
  let label, prog = load_target name in
  try (label, Minic.Compile.compile prog)
  with
  | Minic.Typecheck.Error msg | Minic.Compile.Error msg ->
    Printf.eprintf "%s: %s\n" label msg;
    exit exit_invalid_input

(* --- common options ---------------------------------------------------- *)

(* Every analysis parameter is parsed and range-checked at the CLI
   boundary by the request vocabulary the daemon's decoders also use
   (Pwcet.Param, Cache.Config.of_string, Sched.Analysis.policy_of_string):
   a bad value is a usage error (exit 124) on every command, and NaN or
   an infinity never reaches the pipeline. *)
let param_conv ~docv parse print =
  Arg.conv' ~docv (parse, fun fmt v -> Format.pp_print_string fmt (print v))

let float_conv ~docv check =
  param_conv ~docv
    (fun s ->
      match float_of_string_opt s with
      | Some x -> check x
      | None -> Error (Printf.sprintf "invalid number %S" s))
    (Printf.sprintf "%g")

let int_conv ~docv check =
  param_conv ~docv
    (fun s ->
      match int_of_string_opt s with
      | Some n -> check n
      | None -> Error (Printf.sprintf "invalid integer %S" s))
    string_of_int

let prob_conv = float_conv ~docv:"P" Pwcet.Param.probability
let positive_conv = float_conv ~docv:"X" Pwcet.Param.positive

(* A comma-separated list that names at least one item: an empty axis
   would silently evaluate nothing. *)
let non_empty_list ~what c =
  let items = Arg.list ~sep:',' c in
  let parse s =
    match Arg.conv_parser items s with
    | Ok [] -> Error (`Msg (Printf.sprintf "must name at least one %s" what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer items)

(* One mechanism name or "all". *)
let mechanisms_conv =
  param_conv ~docv:"MECH" Pwcet.Param.mechanisms (fun ms ->
      if ms = Pwcet.Mechanism.all then "all"
      else String.concat "," (List.map Pwcet.Mechanism.short_name ms))

let mechanism_lists_conv = non_empty_list ~what:"mechanism" mechanisms_conv

let geometries_conv =
  non_empty_list ~what:"geometry"
    (param_conv ~docv:"SxW[xL]" Cache.Config.of_string Cache.Config.to_string)

let pfails_conv = non_empty_list ~what:"pfail point" prob_conv
let targets_conv = non_empty_list ~what:"exceedance target" prob_conv

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc:"Benchmark name or mini-C source file.")

let pfail_arg =
  Arg.(value & opt prob_conv Pwcet.Param.pfail
       & info [ "pfail" ] ~docv:"P"
           ~doc:"Per-bit permanent failure probability, strictly inside (0, 1) (paper: 1e-4).")

let target_arg =
  Arg.(value & opt prob_conv Pwcet.Param.target
       & info [ "target" ] ~docv:"P"
           ~doc:"Target exceedance probability for the reported pWCET, strictly inside (0, 1) \
                 (paper: 1e-15).")

let pfail_grid_arg ~doc =
  Arg.(value & opt pfails_conv Pwcet.Param.pfail_grid
       & info [ "pfail-grid" ] ~docv:"P,P,..." ~doc)

(* The cache geometry of --sets/--ways/--line, checked by
   Cache.Config.of_geometry like every other geometry. *)
let config_term =
  let paper = Cache.Config.paper_default in
  let sets_arg =
    Arg.(value & opt int paper.sets & info [ "sets" ] ~doc:"Cache sets (power of two).")
  in
  let ways_arg = Arg.(value & opt int paper.ways & info [ "ways" ] ~doc:"Cache associativity.") in
  let line_arg =
    Arg.(value & opt int paper.line_bytes
         & info [ "line" ] ~doc:"Cache line size in bytes (power of two).")
  in
  Term.(term_result' ~usage:true
          (const (fun sets ways line_bytes -> Cache.Config.of_geometry ~sets ~ways ~line_bytes)
           $ sets_arg $ ways_arg $ line_arg))

let engine_arg =
  let engine = param_conv ~docv:"ENGINE" Pwcet.Param.engine Pwcet.Estimator.engine_tag in
  Arg.(value & opt engine `Path
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Bounding engine: tree-based 'path' (default) or 'ilp'.")

let exact_arg =
  Arg.(value & flag
       & info [ "exact" ]
           ~doc:"With --engine ilp, solve with exact branch-and-bound instead of the LP \
                 relaxation. Under a starved --ilp-nodes budget the solver degrades \
                 back down the Exact -> Relaxed -> Structural ladder instead of failing.")

(* Worker-domain counts are validated at the CLI boundary: a
   nonsensical value must never reach Pool (0 or a negative count
   would silently run nothing; thousands of domains would thrash the
   runtime far past any speedup). *)
let max_jobs = 256

let jobs_conv =
  int_conv ~docv:"N" (fun n ->
      if n > max_jobs then Error (Printf.sprintf "jobs capped at %d, got %d" max_jobs n)
      else Result.map_error (( ^ ) "jobs ") (Pwcet.Param.at_least 1 n))

let jobs_arg =
  Arg.(value & opt jobs_conv (min max_jobs (Parallel.Pool.default_jobs ()))
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the per-set fault analyses, between 1 \
                 (sequential) and 256 (default: the runtime's recommended \
                 domain count). Results are identical for every value.")

let ilp_nodes_arg =
  Arg.(value & opt (some int) None
       & info [ "ilp-nodes" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget per ILP. Exhaustion degrades that bound to \
                 the LP relaxation (still sound), never aborts the run.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget for the whole analysis. Per-set analyses that start \
                 after the deadline fall back to the structural bound (still sound).")

let budget_of ilp_nodes timeout =
  match (ilp_nodes, timeout) with
  | None, None -> None
  | _ -> (
    try Some (Robust.Budget.make ?ilp_nodes ?timeout ())
    with Invalid_argument msg ->
      Printf.eprintf "invalid budget: %s\n" msg;
      exit exit_invalid_input)

(* --- artifact store, resume journal, clean cancellation ----------------- *)

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Crash-safe artifact cache: FMM tables, fault-free WCETs and per-point \
                 penalty distributions are stored under $(docv) (created as needed), \
                 keyed by code version, program content and analysis flags, and \
                 integrity-checked on every read — a corrupt entry is quarantined and \
                 transparently recomputed. Also the home of the resume journals of \
                 sweep, suite, grid (one record per cell) and sched analyze (one per \
                 task set). Budget-limited runs (--timeout/--ilp-nodes) bypass the cache.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Ignore --cache-dir entirely: neither read nor write artifacts or \
                 journals. Output is bit-identical to a cached run.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Resume an interrupted run from its journal under --cache-dir: completed \
                 units (cells for sweep, suite and grid; task sets for sched analyze) are \
                 replayed from the journal (integrity-checked; a torn trailing record from \
                 a crash is dropped and recomputed) and only the remainder is analysed. \
                 The final output is bit-identical to an uninterrupted run. Requires \
                 --cache-dir; incompatible with --verify and with budget options.")

(* Deterministic crash injection for the crash-safety gate in `make
   check`: kill this very process with SIGKILL — no cleanup, no
   at_exit, exactly like an OOM kill — right after the Nth journal
   append, leaving a deliberately torn trailing record. *)
let crash_after_arg =
  Arg.(value & opt (some int) None
       & info [ "crash-after" ] ~docv:"N"
           ~doc:"Testing hook: SIGKILL this process (simulating a crash mid-write, with a \
                 torn trailing journal record) after $(docv) journal appends.")

let store_of cache_dir no_cache =
  match cache_dir with
  | Some dir when not no_cache -> Some (Store.Artifact.open_store ~dir ())
  | _ -> None

let report_store_stats store =
  match store with
  | None -> ()
  | Some st ->
    Format.eprintf "cache: %a@." Store.Artifact.pp_stats (Store.Artifact.stats st)

(* The options of every batch run: worker count, budget, store and the
   resume/crash hooks. *)
type run_opts = {
  jobs : int;
  ilp_nodes : int option;
  timeout : float option;
  cache_dir : string option;
  no_cache : bool;
  resume : bool;
  crash_after : int option;
}

let run_opts_term =
  let make jobs ilp_nodes timeout cache_dir no_cache resume crash_after =
    { jobs; ilp_nodes; timeout; cache_dir; no_cache; resume; crash_after }
  in
  Term.(const make $ jobs_arg $ ilp_nodes_arg $ timeout_arg $ cache_dir_arg $ no_cache_arg
        $ resume_arg $ crash_after_arg)

(* The one --resume validation. *)
let check_resume ~label ?(verify = false) opts =
  let invalid msg =
    Printf.eprintf "%s: %s\n" label msg;
    exit exit_invalid_input
  in
  if opts.resume && opts.cache_dir = None then
    invalid "--resume requires --cache-dir (the journal lives there)";
  if opts.resume && verify then
    invalid "--resume is incompatible with --verify (replayed units have no distribution to \
             cross-check); rerun the verification without --resume";
  if opts.resume && (opts.ilp_nodes <> None || opts.timeout <> None) then
    invalid "--resume is incompatible with budget options (budgeted results depend on \
             wall-clock and are never journalled)"

(* SIGINT/SIGTERM request a clean cancel: the flag is checked as each
   unit completes, so the journal is left consistent (every appended
   record complete and fsynced), no partial JSON is emitted, and the
   exit code is 130. A second Ctrl-C still kills the process the hard
   way — which the torn-record handling tolerates by design. *)
let cancel_requested = Atomic.make false

let install_cancel_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Atomic.set cancel_requested true) in
  List.iter
    (fun signal -> try Sys.set_signal signal handle with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* How a batch command journals its units: the run key, the unit's
   wire codec, and the key a replayed unit is looked up by. *)
type ('r, 'k) journal_key = {
  units : string;  (* plural noun for the resume message *)
  run_key : (string * string) list;
  encode : 'r -> string;
  decode : string -> ('r, string) result;
  key : 'r -> 'k;
}

(* The one journal open: with a journal key, a store and no budget
   (budgeted results are never journalled), creates the journal keyed
   by [run_key], or with --resume replays it. Returns the writer and
   its path, if any, and the replayed units [decode] accepts. *)
let open_journal ~label ~store ~budget journal opts =
  match (journal, store, budget) with
  | Some jk, Some st, None ->
    let run_key = Store.Artifact.key jk.run_key in
    let path = Store.Artifact.journal_path st ~run_key in
    if opts.resume then begin
      let w, records = Store.Journal.resume ~path ~run_key () in
      let replayed = List.filter_map (fun r -> Result.to_option (jk.decode r)) records in
      if replayed <> [] then
        Printf.eprintf "%s: resuming: %d completed %s replayed from the journal\n" label
          (List.length replayed) jk.units;
      (Some (w, path), replayed)
    end
    else (Some (Store.Journal.create ~path ~run_key (), path), [])
  | _ -> (None, [])

(* What a batch command computes with: the budget and store of its
   options, the units replayed from its journal, and [completed], which
   it calls on each freshly computed unit, from any domain. Under one
   lock, [completed] appends the unit to the journal, stops the run if
   it was cancelled, else runs [also]. *)
type ('r, 'k) batch = {
  budget : Robust.Budget.t option;
  store : Store.Artifact.t option;
  replay : 'k -> 'r option;
  replayed : int;
  completed : ?also:(unit -> unit) -> 'r -> unit;
}

(* The one way to run a batch command (sweep, suite, grid, sched
   analyze, sched sweep): validate --resume, install the cancel
   handlers, open the journal, [compute], exit 130 if cancelled, then
   [report] the result and the store statistics. [report] returns
   whether the run succeeded; if not, the exit code is 1. *)
let run_batch ~label ?verify ?journal opts ~compute ~report =
  check_resume ~label ?verify opts;
  install_cancel_handlers ();
  let budget = budget_of opts.ilp_nodes opts.timeout in
  let store = store_of opts.cache_dir opts.no_cache in
  let writer, replayed = open_journal ~label ~store ~budget journal opts in
  let table = Hashtbl.create 64 in
  Option.iter (fun jk -> List.iter (fun r -> Hashtbl.replace table (jk.key r) r) replayed) journal;
  let close () = Option.iter (fun (w, _) -> Store.Journal.close w) writer in
  let bail_if_cancelled () =
    if Atomic.get cancel_requested then begin
      (* The resume hint only when there is a journal to resume. *)
      Printf.eprintf "%s: cancelled by signal%s\n" label
        (if Option.is_none writer then ""
         else "; completed units are journalled, rerun with --resume to continue");
      close ();
      exit exit_cancelled
    end
  in
  let lock = Mutex.create () and appended = ref 0 in
  let completed ?(also = ignore) r =
    Mutex.protect lock (fun () ->
        (match (writer, journal) with
        | Some (w, path), Some jk -> (
          Store.Journal.append w (jk.encode r);
          incr appended;
          (* The crash hook fires under the lock, so the append count is exact. *)
          match opts.crash_after with
          | Some n when !appended >= n ->
            (* Torn trailing record: a length prefix promising far more
               bytes than will ever arrive. [resume] must drop it. *)
            let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
            output_string oc "\xff\xff\xff\xff\xff\xff\xff\x7ftorn";
            flush oc;
            Unix.kill (Unix.getpid ()) Sys.sigkill
          | _ -> ())
        | _ -> ());
        bail_if_cancelled ();
        also ())
  in
  let b =
    { budget; store; replay = Hashtbl.find_opt table; replayed = Hashtbl.length table;
      completed }
  in
  let result = compute b in
  bail_if_cancelled ();
  close ();
  let ok = report b result in
  report_store_stats store;
  if not ok then exit 1

let exits =
  Cmd.Exit.info 1
    ~doc:"on an analysis failure, an audit violation, a validate bound violation, \
          corrupt artifact-store entries found by cache verify, or a client request that \
          cannot reach the daemon or draws an error or unexpected reply."
  :: Cmd.Exit.info exit_invalid_input
       ~doc:"on invalid input that no single option value shows: an unknown benchmark or \
             source file, a source parse or type error, a sched campaign that \
             Sched.Campaign.make rejects (a count or budget out of range, a utilisation \
             above --n-tasks, an unknown --benchmarks name), a malformed budget, an \
             inconsistent --resume combination, a serve or client setting out of range, \
             or a program under validate that traps or does not halt."
  :: Cmd.Exit.info Cmd.Exit.cli_error
       ~doc:"on a command-line usage error. This includes every analysis parameter value \
             that fails its parse or range check, with the same code on every command and \
             the check the daemon's decoder applies: a probability outside (0, 1), a jobs \
             count outside 1..256, an unknown mechanism, engine or policy name, an invalid \
             cache geometry (--sets/--ways/--line or SETSxWAYS[xLINE]) and an empty list."
  :: Cmd.Exit.info exit_cancelled
       ~doc:"when SIGINT/SIGTERM cancels a sweep, suite, grid, sched analyze or sched \
             sweep run cleanly: no partial JSON is emitted, and the per-cell (per-set \
             for sched analyze) resume journal, when one is written, is left consistent \
             and its completed units can be replayed with --resume."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.cli_error) Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

let rung_tag rung =
  match rung with
  | Robust.Rung.Exact -> ""
  | r -> Printf.sprintf "  [degraded: %s]" (Robust.Rung.to_string r)

let report_degradation label est =
  List.iter
    (fun (set, err) ->
      Printf.eprintf "%s: set %d fell back to the structural bound: %s\n" label set
        (Robust.Pwcet_error.to_string err))
    (Pwcet.Estimator.degradation_errors est)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Benchmarks.Registry.entry) ->
        let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
        Printf.printf "%-14s %5d instructions  %s\n" e.Benchmarks.Registry.name
          (Isa.Program.instruction_count compiled.Minic.Compile.program)
          e.Benchmarks.Registry.description)
      Benchmarks.Registry.all
  in
  Cmd.v (cmd_info "list" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

(* --- disasm --------------------------------------------------------------- *)

let disasm_cmd =
  let run name =
    let _, compiled = compile_target name in
    Format.printf "%a" Isa.Program.pp compiled.Minic.Compile.program
  in
  Cmd.v (cmd_info "disasm" ~doc:"Disassemble a compiled benchmark or mini-C file")
    Term.(const run $ bench_arg)

(* --- analyze --------------------------------------------------------------- *)

let analyze_cmd =
  let run name pfail target config engine exact jobs ilp_nodes timeout show_curve show_fmm check
      cache_dir no_cache =
    let label, compiled = compile_target name in
    let budget = budget_of ilp_nodes timeout in
    let store = store_of cache_dir no_cache in
    let task =
      Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config ~engine ~exact
        ?budget ?store ()
    in
    Printf.printf "benchmark      : %s\n" label;
    Format.printf "cache          : %a@." Cache.Config.pp config;
    Printf.printf "pfail          : %g   pbf: %g\n" pfail
      (Fault.Model.pbf_of_config ~pfail config);
    Printf.printf "fault-free WCET: %d cycles%s\n\n"
      (Pwcet.Estimator.fault_free_wcet task)
      (rung_tag task.Pwcet.Estimator.wcet_rung);
    let results =
      Pwcet.Estimator.estimates task ~pfail ~mechanisms:Pwcet.Mechanism.all ~engine ~exact ~jobs
        ?budget ?store ()
    in
    (* A pWCET alone needs only the law cut at [target]; the curve and
       the audit read the whole law, which then answers the pWCET too. *)
    if show_curve || check then
      List.iter (fun (_, est) -> ignore (Pwcet.Estimator.penalty est)) results;
    List.iter
      (fun (mech, est) ->
        Printf.printf "%-30s pWCET(%g) = %d cycles%s\n" (Pwcet.Mechanism.name mech) target
          (Pwcet.Estimator.pwcet est ~target)
          (rung_tag (Pwcet.Estimator.worst_rung est));
        report_degradation (Pwcet.Mechanism.short_name mech) est;
        if show_fmm then
          Format.printf "%a@." Pwcet.Fmm.pp est.Pwcet.Estimator.fmm)
      results;
    (* After the reads, so that the count includes the penalty laws. *)
    report_store_stats store;
    if show_curve then begin
      let series =
        List.map
          (fun (mech, est) ->
            (Pwcet.Mechanism.short_name mech, Pwcet.Estimator.exceedance_curve est))
          results
      in
      print_newline ();
      print_string (Reporting.Ascii_plot.exceedance ~series ())
    end;
    if check then begin
      let all_exact =
        List.for_all
          (fun (_, est) -> Robust.Rung.equal (Pwcet.Estimator.worst_rung est) Robust.Rung.Exact)
          results
      in
      let baseline = List.assoc Pwcet.Mechanism.No_protection results in
      let reports =
        List.map (fun (_, est) -> Pwcet.Audit.check_estimate est) results
        @
        (* Dominance only compares like with like: under a starved
           budget the mechanisms may degrade to different rungs, and a
           looser baseline rung would flag spurious violations. *)
        if all_exact then
          List.filter_map
            (fun (mech, est) ->
              if Pwcet.Mechanism.equal mech Pwcet.Mechanism.No_protection then None
              else Some (Pwcet.Audit.check_dominance ~baseline ~other:est))
            results
        else []
      in
      let report = Pwcet.Audit.merge reports in
      print_newline ();
      Format.printf "audit: %a@." Pwcet.Audit.pp_report report;
      if not all_exact then
        print_endline "audit: dominance checks skipped (degraded bounds present)";
      if not (Pwcet.Audit.ok report) then exit 1
    end
  in
  let curve_arg = Arg.(value & flag & info [ "curve" ] ~doc:"Plot the exceedance curves (Fig. 3).") in
  let fmm_arg = Arg.(value & flag & info [ "fmm" ] ~doc:"Print the fault miss maps.") in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Run the invariant auditor on the produced estimates (FMM shape, mass \
                   conservation, exceedance monotonicity, mechanism dominance); exit 1 \
                   on any violation.")
  in
  Cmd.v
    (cmd_info "analyze"
       ~doc:"pWCET analysis of one benchmark (or mini-C file) under all three mechanisms")
    Term.(const run $ bench_arg $ pfail_arg $ target_arg $ config_term $ engine_arg $ exact_arg
          $ jobs_arg $ ilp_nodes_arg $ timeout_arg
          $ curve_arg $ fmm_arg $ check_arg $ cache_dir_arg $ no_cache_arg)

(* --- one evaluation path: sweep, grid and suite ----------------------------- *)

(* sweep, grid and suite are slices of one benchmark x geometry x
   mechanism x pfail cross-product: each front end builds a [Grid.spec]
   and prints its own table; [evaluate] does the rest — resume checks,
   the per-cell journal, cancellation, the failure report and
   --verify. *)
type evaluation = {
  results : (Grid.point * (Grid.cell, Robust.Pwcet_error.t) result) list;
  replayed : int;
  fresh : (string, Pwcet.Estimator.estimate) Hashtbl.t;
      (* freshly computed estimates by point key, kept with [keep_estimates] or --verify *)
  store : Store.Artifact.t option;
}

let ok_cells ev =
  List.filter_map (fun (_, outcome) -> Result.to_option outcome) ev.results

(* Re-run every cell as an independent end-to-end estimate, its
   quantiles read as the grid reads them (one law, cut at the smallest
   target) —
   deliberately WITHOUT the store, so a cached run is checked against
   genuine recomputation — and demand equal fault-free WCET, pbf, FMM
   table, quantiles and provenance. The law is a function of the FMM
   table and pbf alone, so equal inputs mean an equal law without
   building a second, whole one. The sharing must be a
   pure refactoring of the computation, never an approximation. *)
let verify_cells ~jobs ~budget ~verified spec ev =
  let tasks = Hashtbl.create 16 in
  let task_of (p : Grid.point) =
    match Hashtbl.find_opt tasks (p.bench, p.config) with
    | Some task -> task
    | None ->
      let task =
        Pwcet.Estimator.prepare
          ~program:(List.assoc p.bench spec.Grid.benchmarks)
          ~config:p.config ~engine:spec.Grid.engine ~exact:spec.Grid.exact ?budget ()
      in
      Hashtbl.replace tasks (p.bench, p.config) task;
      task
  in
  let differs (point, outcome) =
    match outcome with
    | Error _ -> true
    | Ok (cell : Grid.cell) ->
      let task = task_of point in
      let independent =
        Pwcet.Estimator.estimate task ~pfail:point.Grid.pfail ~mechanism:point.Grid.mechanism
          ~engine:spec.Grid.engine ~exact:spec.Grid.exact ~jobs ?budget ()
      in
      let est = Hashtbl.find ev.fresh (Grid.point_key point) in
      let same =
        Pwcet.Estimator.fault_free_wcet task = cell.wcet_ff
        && independent.Pwcet.Estimator.pbf = cell.pbf
        && Pwcet.Fmm.table independent.Pwcet.Estimator.fmm = Pwcet.Fmm.table est.Pwcet.Estimator.fmm
        && Pwcet.Estimator.pwcets independent ~targets:(List.map fst cell.pwcets) = cell.pwcets
        && Robust.Rung.equal (Pwcet.Estimator.worst_rung independent) cell.rung
      in
      if not same then
        Printf.eprintf "verify FAILED: cell %s differs from an independent estimate\n"
          (Grid.point_key point);
      not same
  in
  if List.filter differs ev.results <> [] then exit 1
  else print_string (verified (List.length ev.results))

let evaluate ~command ?(verify = false)
    ?(verified = Printf.sprintf "verify : all %d cells bit-identical to independent estimates\n")
    ?(keep_estimates = false) ~print opts spec =
  (* One hash per program, shared by the journal run key and the store keys. *)
  let digests =
    List.map
      (fun (name, program) -> (name, Pwcet.Estimator.program_digest program))
      spec.Grid.benchmarks
  in
  let digest name = List.assoc name digests in
  let journal =
    { units = "cell(s)"; run_key = ("run", command) :: Grid.identity ~digest spec;
      encode = Grid.cell_to_wire; decode = Grid.cell_of_wire;
      key = (fun (cell : Grid.cell) -> Grid.point_key cell.point) }
  in
  let compute b =
    let fresh = Hashtbl.create 64 in
    let on_cell (cell : Grid.cell) est =
      b.completed cell ~also:(fun () ->
          if verify || keep_estimates then Hashtbl.replace fresh (Grid.point_key cell.point) est)
    in
    let results =
      Grid.run ~jobs:opts.jobs ?budget:b.budget ?store:b.store ~digest
        ~skip:(fun point -> b.replay (Grid.point_key point))
        ~on_cell spec
    in
    { results; replayed = b.replayed; fresh; store = b.store }
  in
  let report b ev =
    let failures =
      List.filter_map
        (fun (point, outcome) ->
          match outcome with
          | Ok _ -> None
          | Error e ->
            Printf.eprintf "%s: cell %s failed: %s\n" command (Grid.point_key point)
              (Robust.Pwcet_error.to_string e);
            Some point)
        ev.results
    in
    print ev;
    if verify then verify_cells ~jobs:opts.jobs ~budget:b.budget ~verified spec ev;
    failures = []
  in
  run_batch ~label:command ~verify ~journal opts ~compute ~report

let json_floats xs = String.concat ", " (List.map (Printf.sprintf "%.17g") xs)

let write_json file buf =
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc

let targets_arg =
  Arg.(value & opt targets_conv [ Pwcet.Param.target ]
       & info [ "targets" ] ~docv:"P,P,..."
           ~doc:"Comma-separated exceedance targets; one pWCET column per target.")

(* --- sweep ------------------------------------------------------------------ *)

let sweep_cmd =
  let run name grid targets config engine exact mechanisms json_file verify opts =
    let label, compiled = compile_target name in
    let program = compiled.Minic.Compile.program in
    let spec =
      { Grid.benchmarks = [ (label, program) ]; configs = [ config ]; mechanisms;
        pfail_grid = grid; targets; engine; exact; impl = `Sliced }
    in
    let print ev =
      let cells = ok_cells ev in
      (* Degradation notes in canonical order, for freshly computed cells. *)
      List.iter
        (fun (cell : Grid.cell) ->
          Option.iter
            (report_degradation (Pwcet.Mechanism.short_name cell.point.mechanism))
            (Hashtbl.find_opt ev.fresh (Grid.point_key cell.point)))
        cells;
      (* The header's WCET rung lives in the task; a fully replayed run
         prepares it once (a store hit for the WCET). *)
      let task =
        match Hashtbl.to_seq_values ev.fresh () with
        | Seq.Cons (est, _) -> est.Pwcet.Estimator.task
        | Seq.Nil ->
          Pwcet.Estimator.prepare ~program ~config ~engine ~exact ?store:ev.store ()
      in
      let by_mechanism =
        List.map
          (fun mech ->
            ( mech,
              List.filter (fun (c : Grid.cell) -> Pwcet.Mechanism.equal c.point.mechanism mech)
                cells ))
          mechanisms
      in
      Printf.printf "benchmark      : %s\n" label;
      Format.printf "cache          : %a@." Cache.Config.pp config;
      Printf.printf "fault-free WCET: %d cycles%s\n" (Pwcet.Estimator.fault_free_wcet task)
        (rung_tag task.Pwcet.Estimator.wcet_rung);
      List.iter
        (fun (mech, cells) ->
          Printf.printf "\n%s\n" (Pwcet.Mechanism.name mech);
          Printf.printf "  %-12s" "pfail";
          List.iter (fun t -> Printf.printf "  pWCET(%g)" t) targets;
          print_newline ();
          List.iter
            (fun (cell : Grid.cell) ->
              Printf.printf "  %-12g" cell.point.pfail;
              List.iter (fun (_, q) -> Printf.printf "  %10d" q) cell.pwcets;
              Printf.printf "%s\n" (rung_tag cell.rung))
            cells)
        by_mechanism;
      Option.iter
        (fun file ->
          let buf = Buffer.create 1024 in
          Buffer.add_string buf "{\n";
          Buffer.add_string buf "  \"schema_version\": 1,\n";
          Printf.bprintf buf "  \"benchmark\": %S,\n" label;
          Printf.bprintf buf
            "  \"geometry\": { \"sets\": %d, \"ways\": %d, \"line_bytes\": %d },\n"
            config.Cache.Config.sets config.Cache.Config.ways config.Cache.Config.line_bytes;
          Printf.bprintf buf "  \"wcet_ff\": %d,\n" (Pwcet.Estimator.fault_free_wcet task);
          Printf.bprintf buf "  \"targets\": [%s],\n" (json_floats targets);
          Buffer.add_string buf "  \"mechanisms\": [\n";
          List.iteri
            (fun i (mech, cells) ->
              Printf.bprintf buf "    { \"mechanism\": %S,\n      \"points\": [\n"
                (Pwcet.Mechanism.short_name mech);
              List.iteri
                (fun j (cell : Grid.cell) ->
                  Printf.bprintf buf
                    "        { \"pfail\": %.17g, \"pbf\": %.17g, \"pwcet\": [%s] }%s\n"
                    cell.point.pfail cell.pbf
                    (String.concat ", " (List.map (fun (_, q) -> string_of_int q) cell.pwcets))
                    (if j = List.length cells - 1 then "" else ","))
                cells;
              Printf.bprintf buf "      ] }%s\n"
                (if i = List.length by_mechanism - 1 then "" else ","))
            by_mechanism;
          Buffer.add_string buf "  ]\n}\n";
          write_json file buf;
          Printf.printf "\nwrote %s\n" file)
        json_file
    in
    evaluate ~command:"sweep" ~verify ~keep_estimates:true ~print
      ~verified:
        (Printf.sprintf "\nverify: all %d sweep points bit-identical to independent estimates\n")
      opts spec
  in
  let grid_arg =
    pfail_grid_arg
      ~doc:"Comma-separated pfail grid. The expensive pfail-independent work (CHMC, FMM, \
            fault-free WCET) runs once per mechanism; only the binomial reweighting, \
            convolution and quantile read-off are redone per point."
  in
  let mechanism_arg =
    Arg.(value & opt mechanisms_conv Pwcet.Mechanism.all
         & info [ "mechanism" ] ~docv:"MECH"
             ~doc:"Mechanism to sweep: 'none', 'srb', 'rw' or 'all' (default).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the sweep table as JSON to $(docv).")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Cross-check every sweep point against an independent end-to-end estimate \
                   whose penalty law is cut as the sweep's is \
                   (bit-identical penalty distribution, equal pWCET quantiles, pbf and \
                   degradation provenance); exit 1 on any mismatch.")
  in
  Cmd.v
    (cmd_info "sweep"
       ~doc:"pWCET sensitivity sweep over a pfail grid (Fig. 5-style), computing the \
             pfail-independent analysis once per mechanism")
    Term.(const run $ bench_arg $ grid_arg $ targets_arg $ config_term $ engine_arg $ exact_arg
          $ mechanism_arg $ json_arg $ verify_arg $ run_opts_term)

(* --- grid ------------------------------------------------------------------- *)

let grid_cmd =
  let run benches configs mechanisms grid targets engine exact json_file verify opts =
    if benches = [] then begin
      Printf.eprintf "grid: at least one benchmark (or mini-C file) is required\n";
      exit exit_invalid_input
    end;
    let mechanisms = List.concat mechanisms in
    let benchmarks =
      List.map
        (fun name ->
          let label, compiled = compile_target name in
          (label, compiled.Minic.Compile.program))
        benches
    in
    let spec =
      { Grid.benchmarks; configs; mechanisms; pfail_grid = grid; targets; engine; exact;
        impl = `Sliced }
    in
    let print ev =
      (* The comparison matrix, one panel per (benchmark, geometry). *)
      let cells = ok_cells ev in
      let last_panel = ref None in
      List.iter
        (fun (cell : Grid.cell) ->
          let point = cell.point in
          let panel = (point.bench, point.config) in
          if !last_panel <> Some panel then begin
            last_panel := Some panel;
            Printf.printf "\nbenchmark %-14s cache %s   fault-free WCET %d\n" point.bench
              (Format.asprintf "%a" Cache.Config.pp point.config)
              cell.wcet_ff;
            Printf.printf "  %-6s %-12s" "mech" "pfail";
            List.iter (fun t -> Printf.printf "  pWCET(%g)" t) targets;
            print_newline ()
          end;
          Printf.printf "  %-6s %-12g" (Pwcet.Mechanism.short_name point.mechanism) point.pfail;
          List.iter (fun (_, q) -> Printf.printf "  %10d" q) cell.pwcets;
          Printf.printf "%s\n" (rung_tag cell.rung))
        cells;
      let digest = Grid.digest ev.results in
      Printf.printf "\ncells  : %d (%d replayed, %d failed)\n" (List.length ev.results)
        ev.replayed
        (List.length ev.results - List.length cells);
      Printf.printf "digest : %s\n" digest;
      Option.iter
        (fun file ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf "{\n  \"schema_version\": 1,\n";
          Printf.bprintf buf "  \"targets\": [%s],\n" (json_floats targets);
          Printf.bprintf buf "  \"digest\": %S,\n" digest;
          Buffer.add_string buf "  \"cells\": [\n";
          List.iteri
            (fun i (cell : Grid.cell) ->
              let cfg = cell.point.config in
              Printf.bprintf buf
                "    { \"bench\": %S, \"geometry\": { \"sets\": %d, \"ways\": %d, \
                 \"line_bytes\": %d },\n      \"mechanism\": %S, \"pfail\": %.17g, \"pbf\": \
                 %.17g, \"wcet_ff\": %d,\n      \"pwcet\": [%s], \"rung\": %S, \
                 \"degraded_fmm_cells\": %d }%s\n"
                cell.point.bench cfg.Cache.Config.sets cfg.Cache.Config.ways
                cfg.Cache.Config.line_bytes
                (Pwcet.Mechanism.short_name cell.point.mechanism)
                cell.point.pfail cell.pbf cell.wcet_ff
                (String.concat ", " (List.map (fun (_, q) -> string_of_int q) cell.pwcets))
                (Robust.Rung.to_string cell.rung)
                cell.degraded
                (if i = List.length cells - 1 then "" else ","))
            cells;
          Buffer.add_string buf "  ]\n}\n";
          write_json file buf;
          Printf.printf "wrote %s\n" file)
        json_file
    in
    evaluate ~command:"grid" ~verify ~print opts spec
  in
  let benches_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"TARGET"
             ~doc:"Benchmark names or mini-C source files (at least one).")
  in
  let geometries_arg =
    Arg.(value & opt geometries_conv [ Cache.Config.paper_default ]
         & info [ "geometries" ] ~docv:"SxW[xL],..."
             ~doc:"Comma-separated cache geometries, each SETSxWAYS or SETSxWAYSxLINE_BYTES \
                   (default 16x4x16, the paper's). The per-geometry analysis context, CHMC \
                   fixpoints and fault-free WCET are shared across all mechanisms and pfail \
                   points at that geometry.")
  in
  let mechanisms_arg =
    Arg.(value & opt mechanism_lists_conv [ Pwcet.Mechanism.all ]
         & info [ "mechanisms" ] ~docv:"MECH,..."
             ~doc:"Comma-separated mechanisms: none, srb, rw, or all (default). All \
                   mechanisms at a geometry share one set of degraded-classification \
                   fixpoints.")
  in
  let grid_arg =
    pfail_grid_arg
      ~doc:"Comma-separated pfail grid; only the binomial reweighting, convolution and \
            quantile read-off are redone per point."
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the machine-readable comparison matrix as JSON to $(docv).")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Cross-check every grid cell against an independent end-to-end estimate \
                   whose penalty law is cut as the grid's is \
                   (bit-identical penalty distribution, equal pWCET quantiles, pbf and \
                   degradation provenance); exit 1 on any mismatch.")
  in
  Cmd.v
    (cmd_info "grid"
       ~doc:"One-pass benchmark x geometry x mechanism x pfail comparison grid: per-geometry \
             analysis stages are computed once and shared, cells are scheduled on a \
             work-stealing pool, and the matrix is bit-identical to independent per-cell \
             runs for every --jobs value")
    Term.(const run $ benches_arg $ geometries_arg $ mechanisms_arg $ grid_arg $ targets_arg
          $ engine_arg $ exact_arg $ json_arg $ verify_arg $ run_opts_term)

(* --- suite ------------------------------------------------------------------ *)

let suite_cmd =
  let run pfail target config engine exact opts =
    let benchmarks =
      List.map
        (fun (e : Benchmarks.Registry.entry) ->
          ( e.Benchmarks.Registry.name,
            (Minic.Compile.compile e.Benchmarks.Registry.program).Minic.Compile.program ))
        Benchmarks.Registry.all
    in
    let spec =
      { Grid.benchmarks; configs = [ config ]; mechanisms = Pwcet.Mechanism.all;
        pfail_grid = [ pfail ]; targets = [ target ]; engine; exact; impl = `Sliced }
    in
    let print ev =
      let rows = Grid.fig4_rows spec (ok_cells ev) in
      print_string (Reporting.Table.fig4 (List.map fst rows));
      print_newline ();
      print_string (Reporting.Table.aggregates (List.map fst rows));
      let degraded =
        List.filter_map
          (fun ((row : Pwcet.Report_data.row), rung) ->
            if Robust.Rung.equal rung Robust.Rung.Exact then None
            else Some (Printf.sprintf "%s (%s)" row.name (Robust.Rung.to_string rung)))
          rows
      in
      if degraded <> [] then
        Printf.printf "\ndegraded (budget-limited, still sound): %s\n"
          (String.concat ", " degraded)
    in
    evaluate ~command:"suite" ~print opts spec
  in
  Cmd.v (cmd_info "suite" ~doc:"Fig. 4 table: the whole suite under all three mechanisms")
    Term.(const run $ pfail_arg $ target_arg $ config_term $ engine_arg $ exact_arg
          $ run_opts_term)

(* --- validate (batched fault-injection campaigns vs the analytic curve) ------ *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> "unknown"

let validate_cmd =
  let run benches pfail samples seed jobs config json =
    let names =
      match benches with
      | [] -> List.map (fun e -> e.Benchmarks.Registry.name) Benchmarks.Registry.all
      | names -> names
    in
    let failures = ref 0 in
    let rows = ref [] in
    List.iter
      (fun name ->
        let label, compiled = compile_target name in
        let program = compiled.Minic.Compile.program in
        let data = compiled.Minic.Compile.data in
        let task = Pwcet.Estimator.prepare ~program ~config () in
        (* One fetch trace per program, shared by its three campaigns. *)
        let trace =
          try Sim.Campaign.trace ~program ~data ~config with
          | Robust.Pwcet_error.Error (Robust.Pwcet_error.Invalid_input msg) ->
            Printf.eprintf "%s: %s\n" label msg;
            exit exit_invalid_input
        in
        List.iter
          (fun (mechanism, est) ->
            let c =
              try Pwcet.Validate.check ~trace ~est ~samples ~seed ~jobs with
              | Failure msg ->
                Printf.eprintf "%s/%s: campaign failed: %s\n" label
                  (Pwcet.Mechanism.short_name mechanism) msg;
                exit 1
            in
            let r = c.Pwcet.Validate.result in
            Printf.printf
              "%-14s %-4s %9d samples %10.0f/s  range [%d, %d]  gap %+.3e  %s  digest %s\n"
              label
              (Pwcet.Mechanism.short_name mechanism)
              c.Pwcet.Validate.samples c.Pwcet.Validate.samples_per_sec
              r.Sim.Campaign.min_cycles r.Sim.Campaign.max_cycles c.Pwcet.Validate.max_gap
              (if Pwcet.Validate.ok c then "ok" else "FAIL")
              c.Pwcet.Validate.digest;
            if not c.Pwcet.Validate.curve_ok then
              Printf.printf
                "  FAIL: empirical exceedance above the analytic curve by %.3e (past noise) \
                 at one of %d observed values\n"
                c.Pwcet.Validate.max_gap c.Pwcet.Validate.curve_points;
            if not c.Pwcet.Validate.bound_ok then
              Printf.printf "  FAIL: %d sample(s) exceeded their per-pattern FMM bound\n"
                r.Sim.Campaign.bound_violations;
            if not (Pwcet.Validate.ok c) then incr failures;
            rows := (label, c) :: !rows)
          (Pwcet.Estimator.estimates task ~pfail ~mechanisms:Pwcet.Mechanism.all ~jobs ()))
      names;
    Option.iter
      (fun path ->
        Pwcet.Validate.write_json ~path ~git_commit:(git_commit ()) ~config ~pfail
          ~rows:(List.rev !rows);
        Printf.printf "wrote %s\n" path)
      json;
    if !failures > 0 then begin
      Printf.printf "\nvalidate FAILED on %d campaign(s)\n" !failures;
      exit 1
    end
    else
      Printf.printf "\nvalidate passed: empirical exceedance within the analytic pWCET on %d \
                     campaign(s)\n"
        (List.length !rows)
  in
  let benches_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"BENCH"
             ~doc:"Benchmarks to validate (default: the whole registry).")
  in
  let samples_arg =
    Arg.(value & opt (int_conv ~docv:"N" (Pwcet.Param.at_least 1)) 1_000_000
         & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples per (benchmark, mechanism).")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"Campaign seed; per-sample RNG streams derive from it.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the BENCH_sim.json document to $(docv).")
  in
  Cmd.v
    (cmd_info "validate"
       ~doc:"Batched fault-injection campaigns: for each benchmark and mechanism, draw N \
             fault patterns from the paper's fault law, time each by replaying the program's \
             fetch trace through the faulty cache, and check the empirical execution-time exceedance curve lies at \
             or below the analytic pWCET at every observed value (within binomial sampling \
             noise) and every sample under its own per-pattern FMM bound. Exits 1 on any \
             violation. Results are bit-identical for every --jobs value.")
    Term.(const run $ benches_arg $ pfail_arg $ samples_arg $ seed_arg $ jobs_arg $ config_term
          $ json_arg)

(* --- audit ------------------------------------------------------------------ *)

let audit_cmd =
  let run pfail config jobs samples seed =
    let failures = ref 0 in
    List.iter
      (fun (e : Benchmarks.Registry.entry) ->
        let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
        let program = compiled.Minic.Compile.program and data = compiled.Minic.Compile.data in
        let task = Pwcet.Estimator.prepare ~program ~config () in
        let trace = Sim.Campaign.trace ~program ~data ~config in
        let ests =
          Pwcet.Estimator.estimates task ~pfail ~mechanisms:Pwcet.Mechanism.all ~jobs ()
        in
        let baseline = List.assoc Pwcet.Mechanism.No_protection ests in
        let reports =
          List.map (fun (_, est) -> Pwcet.Audit.check_estimate est) ests
          @ List.map
              (fun (_, est) -> Pwcet.Audit.check_campaign ~trace ~samples ~seed ~jobs est)
              ests
          @ List.filter_map
              (fun (mech, est) ->
                if Pwcet.Mechanism.equal mech Pwcet.Mechanism.No_protection then None
                else Some (Pwcet.Audit.check_dominance ~baseline ~other:est))
              ests
        in
        let report = Pwcet.Audit.merge reports in
        Format.printf "%-14s %a@." e.Benchmarks.Registry.name Pwcet.Audit.pp_report report;
        if not (Pwcet.Audit.ok report) then incr failures)
      Benchmarks.Registry.all;
    if !failures > 0 then begin
      Printf.printf "\naudit FAILED on %d benchmark(s)\n" !failures;
      exit 1
    end
    else print_endline "\naudit passed: no invariant violations"
  in
  let samples_arg =
    Arg.(value & opt (int_conv ~docv:"N" (Pwcet.Param.at_least 1)) 10
         & info [ "samples" ] ~docv:"N" ~doc:"Sampled fault patterns per (benchmark, mechanism).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed of the fault-injection campaigns.")
  in
  Cmd.v
    (cmd_info "audit"
       ~doc:"Run the runtime invariant auditor over the whole benchmark registry: FMM \
             shape, distribution mass conservation, exceedance monotonicity, the penalty \
             support ceiling, mechanism dominance, and a seeded fault-injection campaign \
             (the one validate runs) whose fault patterns are timed by trace replay against \
             their own FMM bound. Exits 1 on any violation. Results are the same for every \
             --jobs value.")
    Term.(const run $ pfail_arg $ config_term $ jobs_arg $ samples_arg $ seed_arg)

(* --- cache (artifact-store maintenance) -------------------------------------- *)

let cache_dir_required =
  Arg.(required & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc:"The artifact store directory.")

let cache_stat_cmd =
  let run dir =
    let st = Store.Artifact.open_store ~dir () in
    let d = Store.Artifact.disk_stats st in
    Printf.printf "store      : %s\n" (Store.Artifact.root st);
    Printf.printf "objects    : %d (%d bytes)\n" d.Store.Artifact.objects
      d.Store.Artifact.object_bytes;
    Printf.printf "quarantined: %d\n" d.Store.Artifact.quarantined;
    Printf.printf "journals   : %d\n" d.Store.Artifact.journals
  in
  Cmd.v
    (cmd_info "stat" ~doc:"What is in the artifact store: object/journal counts and bytes")
    Term.(const run $ cache_dir_required)

let cache_verify_cmd =
  let run dir =
    let st = Store.Artifact.open_store ~dir () in
    let r = Store.Artifact.verify ~expected:Pwcet.Estimator.artifact_kinds st in
    Printf.printf "checked %d object(s): %d intact, %d corrupt (quarantined), %d stale\n"
      r.Store.Artifact.total r.Store.Artifact.intact
      (List.length r.Store.Artifact.quarantined)
      (List.length r.Store.Artifact.stale);
    List.iter
      (fun (key, e) ->
        Printf.printf "  corrupt %s: %s\n" key (Robust.Pwcet_error.to_string e))
      r.Store.Artifact.quarantined;
    List.iter
      (fun (key, e) ->
        Printf.printf "  stale   %s: %s\n" key (Robust.Pwcet_error.to_string e))
      r.Store.Artifact.stale;
    if r.Store.Artifact.quarantined <> [] then exit 1
  in
  Cmd.v
    (cmd_info "verify"
       ~doc:"Integrity-check every stored artifact; corrupt entries are quarantined (and \
             will be recomputed on next use). Exit 1 if any corruption was found. Intact \
             entries of an outdated format version are reported as stale.")
    Term.(const run $ cache_dir_required)

let cache_gc_cmd =
  let run dir all =
    let st = Store.Artifact.open_store ~dir () in
    let files, bytes = Store.Artifact.gc ~all st in
    Printf.printf "removed %d file(s), %d bytes\n" files bytes
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Drop every object and journal too — a full reset, not just the \
                   quarantine and stale temp files.")
  in
  Cmd.v
    (cmd_info "gc"
       ~doc:"Empty the quarantine and drop stale temp files; with --all, reset the whole \
             store.")
    Term.(const run $ cache_dir_required $ all_arg)

let cache_cmd =
  Cmd.group
    (cmd_info "cache"
       ~doc:"Artifact-store maintenance: stat (disk usage), verify (integrity check every \
             entry), gc (quarantine/full cleanup)")
    [ cache_stat_cmd; cache_verify_cmd; cache_gc_cmd ]

(* --- serve / client (the analysis daemon) ------------------------------------ *)

let exit_overloaded = 3

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "s"; "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on (serve) or connects to (client).")

let serve_cmd =
  let run socket domains queue_max task_cache result_cache cache_dir no_cache max_conns
      read_timeout chaos_plan chaos_seed =
    let setting flag kind v =
      match Service.Scheduler.check_setting kind v with
      | Ok v -> v
      | Error msg ->
        Printf.eprintf "serve: %s %s\n" flag msg;
        exit exit_invalid_input
    in
    let queue_max = setting "--queue-max" Service.Scheduler.Queue_max queue_max in
    let task_cache = setting "--task-cache" Service.Scheduler.Task_cache task_cache in
    let result_cache = setting "--result-cache" Service.Scheduler.Result_cache result_cache in
    (match max_conns with
    | Some n when n < 1 ->
      Printf.eprintf "serve: --max-conns must be at least 1, got %d\n" n;
      exit exit_invalid_input
    | _ -> ());
    (match read_timeout with
    | Some s when s <= 0.0 ->
      Printf.eprintf "serve: --read-timeout must be positive, got %g\n" s;
      exit exit_invalid_input
    | _ -> ());
    let chaos =
      match chaos_plan with
      | None -> None
      | Some name -> (
        match Chaos.Plan.named name with
        | Ok plan -> Some (Chaos.Injector.create ~seed:chaos_seed plan)
        | Error msg ->
          Printf.eprintf "serve: %s\n" msg;
          exit exit_invalid_input)
    in
    let store = store_of cache_dir no_cache in
    let scheduler =
      Service.Scheduler.create
        { Service.Scheduler.domains; queue_max; store; task_cache_max = task_cache;
          result_cache_max = result_cache; chaos }
    in
    let stop = Atomic.make false in
    let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    List.iter
      (fun signal -> try Sys.set_signal signal handle with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    let on_ready () =
      Printf.printf "pwcet_tool serve: listening on %s (domains=%d, queue-max=%d%s)\n%!" socket
        domains queue_max
        (match store with
        | Some st -> Printf.sprintf ", store %s" (Store.Artifact.root st)
        | None -> ", no store")
    in
    match
      Service.Server.run
        { Service.Server.socket_path = socket; scheduler; on_ready; stop; max_conns;
          read_timeout_s = read_timeout; chaos }
    with
    | () ->
      let s = Service.Scheduler.stats scheduler in
      Printf.printf
        "pwcet_tool serve: clean shutdown after %.1f s: %d request(s) (%d computed, %d \
         deduped, %d shed, %d errors)\n"
        s.Service.Protocol.uptime_s s.Service.Protocol.requests s.Service.Protocol.computations
        s.Service.Protocol.deduped s.Service.Protocol.overloaded s.Service.Protocol.errors;
      report_store_stats store;
      exit exit_cancelled
    | exception Service.Server.Already_running msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit 1
  in
  let domains_arg =
    Arg.(value & opt jobs_conv 2
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains computing estimates, between 1 and 256.")
  in
  let queue_max_arg =
    Arg.(value & opt int 64
         & info [ "queue-max" ] ~docv:"N"
             ~doc:"Bound on queued (not yet running) computations; beyond it requests are \
                   shed with a typed overloaded response instead of queuing unboundedly.")
  in
  let task_cache_arg =
    Arg.(value & opt int 32
         & info [ "task-cache" ] ~docv:"N"
             ~doc:"Prepared analysis tasks kept in memory (FIFO-evicted), so warm requests \
                   skip CFG recovery and cache analysis entirely.")
  in
  let result_cache_arg =
    Arg.(value & opt int 256
         & info [ "result-cache" ] ~docv:"N"
             ~doc:"Completed estimates kept in memory (FIFO-evicted) and returned directly \
                   for repeat requests; 0 disables the layer so every warm request replays \
                   from the artifact store instead.")
  in
  let max_conns_arg =
    Arg.(value & opt (some int) None
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Connection admission cap: beyond N concurrently served connections, new \
                   ones are refused at accept with a typed overloaded response — the \
                   fd/thread analogue of --queue-max. Default: unbounded.")
  in
  let read_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-frame read deadline: a client stalling mid-request longer than this \
                   is shed with a typed overloaded response and disconnected (slow-loris \
                   defence). Default: wait forever.")
  in
  let chaos_plan_arg =
    Arg.(value & opt (some string) None
         & info [ "chaos-plan" ] ~docv:"PLAN"
             ~doc:"Arm deterministic fault injection inside the daemon using the named \
                   built-in plan (none, store, workers, pool, service, all) — worker-domain \
                   deaths, stalled and reset transfers. For soak testing only.")
  in
  let chaos_seed_arg =
    Arg.(value & opt int 0
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed for --chaos-plan; the fault schedule is a pure function of \
                   (seed, site, occurrence).")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:"Long-running pWCET analysis daemon: length-prefixed JSON over a Unix socket, \
             concurrent requests fanned across worker domains, identical in-flight \
             requests deduplicated by content-addressed identity, admission control with \
             typed load shedding, per-request deadlines on the degradation ladder, and the \
             artifact store as a warm cross-restart cache. SIGTERM/SIGINT shut it down \
             cleanly (in-flight responses finish, the store is left consistent, the \
             socket is removed); it then exits 130 like every signal-ended run.")
    Term.(const run $ socket_arg $ domains_arg $ queue_max_arg $ task_cache_arg
          $ result_cache_arg $ cache_dir_arg $ no_cache_arg $ max_conns_arg
          $ read_timeout_arg $ chaos_plan_arg $ chaos_seed_arg)

(* --- sched (probabilistic schedulability) ------------------------------------ *)

(* One --mechanism option for every command that takes a single
   mechanism. Its default depends on the request: the campaign default
   (SRB) for sched, no protection for the client's analyze op. *)
let mechanism_opt_arg =
  let mechanism = param_conv ~docv:"MECH" Pwcet.Param.mechanism Pwcet.Mechanism.short_name in
  Arg.(value & opt (some mechanism) None
       & info [ "mechanism" ] ~docv:"MECH"
           ~doc:"Mechanism: 'none', 'srb' or 'rw' (default: 'srb' for a sched campaign, \
                 'none' for the client's analyze op).")

(* The campaign options, defaulted from Campaign.default, and the
   --mechanism option as given, for the client's analyze op.
   Campaign.make validates the whole spec, exactly as the daemon's sched
   decoder does; a command that runs the campaign exits 2 on a spec it
   rejects ([campaign]). *)
let sched_term =
  let d = Sched.Campaign.default in
  let count_arg =
    Arg.(value & opt int d.count & info [ "count" ] ~docv:"N" ~doc:"Task sets in the campaign.")
  in
  let n_tasks_arg =
    Arg.(value & opt int d.n_tasks & info [ "n-tasks" ] ~docv:"N" ~doc:"Tasks per set.")
  in
  let utilisation_arg =
    Arg.(value & opt positive_conv d.utilisation
         & info [ "utilisation" ] ~docv:"U"
             ~doc:"Total utilisation UUniFast splits across the set, in (0, n-tasks].")
  in
  let seed_arg =
    Arg.(value & opt int d.seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed; task set $(i,i) is a pure function of (seed, i).")
  in
  let policy_arg =
    let policy =
      param_conv ~docv:"POLICY" Sched.Analysis.policy_of_string Sched.Analysis.policy_name
    in
    Arg.(value & opt policy d.policy
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Scheduling policy: 'rm' (default) or 'edf'.")
  in
  let reexec_arg =
    Arg.(value & opt int d.reexec_budget
         & info [ "reexec" ] ~docv:"K"
             ~doc:"Re-execution budget k: a fault-flagged job re-runs up to $(docv) times \
                   (k+1 executions in total) before it counts as failed.")
  in
  let k_max_arg =
    Arg.(value & opt int d.k_max
         & info [ "k-max" ] ~docv:"K"
             ~doc:"Top of the minimal-budget scan reported per target; at least --reexec.")
  in
  let sched_targets_arg =
    Arg.(value & opt targets_conv d.targets
         & info [ "targets" ] ~docv:"P,P,..."
             ~doc:"Per-hour deadline-failure-rate targets (default 1e-3,1e-5,1e-7,1e-9).")
  in
  let fault_rate_arg =
    Arg.(value & opt (float_conv ~docv:"P" Pwcet.Param.rate) d.fault_rate
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Transient (detected) fault probability per hour of execution, in [0, 1), \
                   composed per execution in log space.")
  in
  let clock_arg =
    Arg.(value & opt positive_conv d.clock_mhz
         & info [ "clock-mhz" ] ~docv:"MHZ" ~doc:"Processor clock, for cycles-per-hour.")
  in
  let rep_target_arg =
    Arg.(value & opt prob_conv d.rep_target
         & info [ "rep-target" ] ~docv:"P"
             ~doc:"Quantile of each task's pWCET law provisioning its per-execution budget \
                   (and fault-exposure window).")
  in
  let max_points_arg =
    Arg.(value & opt int d.max_points
         & info [ "max-points" ] ~docv:"N"
             ~doc:"Convolution support cap for the sched layer; capping is recorded as \
                   degraded (relaxed-rung) provenance and only ever rounds upward.")
  in
  let benchmarks_arg =
    Arg.(value & opt (list ~sep:',' string) []
         & info [ "benchmarks" ] ~docv:"NAME,NAME,..."
             ~doc:"Benchmarks tasks draw from (default: the whole registry).")
  in
  let build count n_tasks utilisation seed policy reexec_budget k_max targets pfail mechanism
      (config : Cache.Config.t) fault_rate clock_mhz rep_target max_points benchmarks =
    ( mechanism,
      Sched.Campaign.make ~count ~n_tasks ~utilisation ~seed ~policy ~reexec_budget ~k_max
        ~targets ~pfail ?mechanism ~sets:config.sets ~ways:config.ways ~line:config.line_bytes
        ~fault_rate ~clock_mhz ~rep_target ~max_points ~benchmarks () )
  in
  Term.(const build $ count_arg $ n_tasks_arg $ utilisation_arg $ seed_arg $ policy_arg
        $ reexec_arg $ k_max_arg $ sched_targets_arg $ pfail_arg $ mechanism_opt_arg
        $ config_term $ fault_rate_arg $ clock_arg $ rep_target_arg $ max_points_arg
        $ benchmarks_arg)

let campaign = function
  | Ok spec -> spec
  | Error msg ->
    Printf.eprintf "sched: %s\n" msg;
    exit exit_invalid_input

let sched_spec_term = Term.(const (fun (_, spec) -> campaign spec) $ sched_term)

let sched_generate_cmd =
  let run (spec : Sched.Campaign.spec) =
    for index = 0 to spec.count - 1 do
      let ts = Sched.Taskset.generate (Sched.Campaign.taskset_spec spec) ~index in
      Printf.printf "set %4d  U=%.4f " index (Sched.Taskset.total_utilisation ts);
      List.iter
        (fun (t : Sched.Taskset.task) -> Printf.printf " %s:%.4f" t.bench t.utilisation)
        ts.tasks;
      print_newline ()
    done
  in
  Cmd.v
    (cmd_info "generate"
       ~doc:"Print the campaign's UUniFast task sets (pure function of seed and index)")
    Term.(const run $ sched_spec_term)

let mc_samples_arg =
  Arg.(value & opt int 0
       & info [ "mc-samples" ] ~docv:"N"
           ~doc:"Cross-validate each analysed set against $(docv) Monte-Carlo scheduler \
                 samples (empirical deadline misses must stay under the analytic bound \
                 plus 5-sigma noise); 0 (default) skips validation.")

let mc_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "mc-seed" ] ~docv:"N"
           ~doc:"Seed of the Monte-Carlo cross-validation (default: the campaign seed).")

(* Sets whose verdict at [target] is a pass. *)
let sets_passing target results =
  List.length
    (List.filter
       (fun (r : Sched.Campaign.set_result) -> List.assoc_opt target r.passes = Some true)
       results)

let print_sched_summary (spec : Sched.Campaign.spec) results digest =
  let count = List.length results in
  Printf.printf "campaign    : %d set(s) x %d task(s), U=%g, policy %s, k=%d (scan to %d)\n"
    count spec.n_tasks spec.utilisation
    (Sched.Analysis.policy_name spec.policy)
    spec.reexec_budget spec.k_max;
  Printf.printf "model       : %s, pfail %g, fault rate %g/h @ %g MHz, rep target %g\n"
    (Pwcet.Mechanism.short_name spec.mechanism)
    spec.pfail spec.fault_rate spec.clock_mhz spec.rep_target;
  List.iter
    (fun target ->
      let passed = sets_passing target results in
      let feasible =
        List.length
          (List.filter
             (fun (r : Sched.Campaign.set_result) ->
               match List.assoc_opt target r.min_budget with
               | Some (Some _) -> true
               | _ -> false)
             results)
      in
      Printf.printf "  target %-8g: %4d/%d pass at k=%d, %4d feasible within k<=%d\n" target
        passed count spec.reexec_budget feasible spec.k_max)
    spec.targets;
  let count_if pred = List.length (List.filter pred results) in
  Printf.printf "degraded    : %d set(s) on budget-exhausted upper bounds\n"
    (count_if (fun (r : Sched.Campaign.set_result) -> r.degraded));
  Printf.printf "capped      : %d set(s) with max-points provenance\n"
    (count_if (fun (r : Sched.Campaign.set_result) -> r.capped));
  let worst =
    List.fold_left
      (fun acc (r : Sched.Campaign.set_result) -> Float.max acc r.p_system_hour)
      0.0 results
  in
  Printf.printf "worst system: %g /h\n" worst;
  Printf.printf "digest      : %s\n" digest

let print_sched_per_set results =
  List.iter
    (fun (r : Sched.Campaign.set_result) ->
      Printf.printf "  set %4d: p_system %.3e /h%s%s%s\n" r.set_index r.p_system_hour
        (rung_tag r.rung)
        (if r.capped then "  [capped]" else "")
        (if r.degraded then "  [degraded]" else ""))
    results

let sched_json results (spec : Sched.Campaign.spec) digest file =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema_version\": 1,\n";
  Printf.bprintf buf "  \"count\": %d,\n" (List.length results);
  Printf.bprintf buf "  \"n_tasks\": %d,\n" spec.n_tasks;
  Printf.bprintf buf "  \"utilisation\": %.17g,\n" spec.utilisation;
  Printf.bprintf buf "  \"seed\": %d,\n" spec.seed;
  Printf.bprintf buf "  \"policy\": %S,\n" (Sched.Analysis.policy_name spec.policy);
  Printf.bprintf buf "  \"reexec_budget\": %d,\n" spec.reexec_budget;
  Printf.bprintf buf "  \"k_max\": %d,\n" spec.k_max;
  Printf.bprintf buf "  \"pfail\": %.17g,\n" spec.pfail;
  Printf.bprintf buf "  \"mechanism\": %S,\n" (Pwcet.Mechanism.short_name spec.mechanism);
  Printf.bprintf buf "  \"fault_rate\": %.17g,\n" spec.fault_rate;
  Printf.bprintf buf "  \"clock_mhz\": %.17g,\n" spec.clock_mhz;
  Printf.bprintf buf "  \"targets\": [%s],\n" (json_floats spec.targets);
  Printf.bprintf buf "  \"digest\": %S,\n" digest;
  Buffer.add_string buf "  \"sets\": [\n";
  List.iteri
    (fun i (r : Sched.Campaign.set_result) ->
      Printf.bprintf buf "    { \"index\": %d, \"p_system_hour\": %.17g, \"rung\": %S,\n"
        r.set_index r.p_system_hour
        (Robust.Rung.to_string r.rung);
      Printf.bprintf buf "      \"capped\": %b, \"degraded\": %b,\n" r.capped r.degraded;
      Printf.bprintf buf "      \"passes\": [%s],\n"
        (String.concat ", " (List.map (fun (_, ok) -> string_of_bool ok) r.passes));
      Printf.bprintf buf "      \"min_budget\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun (_, k) -> match k with None -> "null" | Some k -> string_of_int k)
              r.min_budget));
      Printf.bprintf buf "      \"tasks\": [\n";
      List.iteri
        (fun j (row : Sched.Campaign.task_row) ->
          Printf.bprintf buf
            "        { \"bench\": %S, \"utilisation\": %.17g, \"period\": %d, \"p_exec\": \
             %.17g, \"p_job\": %.17g, \"p_hour\": %.17g }%s\n"
            row.bench row.utilisation row.period row.p_exec row.p_job row.p_hour
            (if j = List.length r.rows - 1 then "" else ","))
        r.rows;
      Printf.bprintf buf "      ] }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string buf "  ]\n}\n";
  write_json file buf;
  Printf.printf "wrote %s\n" file

let sched_analyze_cmd =
  let run (spec : Sched.Campaign.spec) mc_samples mc_seed json_file per_set opts =
    let journal =
      { units = "set(s)"; run_key = Sched.Campaign.identity spec;
        encode = Sched.Campaign.result_to_wire; decode = Sched.Campaign.result_of_wire;
        key = (fun (r : Sched.Campaign.set_result) -> r.set_index) }
    in
    (* Replayed sets skip Monte-Carlo re-validation: they were validated
       when first computed, and the digest covers only the analytic
       results either way. *)
    let compute (b : _ batch) =
      let laws = Sched.Campaign.laws ?store:b.store ?budget:b.budget ~jobs:opts.jobs spec in
      Sched.Campaign.run_with_laws ?budget:b.budget ~jobs:opts.jobs ~mc_samples ?mc_seed
        ~skip:b.replay ~on_result:b.completed spec laws
    in
    let report _ (t : Sched.Campaign.t) =
      print_sched_summary spec t.results t.digest;
      if per_set then print_sched_per_set t.results;
      let mc_failures =
        List.filter (fun ((_ : int), (m : Sched.Montecarlo.t)) -> not m.pass) t.mc
      in
      if mc_samples > 0 && mc_failures = [] then
        Printf.printf "monte-carlo : %d set(s) x %d sample(s): analytic bounds hold\n"
          (List.length t.mc) mc_samples;
      List.iter
        (fun (index, (m : Sched.Montecarlo.t)) ->
          List.iteri
            (fun i (s : Sched.Montecarlo.task_stat) ->
              if not s.pass then
                Printf.eprintf
                  "monte-carlo VIOLATION: set %d task %d: empirical %.3e > analytic %.3e \
                   + noise %.3e\n"
                  index i s.empirical s.analytic s.noise)
            m.tasks)
        mc_failures;
      Option.iter (sched_json t.results spec t.digest) json_file;
      mc_failures = []
    in
    run_batch ~label:"sched analyze" ~journal opts ~compute ~report
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the campaign results as JSON.")
  in
  let per_set_arg =
    Arg.(value & flag & info [ "per-set" ] ~doc:"Print one line per analysed task set.")
  in
  Cmd.v
    (cmd_info "analyze"
       ~doc:"Deadline-failure-probability campaign: per-benchmark pWCET laws once (store- \
             backed), then UUniFast task sets analysed under bounded re-execution, with \
             per-target verdicts, minimal budgets, journal resume and optional Monte-Carlo \
             cross-validation")
    Term.(const run $ sched_spec_term $ mc_samples_arg $ mc_seed_arg $ json_arg $ per_set_arg
          $ run_opts_term)

let sched_sweep_cmd =
  let run (spec : Sched.Campaign.spec) jobs ilp_nodes timeout u_grid n_grid pfail_grid
      json_file cache_dir no_cache =
    let opts =
      { jobs; ilp_nodes; timeout; cache_dir; no_cache; resume = false; crash_after = None }
    in
    let u_grid = match u_grid with [] -> [ spec.utilisation ] | g -> g in
    let n_grid = match n_grid with [] -> [ spec.n_tasks ] | g -> g in
    (* The expensive per-benchmark estimates depend on pfail but not on
       the task-set shape: one law pool serves each pfail's whole
       utilisation x n-tasks sub-grid. *)
    let slices =
      List.map
        (fun pfail ->
          ( pfail,
            List.concat_map
              (fun n_tasks ->
                List.map (fun utilisation -> { spec with pfail; n_tasks; utilisation }) u_grid)
              n_grid ))
        (match pfail_grid with [] -> [ spec.pfail ] | g -> g)
    in
    let compute (b : _ batch) =
      (* Validate every grid combination before computing anything. *)
      List.iter
        (fun (_, specs) ->
          List.iter
            (fun (spec' : Sched.Campaign.spec) ->
              match Sched.Campaign.validate spec' with
              | Ok () -> ()
              | Error msg ->
                Printf.eprintf "sched sweep: pfail=%g n=%d U=%g: %s\n" spec'.pfail
                  spec'.n_tasks spec'.utilisation msg;
                exit exit_invalid_input)
            specs)
        slices;
      List.concat_map
        (fun (pfail, specs) ->
          let laws =
            Sched.Campaign.laws ?store:b.store ?budget:b.budget ~jobs { spec with pfail }
          in
          List.map
            (fun spec' ->
              ( spec',
                Sched.Campaign.run_with_laws ?budget:b.budget ~jobs ~on_result:b.completed spec'
                  laws ))
            specs)
        slices
    in
    let report _ rows =
      Printf.printf "%-10s %-7s %-8s" "pfail" "n-tasks" "U";
      List.iter (fun t -> Printf.printf "  pass(%g)" t) spec.targets;
      print_newline ();
      List.iter
        (fun ((spec' : Sched.Campaign.spec), (t : Sched.Campaign.t)) ->
          Printf.printf "%-10g %-7d %-8g" spec'.pfail spec'.n_tasks spec'.utilisation;
          List.iter
            (fun target ->
              Printf.printf "  %4d/%-4d" (sets_passing target t.results) (List.length t.results))
            spec'.targets;
          print_newline ())
        rows;
      (match json_file with
      | None -> ()
      | Some file ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\n  \"schema_version\": 1,\n  \"points\": [\n";
        List.iteri
          (fun i ((spec' : Sched.Campaign.spec), (t : Sched.Campaign.t)) ->
            Printf.bprintf buf
              "    { \"pfail\": %.17g, \"n_tasks\": %d, \"utilisation\": %.17g, \"digest\": \
               %S,\n      \"targets\": [%s],\n      \"pass\": [%s] }%s\n"
              spec'.pfail spec'.n_tasks spec'.utilisation t.digest
              (json_floats spec'.targets)
              (String.concat ", "
                 (List.map
                    (fun target -> string_of_int (sets_passing target t.results))
                    spec'.targets))
              (if i = List.length rows - 1 then "" else ","))
          rows;
        Buffer.add_string buf "  ]\n}\n";
        write_json file buf;
        Printf.printf "wrote %s\n" file);
      true
    in
    run_batch ~label:"sched sweep" opts ~compute ~report
  in
  let u_grid_arg =
    Arg.(value & opt (list ~sep:',' positive_conv) []
         & info [ "utilisation-grid" ] ~docv:"U,U,..."
             ~doc:"Total-utilisation grid (default: just --utilisation).")
  in
  let n_grid_arg =
    Arg.(value & opt (list ~sep:',' int) []
         & info [ "n-tasks-grid" ] ~docv:"N,N,..."
             ~doc:"Tasks-per-set grid (default: just --n-tasks).")
  in
  let sweep_pfail_grid_arg =
    Arg.(value & opt (list ~sep:',' prob_conv) []
         & info [ "pfail-grid" ] ~docv:"P,P,..."
             ~doc:"pfail grid; the per-benchmark laws are computed once per pfail and \
                   shared across the whole utilisation x n-tasks sub-grid.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Also write the sweep table as JSON.")
  in
  Cmd.v
    (cmd_info "sweep"
       ~doc:"Schedulability sweep over utilisation x n-tasks x pfail grids, amortising the \
             per-benchmark pWCET laws across each pfail slice")
    Term.(const run $ sched_spec_term $ jobs_arg $ ilp_nodes_arg $ timeout_arg $ u_grid_arg
          $ n_grid_arg $ sweep_pfail_grid_arg $ json_arg $ cache_dir_arg $ no_cache_arg)

let sched_cmd =
  Cmd.group
    (cmd_info "sched"
       ~doc:"Probabilistic schedulability: UUniFast task-set campaigns over the suite's \
             pWCET laws, with bounded re-execution, per-hour reliability targets and \
             Monte-Carlo cross-validation")
    [ sched_generate_cmd; sched_analyze_cmd; sched_sweep_cmd ]

(* --- client (talks to a running daemon) -------------------------------------- *)

let client_cmd =
  let run socket op bench pfail target config engine exact timeout_ms delay_ms bench_load
      clients requests retries retry_base_ms hold_ms (mechanism, spec) grid_benchmarks
      grid_geometries grid_mechanisms grid_pfails grid_targets =
    if retries < 0 || retry_base_ms < 0 then begin
      Printf.eprintf "client: --retries and --retry-base-ms must be non-negative\n";
      exit exit_invalid_input
    end;
    (* The one reply handling of every op: [select] picks the expected
       reply; a shed request exits 3, and a daemon error, an unexpected
       reply or a transport failure exits 1. *)
    let ask ~what select req =
      let fail msg =
        Printf.eprintf "client: %s\n" msg;
        exit 1
      in
      match
        Service.Client.request_with_retry ~socket ~retries ~base_ms:retry_base_ms req
      with
      | Ok (Service.Protocol.Overloaded { queued; queue_max }) ->
        Printf.eprintf "client: request shed by admission control (%d/%d queued%s)\n" queued
          queue_max
          (if retries > 0 then Printf.sprintf " after %d retries" retries else "");
        exit exit_overloaded
      | Ok (Service.Protocol.Error_reply msg) -> fail ("daemon error: " ^ msg)
      | Ok reply -> (
        match select reply with Some r -> r | None -> fail ("unexpected response to " ^ what))
      | Error msg -> fail msg
    in
    let print_stats (s : Service.Protocol.stats_payload) =
      Printf.printf "requests     : %d\n" s.requests;
      Printf.printf "computations : %d\n" s.computations;
      Printf.printf "deduped      : %d\n" s.deduped;
      Printf.printf "overloaded   : %d\n" s.overloaded;
      Printf.printf "errors       : %d\n" s.errors;
      Printf.printf "queued       : %d\n" s.queued;
      Printf.printf "crashed      : %d\n" s.crashed_workers;
      Printf.printf "respawned    : %d\n" s.respawned_workers;
      Printf.printf "slow-clients : %d\n" s.slow_clients;
      Printf.printf "rejected     : %d\n" s.rejected_conns;
      Option.iter
        (fun (hits, misses, puts) ->
          Printf.printf "store        : %d hits, %d misses, %d puts\n" hits misses puts)
        s.store;
      Printf.printf "uptime       : %.1f s\n" s.uptime_s
    in
    match op with
    | `Ping ->
      ask ~what:"ping" (function Service.Protocol.Pong -> Some () | _ -> None)
        Service.Protocol.Ping;
      print_endline "pong"
    | `Stats ->
      print_stats
        (ask ~what:"stats"
           (function Service.Protocol.Stats_reply s -> Some s | _ -> None)
           Service.Protocol.Stats)
    | `Sched ->
      let spec = campaign spec in
      let r =
        ask ~what:"sched"
          (function Service.Protocol.Sched_reply r -> Some r | _ -> None)
          (Service.Protocol.Sched spec)
      in
      Printf.printf "analyzed : %d task set(s)\n" r.analyzed;
      Printf.printf "passes   : %d (every target, at k=%d)\n" r.passes spec.reexec_budget;
      Printf.printf "degraded : %d\n" r.degraded;
      Printf.printf "digest   : %s\n" r.digest;
      Printf.printf "computed : %b\n" r.sched_computed
    | `Grid ->
      let benchmarks =
        match (grid_benchmarks, bench) with
        | [], None ->
          Printf.eprintf
            "client: grid needs a TARGET benchmark name or --grid-benchmarks\n";
          exit exit_invalid_input
        | [], Some b -> [ b ]
        | bs, _ -> bs
      in
      let r =
        ask ~what:"grid"
          (function Service.Protocol.Grid_reply r -> Some r | _ -> None)
          (Service.Protocol.Grid
             { g_benchmarks = benchmarks; g_geometries = grid_geometries;
               g_mechanisms = List.concat grid_mechanisms; g_pfails = grid_pfails;
               g_targets = grid_targets; g_engine = engine; g_exact = exact })
      in
      Printf.printf "cells    : %d (%d failed)\n" r.cells r.failed;
      Printf.printf "digest   : %s\n" r.grid_digest;
      Printf.printf "computed : %b\n" r.grid_computed;
      if r.failed > 0 then exit 1
    | `Stall ->
      (* Slow-loris probe: each connection sends a deliberately
         unfinished frame (3 of the 8 length-prefix bytes) and then
         goes silent, exactly the shape the daemon's --read-timeout
         exists to shed. Counts how many connections were answered
         with the typed overloaded response before [--hold-ms]
         expired. *)
      if clients < 1 then begin
        Printf.eprintf "client: --clients must be at least 1\n";
        exit exit_invalid_input
      end;
      let hold_s = float_of_int hold_ms /. 1000.0 in
      let shed = ref 0 and lock = Mutex.create () in
      let one () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Unix.connect fd (Unix.ADDR_UNIX socket) with
            | exception Unix.Unix_error _ -> ()
            | () ->
              let partial = Bytes.of_string "\x03\x00\x00" in
              (match Unix.write fd partial 0 (Bytes.length partial) with
              | _ -> ()
              | exception Unix.Unix_error _ -> ());
              let deadline = Robust.Budget.now () +. hold_s in
              (match Service.Frame.read_within ~deadline fd with
              | Ok (Some payload) -> (
                match Service.Protocol.response_of_string payload with
                | Ok (Service.Protocol.Overloaded _) ->
                  Mutex.lock lock;
                  incr shed;
                  Mutex.unlock lock
                | Ok _ | Error _ -> ())
              | Ok None | Error _ -> ()
              | exception Unix.Unix_error _ -> ()))
      in
      let threads = List.init clients (fun _ -> Thread.create one ()) in
      List.iter Thread.join threads;
      Printf.printf "stalled : %d\n" clients;
      Printf.printf "shed    : %d\n" !shed
    | `Analyze ->
      let bench =
        match bench with
        | Some bench -> bench
        | None ->
          Printf.eprintf "client: analyze needs a TARGET benchmark name\n";
          exit exit_invalid_input
      in
      let req =
        { (Service.Protocol.default_analyze ~bench) with
          pfail; target;
          mechanism = Option.value mechanism ~default:Pwcet.Mechanism.No_protection;
          sets = config.Cache.Config.sets; ways = config.ways; line = config.line_bytes;
          engine; exact; timeout_ms; delay_ms }
      in
      if bench_load then begin
        if clients < 1 || requests < 1 then begin
          Printf.eprintf "client: --clients and --requests must be at least 1\n";
          exit exit_invalid_input
        end;
        let report = Service.Client.load ~socket ~clients ~requests [ req ] in
        Format.printf "%a@." Service.Client.pp_load_report report;
        if report.Service.Client.errors > 0 then exit 1
      end
      else begin
        let r =
          ask ~what:"analyze"
            (function Service.Protocol.Result r -> Some r | _ -> None)
            (Service.Protocol.Analyze req)
        in
        Printf.printf "benchmark      : %s\n" req.bench;
        Printf.printf "mechanism      : %s\n" (Pwcet.Mechanism.short_name req.mechanism);
        Printf.printf "fault-free WCET: %d cycles\n" r.wcet_ff;
        Printf.printf "pbf            : %g\n" r.pbf;
        Printf.printf "pWCET(%g) = %d cycles%s\n" target r.pwcet
          (if r.rung = "exact" then "" else Printf.sprintf "  [degraded: %s]" r.rung);
        Printf.printf "computed       : %b\n" r.computed
      end
  in
  let op_arg =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("ping", `Ping); ("stats", `Stats); ("analyze", `Analyze);
                     ("sched", `Sched); ("grid", `Grid); ("stall", `Stall) ]))
             None
         & info [] ~docv:"OP" ~doc:"ping, stats, analyze, sched, grid, or stall.")
  in
  let client_bench_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"TARGET" ~doc:"Benchmark name (analyze and grid only).")
  in
  let grid_benchmarks_arg =
    Arg.(value & opt (list ~sep:',' string) []
         & info [ "grid-benchmarks" ] ~docv:"B,B,..."
             ~doc:"Benchmarks for the grid op (overrides the positional TARGET).")
  in
  let grid_geometries_arg =
    Arg.(value & opt geometries_conv [ Cache.Config.paper_default ]
         & info [ "grid-geometries" ] ~docv:"SxW[xL],..."
             ~doc:"Cache geometries for the grid op, as in the grid subcommand.")
  in
  let grid_mechanisms_arg =
    Arg.(value & opt mechanism_lists_conv [ Pwcet.Mechanism.all ]
         & info [ "grid-mechanisms" ] ~docv:"MECH,..."
             ~doc:"Mechanisms for the grid op: none, srb, rw, or all (default).")
  in
  let grid_pfails_arg =
    Arg.(value & opt pfails_conv Pwcet.Param.pfail_grid
         & info [ "grid-pfails" ] ~docv:"P,P,..." ~doc:"Pfail grid for the grid op.")
  in
  let grid_targets_arg =
    Arg.(value & opt targets_conv [ Pwcet.Param.target ]
         & info [ "grid-targets" ] ~docv:"P,P,..."
             ~doc:"Exceedance targets for the grid op.")
  in
  let timeout_ms_arg =
    Arg.(value & opt (some (int_conv ~docv:"MS" (Pwcet.Param.at_least 1))) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline in milliseconds, enforced on the daemon's monotonic \
                   clock; bounds that start after it fall down the degradation ladder \
                   (still sound). Budgeted requests bypass the daemon's caches and dedup.")
  in
  let delay_ms_arg =
    Arg.(value & opt (int_conv ~docv:"MS" (Pwcet.Param.at_least 0)) 0
         & info [ "delay-ms" ] ~docv:"MS"
             ~doc:"Testing hook: ask the daemon to sleep this long inside the computation, \
                   widening the dedup/overload windows deterministically.")
  in
  let load_arg =
    Arg.(value & flag
         & info [ "bench" ]
             ~doc:"Concurrent-load generator: --clients threads each issue --requests \
                   copies of this analyze request over their own connection, then report \
                   throughput and p50/p95/p99 latency.")
  in
  let clients_arg =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Load-generator connections.")
  in
  let requests_arg =
    Arg.(value & opt int 16
         & info [ "requests" ] ~docv:"N" ~doc:"Requests per load-generator connection.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a shed (overloaded) analyze/sched request up to $(docv) more \
                   times with jittered exponential backoff before giving up with exit 3. \
                   Only typed shedding is retried; errors are final.")
  in
  let retry_base_arg =
    Arg.(value & opt int 50
         & info [ "retry-base-ms" ] ~docv:"MS"
             ~doc:"Base backoff delay: retry $(i,i) sleeps base * 2^i * (0.5 + jitter) ms.")
  in
  let hold_ms_arg =
    Arg.(value & opt int 2000
         & info [ "hold-ms" ] ~docv:"MS"
             ~doc:"For the stall op: how long each stalled connection waits for the \
                   daemon's verdict before giving up. Must exceed the daemon's \
                   --read-timeout for the shed count to be meaningful.")
  in
  let exits =
    Cmd.Exit.info exit_overloaded
      ~doc:"when the daemon sheds the request via admission control (typed overloaded \
            response) and --retries attempts were exhausted; retry later or against a \
            less loaded daemon."
    :: exits
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running analysis daemon: single ping/stats/analyze round trips, \
             bulk sched campaigns (same options as the sched subcommands, digest-identical \
             to a local run), or the --bench concurrent-load generator."
       ~exits)
    Term.(const run $ socket_arg $ op_arg $ client_bench_arg $ pfail_arg $ target_arg
          $ config_term $ engine_arg $ exact_arg $ timeout_ms_arg $ delay_ms_arg $ load_arg
          $ clients_arg $ requests_arg $ retries_arg $ retry_base_arg $ hold_ms_arg $ sched_term
          $ grid_benchmarks_arg $ grid_geometries_arg $ grid_mechanisms_arg
          $ grid_pfails_arg $ grid_targets_arg)

(* --- source ------------------------------------------------------------------ *)

let source_cmd =
  let run name =
    let _, prog = load_target name in
    Format.printf "%a@." Minic.Ast.pp_program prog
  in
  Cmd.v (cmd_info "source" ~doc:"Print the mini-C source of a benchmark")
    Term.(const run $ bench_arg)

(* --- refined (future-work SRB analysis) ------------------------------------- *)

let refined_cmd =
  let run name pfail target jobs =
    let _, compiled = compile_target name in
    let config = Cache.Config.paper_default in
    let pbf = Fault.Model.pbf_of_config ~pfail config in
    let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
    let ff = Pwcet.Estimator.fault_free_wcet task in
    let srb =
      Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer
        ~jobs ()
    in
    let refined =
      Pwcet.Srb_refined.compute ~graph:task.Pwcet.Estimator.graph
        ~loops:task.Pwcet.Estimator.loops ~config ~pbf ()
    in
    let q_srb = Pwcet.Estimator.pwcet srb ~target in
    let q_ref = ff + Pwcet.Srb_refined.quantile refined ~target in
    Printf.printf "benchmark            : %s (pfail %g, target %g)\n" name pfail target;
    Printf.printf "fault-free WCET      : %d\n" ff;
    Printf.printf "SRB pWCET (paper)    : %d\n" q_srb;
    Printf.printf "SRB pWCET (refined)  : %d  (gain %.1f%%)\n" q_ref
      (100.0 *. float_of_int (q_srb - q_ref) /. float_of_int (max 1 q_srb));
    Printf.printf "\nexclusive dead-set miss bounds vs conservative FMM column:\n";
    let excl = Pwcet.Srb_refined.exclusive_dead_set_misses refined in
    Array.iteri
      (fun s e ->
        Printf.printf "  set %2d: exclusive %6d   conservative %6d\n" s e
          (Pwcet.Fmm.misses srb.Pwcet.Estimator.fmm ~set:s ~faulty:config.Cache.Config.ways))
      excl
  in
  Cmd.v
    (cmd_info "refined"
       ~doc:"Refined SRB analysis (the paper's future-work direction) vs the paper's bound")
    Term.(const run $ bench_arg $ pfail_arg $ target_arg $ jobs_arg)


(* --- chaos (deterministic fault-injection soak) ------------------------------ *)

(* The soak ([Soak.run]) behind scripts/check_chaos.sh: prints the failing
   (or, with --verbose, every) campaign, the tallies and the soak digest.
   Exit 1 on any corrupt or escape. *)

let chaos_cmd =
  let run campaigns seed plan_name jobs dir_opt verbose =
    let plan =
      match Chaos.Plan.named plan_name with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "chaos: %s\n" msg;
        exit exit_invalid_input
    in
    let dir =
      match dir_opt with
      | Some d -> d
      | None ->
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "pwcet_chaos.%d" (Unix.getpid ()))
    in
    let report =
      try Soak.run ~campaigns ~seed ~plan ~jobs ~dir with
      | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "chaos: %s %s: %s\n" fn arg (Unix.error_message e);
        exit exit_invalid_input
    in
    let failed (c : Soak.campaign) = c.verdict = Soak.Corrupt || c.verdict = Soak.Escape in
    List.iter
      (fun (c : Soak.campaign) ->
        if verbose || failed c then
          Printf.printf "campaign %3d  %-7s  %-7s%s\n" c.index c.workload
            (Soak.verdict_name c.verdict)
            (match c.detail with None -> "" | Some m -> "  " ^ m))
      report.Soak.campaigns;
    Printf.printf "plan        : %s  (seed %d, %d campaigns, jobs %d)\n" plan.Chaos.Plan.name
      seed campaigns jobs;
    List.iter
      (fun workload ->
        let n = Soak.count ~workload report in
        Printf.printf "%-12s: %d run, %d match, %d typed, %d corrupt, %d escape\n" workload
          (n Soak.Match + n Soak.Typed + n Soak.Corrupt + n Soak.Escape)
          (n Soak.Match) (n Soak.Typed) (n Soak.Corrupt) (n Soak.Escape))
      Soak.workloads;
    Printf.printf "injected    : %d faults\n" report.Soak.injected;
    Printf.printf "soak digest : %s\n" report.Soak.digest;
    if List.exists failed report.Soak.campaigns then begin
      Printf.printf "verdict     : FAIL — %d silent corruption(s), %d escape(s)\n"
        (Soak.count report Soak.Corrupt) (Soak.count report Soak.Escape);
      exit 1
    end
    else Printf.printf "verdict     : OK — every campaign bit-identical or typed\n"
  in
  let campaigns_arg =
    Arg.(value & opt (int_conv ~docv:"N" (Pwcet.Param.at_least 1)) 200
         & info [ "campaigns" ] ~docv:"N" ~doc:"Soak campaigns to run (cycling workloads).")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Soak seed; every campaign's fault schedule is a pure function of \
                   ($(docv), campaign index).")
  in
  let plan_arg =
    Arg.(value & opt string "all"
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan: none, store, workers, pool, service, or all (default).")
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Scratch directory for the per-campaign stores and journals \
                   (default: a fresh one under the system temp dir). Cleaned as the \
                   soak goes.")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Print one line per campaign, not just the failures.")
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:"Deterministic fault-injection soak: run seeded analyze/sweep/grid/sched \
             campaigns under a named fault plan, asserting every result is bit-identical \
             to its fault-free reference or a typed error — never silent corruption. The \
             soak digest is reproducible from (--seed, --plan, --campaigns) at any --jobs.")
    Term.(const run $ campaigns_arg $ seed_arg $ plan_arg $ jobs_arg $ dir_arg $ verbose_arg)

let () =
  let doc = "probabilistic WCET estimation with fault-mitigation hardware (DATE'16 reproduction)" in
  let info = Cmd.info "pwcet_tool" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; source_cmd; disasm_cmd; analyze_cmd; sweep_cmd; grid_cmd; suite_cmd;
            validate_cmd; audit_cmd; refined_cmd; sched_cmd; cache_cmd;
            serve_cmd; client_cmd; chaos_cmd ]))
