type verdict = Match | Typed | Corrupt | Escape

let verdict_name = function
  | Match -> "match"
  | Typed -> "typed"
  | Corrupt -> "corrupt"
  | Escape -> "escape"

let workloads = [ "analyze"; "sweep"; "grid"; "sched" ]

type campaign = {
  index : int;
  workload : string;
  verdict : verdict;
  digest : string;
  detail : string option;
}

type report = { campaigns : campaign list; injected : int; digest : string }

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let md5 s = Digest.to_hex (Digest.string s)
let bench = "fibcall"
let target = 1e-12

(* The four workloads, shared between the reference and the chaotic
   runs: each returns its result digest. *)
let analyze_of ~program ~config ?store () =
  let task = Pwcet.Estimator.prepare ~program ~config ?store () in
  let ff = Pwcet.Estimator.fault_free_wcet task in
  let est =
    Pwcet.Estimator.estimate task ~pfail:Pwcet.Param.pfail
      ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer ?store ()
  in
  md5
    (Printf.sprintf "%d|%.17g|%d" ff est.Pwcet.Estimator.pbf (Pwcet.Estimator.pwcet est ~target))

(* The grid and sweep workloads' spec. *)
let spec ~program ~config ~mechanisms ~pfail_grid =
  { Grid.benchmarks = [ (bench, program) ]; configs = [ config ]; mechanisms; pfail_grid;
    targets = [ target ]; engine = `Path; exact = false; impl = `Sliced }

let sweep_of ~program ~config ?store () =
  let spec =
    spec ~program ~config
      ~mechanisms:[ Pwcet.Mechanism.No_protection; Pwcet.Mechanism.Shared_reliable_buffer ]
      ~pfail_grid:[ 1e-5; 1e-4; 1e-3 ]
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun ((p : Grid.point), outcome) ->
      match outcome with
      | Ok (c : Grid.cell) ->
        Buffer.add_string buf
          (Printf.sprintf "%s|%.17g|%d;" (Pwcet.Mechanism.short_name p.mechanism) p.pfail
             (List.assoc target c.pwcets))
      | Error e -> failwith (Robust.Pwcet_error.to_string e))
    (Grid.run ~jobs:1 ?store spec);
  md5 (Buffer.contents buf)

(* Journal fuzz, ridden along by the sweep campaigns: true when a resume
   replays exactly the appends that returned, so a torn chaotic append
   costs only its own record, never a poisoned resume. *)
let journal_replays ~injector ~path ~index =
  let writer = Store.Journal.create ~chaos:injector ~path ~run_key:"chaos-soak" () in
  let appended = ref [] in
  (try
     for r = 0 to 4 do
       let record = Printf.sprintf "record-%d-%d" index r in
       Store.Journal.append writer record;
       appended := record :: !appended
     done
   with Unix.Unix_error _ -> ());
  Store.Journal.close writer;
  let _, replayed = Store.Journal.resume ~path ~run_key:"chaos-soak" () in
  (try Sys.remove path with Sys_error _ -> ());
  replayed = List.rev !appended

let run ~campaigns ~seed ~plan ~jobs ~dir =
  if campaigns < 1 then invalid_arg "Soak.run: campaigns must be at least 1";
  let entry = Option.get (Benchmarks.Registry.find bench) in
  let program = (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let grid_spec =
    spec ~program ~config ~mechanisms:Pwcet.Mechanism.all ~pfail_grid:[ 1e-5; 1e-4 ]
  in
  let sched_spec =
    match
      Sched.Campaign.make ~count:2 ~n_tasks:3 ~utilisation:0.5 ~seed:42 ~benchmarks:[ bench ]
        ~sets:8 ~ways:2 ~line:16 ()
    with
    | Ok spec -> spec
    | Error msg -> invalid_arg ("Soak.run: internal sched spec invalid: " ^ msg)
  in
  Store.Artifact.mkdir_p dir;
  (* Fault-free references, computed once. *)
  let analyze_ref = analyze_of ~program ~config () in
  let sweep_ref = sweep_of ~program ~config () in
  let grid_ref = Grid.run ~jobs:1 grid_spec in
  let grid_ref_digest = Grid.digest grid_ref in
  let sched_ref = (Sched.Campaign.run sched_spec).Sched.Campaign.digest in
  let injected = ref 0 in
  let campaign index =
    let injector = Chaos.Injector.create ~seed:(Sim.Rng.stream ~seed ~sample:index) plan in
    let cdir = Filename.concat dir (Printf.sprintf "c%d" index) in
    let with_store f =
      Fun.protect
        ~finally:(fun () -> remove_tree cdir)
        (fun () -> f (Store.Artifact.open_store ~chaos:injector ~dir:cdir ()))
    in
    let against reference what d =
      if d = reference then (Match, d, None) else (Corrupt, d, Some (what ^ " digest mismatch"))
    in
    let w = index mod List.length workloads in
    let thunk () =
      with_store (fun store ->
          match w with
          | 0 -> against analyze_ref "analyze" (analyze_of ~program ~config ~store ())
          | 1 ->
            let d = sweep_of ~program ~config ~store () in
            let path = Filename.concat dir (Printf.sprintf "c%d.journal" index) in
            if not (journal_replays ~injector ~path ~index) then
              (Corrupt, d, Some "journal replay mismatch")
            else against sweep_ref "sweep" d
          | 2 ->
            let outcomes = Grid.run ~jobs ~store ~chaos:injector grid_spec in
            let d = Grid.digest outcomes in
            let silent =
              List.exists2
                (fun (_, r) (_, r0) ->
                  match (r, r0) with
                  | Ok c, Ok c0 -> Grid.cell_to_wire c <> Grid.cell_to_wire c0
                  | Ok _, Error _ -> true
                  | Error _, _ -> false)
                outcomes grid_ref
            in
            if silent then (Corrupt, d, Some "grid cell differs from reference")
            else if List.exists (fun (_, r) -> Result.is_error r) outcomes then (Typed, d, None)
            else against grid_ref_digest "grid" d
          | _ ->
            against sched_ref "sched"
              (Sched.Campaign.run ~store ~jobs sched_spec).Sched.Campaign.digest)
    in
    let verdict, digest, detail =
      try thunk () with e -> (Escape, "-", Some (Printexc.to_string e))
    in
    injected := !injected + Chaos.Injector.total_injected injector;
    { index; workload = List.nth workloads w; verdict; digest; detail }
  in
  let results = List.init campaigns campaign in
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* The soak digest folds every campaign's (workload, verdict, result digest). *)
  let line c =
    Printf.sprintf "%d:%s:%s:%s\n" c.index c.workload (verdict_name c.verdict) c.digest
  in
  let digest = md5 (String.concat "" (List.map line results)) in
  { campaigns = results; injected = !injected; digest }

let count ?workload report verdict =
  let counted c = c.verdict = verdict && Option.fold ~none:true ~some:(( = ) c.workload) workload in
  List.length (List.filter counted report.campaigns)
