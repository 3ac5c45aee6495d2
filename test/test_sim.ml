(* Differential validation of the fault-injection campaign (lib/sim)
   against the reference interpreter (Oracle.Machine) and the concrete
   cache simulators (Oracle.Lru / Oracle.Reliable.Srb):

   - the flat-state machine is bit-compatible with Oracle.Machine.run
     (final registers, instruction count, return value, fetch trace)
     across the whole benchmark registry and QCheck-random programs;
   - the trace replay gives, sample by sample, the cycles of a full
     reference execution under the sample's fault pattern, for every
     mechanism, and the fault-free cycles of a reference run;
   - the campaign digests of the end-to-end gate (scripts/check_sim.sh)
     are pinned. *)

module SimM = Sim.Machine
module SimC = Sim.Campaign
module M = Oracle.Machine
module Cfg = Cache.Config

let small_config = Cfg.make ~sets:8 ~ways:2 ~line_bytes:16 ()

let compile name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  Minic.Compile.compile entry.Benchmarks.Registry.program

let sim_of_compiled config (compiled : Minic.Compile.compiled) =
  let code = Sim.Code.decode ~config compiled.Minic.Compile.program in
  SimM.create ~code ~data:compiled.Minic.Compile.data

(* A run of the flat machine with its fetch trace as byte addresses,
   most recent first (the order the reference's [on_fetch] list has). *)
let traced_run ?max_steps (compiled : Minic.Compile.compiled) m =
  let base = compiled.Minic.Compile.program.Isa.Program.base_address in
  let trace = ref [] in
  let r = SimM.run ?max_steps ~on_fetch:(fun i -> trace := (base + (4 * i)) :: !trace) m in
  (r, !trace)

let reference_run ?max_steps compiled =
  let trace = ref [] in
  let r = M.run_compiled ?max_steps ~on_fetch:(fun a -> trace := a :: !trace) compiled in
  (r, !trace)

let same_run (reference, ref_trace) m (r, sim_trace) =
  reference.M.status = M.Halted
  && r.SimM.status = SimM.Halted
  && r.SimM.instructions = reference.M.instructions
  && r.SimM.return_value = reference.M.return_value
  && SimM.registers m = reference.M.regs
  && sim_trace = ref_trace

let campaign_of compiled config mechanism ~pbf ~samples =
  SimC.prepare
    (SimC.trace ~program:compiled.Minic.Compile.program ~data:compiled.Minic.Compile.data ~config)
    { SimC.mechanism; pbf; samples; seed = 9; jobs = 1; bound = None }

let mechanisms = [ SimC.No_protection; SimC.Reliable_way; SimC.Shared_reliable_buffer ]

let mechanism_name = function
  | SimC.No_protection -> "none"
  | SimC.Reliable_way -> "rw"
  | SimC.Shared_reliable_buffer -> "srb"

(* The reference cycles of one sample: its faulty-way counts as a fault
   map, a fresh reference cache, a full reference execution. The
   position of the faulty ways is immaterial under LRU, and the RW law
   never kills a whole set, so a plain faulty LRU is the RW cache. *)
let oracle_cycles ?max_steps compiled config mechanism campaign ~sample =
  let counts = Array.make config.Cfg.sets 0 in
  SimC.sample_faulty_counts campaign ~sample counts;
  let fault_map = Oracle.Fault_map.of_faulty_counts config counts in
  let fetch =
    match mechanism with
    | SimC.No_protection | SimC.Reliable_way ->
      Oracle.Lru.latency_oracle (Oracle.Lru.create ~fault_map config)
    | SimC.Shared_reliable_buffer ->
      Oracle.Reliable.Srb.latency_oracle (Oracle.Reliable.Srb.create ~fault_map config)
  in
  (M.run_compiled ?max_steps ~fetch compiled).M.cycles

(* --- flat machine ---------------------------------------------------------- *)

(* Hit = miss = 1 makes every fetch cost one cycle, so the fault-free
   campaign time is the instruction count, as with the reference's
   default constant-1 fetch. *)
let unit_config = Cfg.make ~sets:16 ~ways:4 ~line_bytes:16 ~hit_latency:1 ~miss_latency:1 ()

let test_registry_unit_latency () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let name = e.Benchmarks.Registry.name in
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      let reference = reference_run compiled in
      let m = sim_of_compiled unit_config compiled in
      Alcotest.(check bool) (name ^ " same run") true
        (same_run reference m (traced_run compiled m));
      let r = SimC.run (campaign_of compiled unit_config SimC.No_protection ~pbf:0.0 ~samples:1) in
      Alcotest.(check int) (name ^ " cycles") (fst reference).M.cycles r.SimC.fault_free_cycles)
    Benchmarks.Registry.all

let test_warm_reset_is_clean () =
  (* Reusing the machine must leave no residue: a second run of a
     benchmark equals the first bit for bit, trace included. *)
  let compiled = compile "crc" in
  let m = sim_of_compiled small_config compiled in
  let first, first_trace = traced_run compiled m in
  let again, again_trace = traced_run compiled m in
  Alcotest.(check bool) "same status" true (first.SimM.status = again.SimM.status);
  Alcotest.(check int) "same instructions" first.SimM.instructions again.SimM.instructions;
  Alcotest.(check int) "same return" first.SimM.return_value again.SimM.return_value;
  Alcotest.(check bool) "same trace" true (first_trace = again_trace)

let test_faulty_matches_oracles () =
  List.iter
    (fun name ->
      let compiled = compile name in
      List.iter
        (fun mechanism ->
          let samples = 8 in
          let campaign = campaign_of compiled small_config mechanism ~pbf:0.25 ~samples in
          for sample = 0 to samples - 1 do
            Alcotest.(check int)
              (Printf.sprintf "%s %s @%d" name (mechanism_name mechanism) sample)
              (oracle_cycles compiled small_config mechanism campaign ~sample)
              (SimC.replay_cycles campaign ~sample)
          done)
        mechanisms)
    [ "fibcall"; "bs"; "insertsort"; "expint"; "prime"; "crc" ]

(* --- campaign -------------------------------------------------------------- *)

let test_replay_matches_oracle () =
  List.iter
    (fun name ->
      let compiled = compile name in
      List.iter
        (fun mechanism ->
          let samples = 300 in
          (* pbf high enough that dead sets — including several at once,
             the SRB merged-replay path — occur routinely in a few
             hundred samples on a 2-way cache. *)
          let campaign = campaign_of compiled small_config mechanism ~pbf:0.3 ~samples in
          for sample = 0 to samples - 1 do
            Alcotest.(check int)
              (Printf.sprintf "%s %s replay=oracle @%d" name (mechanism_name mechanism) sample)
              (oracle_cycles compiled small_config mechanism campaign ~sample)
              (SimC.replay_cycles campaign ~sample)
          done)
        mechanisms)
    [ "fibcall"; "bs"; "crc" ]

let test_fault_free_cycles () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
      List.iter
        (fun config ->
          let reference =
            M.run_compiled ~fetch:(Oracle.Lru.latency_oracle (Oracle.Lru.create config)) compiled
          in
          let r = SimC.run (campaign_of compiled config SimC.No_protection ~pbf:0.0 ~samples:1) in
          Alcotest.(check int) e.Benchmarks.Registry.name reference.M.cycles
            r.SimC.fault_free_cycles)
        [ small_config; Cfg.paper_default ])
    Benchmarks.Registry.all

(* The six campaign digests scripts/check_sim.sh prints: fibcall and crc
   at 8 sets x 2 ways, 20000 samples, seed 42, pfail 1e-4. As in
   [pwcet_tool validate], a program's three campaigns share one trace;
   a campaign that builds its own gives the same digest. *)
let test_check_sim_digests () =
  let expected =
    [ ("fibcall", "none", "b64fb7b902601dab1b6835bb659cf99f")
    ; ("fibcall", "srb", "3ee52d054fdc53d2a93dbe5586f25bcf")
    ; ("fibcall", "rw", "4f42123dcbfb31e85d9ddf3d089f1d72")
    ; ("crc", "none", "e2ea12e93d3b01e3aecdb6e43559df8a")
    ; ("crc", "srb", "9616ffd94033f94e3e211f9b2a4a4039")
    ; ("crc", "rw", "ea96a54195931333d778eb6afa115ef8")
    ]
  in
  let traces = Hashtbl.create 2 in
  let trace_of name =
    match Hashtbl.find_opt traces name with
    | Some shared -> shared
    | None ->
      let compiled = compile name in
      let program = compiled.Minic.Compile.program and data = compiled.Minic.Compile.data in
      let shared = (program, data, SimC.trace ~program ~data ~config:small_config) in
      Hashtbl.replace traces name shared;
      shared
  in
  List.iter
    (fun (name, mech, digest) ->
      let program, data, trace = trace_of name in
      let task = Pwcet.Estimator.prepare ~program ~config:small_config () in
      let mechanism = Option.get (Pwcet.Mechanism.of_string mech) in
      let est = Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism () in
      let check trace = Pwcet.Validate.check ~trace ~est ~samples:20_000 ~seed:42 ~jobs:1 in
      let c = check trace in
      Alcotest.(check bool) (name ^ " " ^ mech ^ " ok") true (Pwcet.Validate.ok c);
      Alcotest.(check string) (name ^ " " ^ mech) digest c.Pwcet.Validate.digest;
      Alcotest.(check string) (name ^ " " ^ mech ^ " own trace") digest
        (check (SimC.trace ~program ~data ~config:small_config)).Pwcet.Validate.digest)
    expected

let test_campaign_moments_match_histogram () =
  let compiled = compile "crc" in
  let r = SimC.run (campaign_of compiled small_config SimC.No_protection ~pbf:0.3 ~samples:500) in
  Alcotest.(check int) "histogram mass" r.SimC.samples (Array.fold_left ( + ) 0 r.SimC.counts);
  (* recompute mean/min/max from the histogram *)
  let total = ref 0.0 and mn = ref max_int and mx = ref min_int in
  Array.iteri
    (fun d c ->
      if c > 0 then begin
        let x = SimC.cycles_of_bucket r d in
        total := !total +. (float_of_int c *. float_of_int x);
        if x < !mn then mn := x;
        if x > !mx then mx := x
      end)
    r.SimC.counts;
  Alcotest.(check int) "min" !mn r.SimC.min_cycles;
  Alcotest.(check int) "max" !mx r.SimC.max_cycles;
  Alcotest.(check (float 1e-6)) "mean" (!total /. float_of_int r.SimC.samples) r.SimC.mean_cycles;
  (* the empirical curve is a well-formed exceedance staircase *)
  let curve = SimC.curve r in
  Alcotest.(check bool) "curve nonempty" true (curve <> []);
  Alcotest.(check (float 0.)) "first point has full mass" 1.0 (snd (List.hd curve));
  let rec decreasing = function
    | (x1, p1) :: ((x2, p2) :: _ as rest) -> x1 < x2 && p2 <= p1 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "staircase" true (decreasing curve)

(* --- QCheck-random programs ------------------------------------------------ *)

let qcheck_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"flat machine = oracle on random programs"
       ~print:(fun p -> Format.asprintf "%a" Minic.Ast.pp_program p)
       Minic_gen.gen_program (fun program ->
         match Minic.Compile.compile program with
         | exception Minic.Typecheck.Error _ -> QCheck2.assume_fail ()
         | compiled -> (
           let max_steps = 5_000_000 in
           let reference = reference_run ~max_steps compiled in
           match (fst reference).M.status with
           | M.Out_of_fuel -> QCheck2.assume_fail ()
           | M.Halted ->
             let m = sim_of_compiled unit_config compiled in
             (* and the replay of a few sampled fault patterns on a tiny
                cache, under every mechanism *)
             let config = Cfg.make ~sets:4 ~ways:2 ~line_bytes:8 () in
             let replay_ok mechanism =
               let campaign = campaign_of compiled config mechanism ~pbf:0.3 ~samples:3 in
               List.for_all
                 (fun sample ->
                   SimC.replay_cycles campaign ~sample
                   = oracle_cycles ~max_steps compiled config mechanism campaign ~sample)
                 [ 0; 1; 2 ]
             in
             same_run reference m (traced_run ~max_steps compiled m)
             && List.for_all replay_ok mechanisms)))

(* --- engine plumbing ------------------------------------------------------- *)

let test_welford () =
  let xs = [ 3.0; -1.5; 8.0; 0.0; 2.25; 7.5; -4.0; 11.0 ] in
  let whole = Sim.Welford.create () in
  List.iter (Sim.Welford.add whole) xs;
  let n = float_of_int (List.length xs) in
  let mean = List.fold_left ( +. ) 0.0 xs /. n in
  let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n in
  Alcotest.(check int) "count" (List.length xs) (Sim.Welford.count whole);
  Alcotest.(check (float 1e-9)) "mean" mean (Sim.Welford.mean whole);
  Alcotest.(check (float 1e-9)) "variance" var (Sim.Welford.variance whole);
  Alcotest.(check (float 0.)) "min" (-4.0) (Sim.Welford.min_value whole);
  Alcotest.(check (float 0.)) "max" 11.0 (Sim.Welford.max_value whole);
  (* chunked merge reproduces the same moments *)
  let a = Sim.Welford.create () and b = Sim.Welford.create () in
  List.iteri (fun i x -> Sim.Welford.add (if i < 3 then a else b) x) xs;
  let merged = Sim.Welford.create () in
  Sim.Welford.merge ~into:merged a;
  Sim.Welford.merge ~into:merged b;
  Alcotest.(check int) "merged count" (Sim.Welford.count whole) (Sim.Welford.count merged);
  Alcotest.(check (float 1e-9)) "merged mean" (Sim.Welford.mean whole) (Sim.Welford.mean merged);
  Alcotest.(check (float 1e-9)) "merged variance" (Sim.Welford.variance whole)
    (Sim.Welford.variance merged)

let test_rng_streams () =
  (* deterministic, uniform-ish, and distinct across samples *)
  let u1 = Sim.Rng.uniform ~stream:(Sim.Rng.stream ~seed:42 ~sample:7) ~draw:3 in
  let u2 = Sim.Rng.uniform ~stream:(Sim.Rng.stream ~seed:42 ~sample:7) ~draw:3 in
  Alcotest.(check (float 0.)) "pure function" u1 u2;
  let n = 20_000 in
  let sum = ref 0.0 in
  for sample = 0 to n - 1 do
    let u = Sim.Rng.uniform ~stream:(Sim.Rng.stream ~seed:1 ~sample) ~draw:0 in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0);
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_way_cdf_clamps () =
  (* The RW law never returns [ways], even for u -> 1. *)
  let cdf = Fault.Sampler.way_cdf ~ways:4 ~pbf:0.9 ~rw:true in
  Alcotest.(check int) "rw top" 3 (Fault.Sampler.index_of_u ~cdf 0.999999999999);
  let cdf = Fault.Sampler.way_cdf ~ways:4 ~pbf:0.0 ~rw:false in
  Alcotest.(check int) "pbf=0 always 0" 0 (Fault.Sampler.index_of_u ~cdf 0.999999999999)

let () =
  Alcotest.run "sim"
    [ ( "flat machine",
        [ Alcotest.test_case "registry, unit latency" `Quick test_registry_unit_latency
        ; Alcotest.test_case "warm reset leaves no residue" `Quick test_warm_reset_is_clean
        ; Alcotest.test_case "faulty caches match oracles" `Quick test_faulty_matches_oracles
        ; qcheck_differential
        ] )
    ; ( "campaign",
        [ Alcotest.test_case "replay = oracle" `Quick test_replay_matches_oracle
        ; Alcotest.test_case "moments match histogram" `Quick
            test_campaign_moments_match_histogram
        ; Alcotest.test_case "fault-free cycles = oracle" `Quick test_fault_free_cycles
        ; Alcotest.test_case "check_sim digests" `Quick test_check_sim_digests
        ] )
    ; ( "plumbing",
        [ Alcotest.test_case "welford" `Quick test_welford
        ; Alcotest.test_case "rng streams" `Quick test_rng_streams
        ; Alcotest.test_case "way cdf clamps" `Quick test_way_cdf_clamps
        ] )
    ]
