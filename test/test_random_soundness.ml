(* End-to-end soundness of the whole pWCET pipeline on RANDOM programs:
   for each generated program and sampled fault map, the concrete
   execution on the faulty-cache simulators must stay below the
   analytical decomposition bound, for all three mechanisms. This
   exercises CFG shapes the hand-written benchmarks never produce. *)

module C = Cache.Config
module FM = Oracle.Fault_map

let config = C.paper_default

let check_program seed_counter program =
  match Minic.Compile.compile program with
  | exception Minic.Typecheck.Error _ -> () (* generator produced a shadowing clash *)
  | compiled -> (
    match Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () with
    | exception Cfg.Loop.Loop_error _ -> Alcotest.fail "generated program not analysable"
    | task ->
      let ff = Pwcet.Estimator.fault_free_wcet task in
      let graph = task.Pwcet.Estimator.graph and loops = task.Pwcet.Estimator.loops in
      let penalty = C.miss_penalty config in
      let fmm mech = Pwcet.Fmm.compute ~graph ~loops ~config ~mechanism:mech () in
      let fmm_none = fmm Pwcet.Mechanism.No_protection in
      let fmm_srb = fmm Pwcet.Mechanism.Shared_reliable_buffer in
      let fmm_rw = fmm Pwcet.Mechanism.Reliable_way in
      let bound fmm counts =
        let total = ref ff in
        Array.iteri
          (fun s f -> total := !total + (Pwcet.Fmm.misses fmm ~set:s ~faulty:f * penalty))
          counts;
        !total
      in
      let state = Random.State.make [| !seed_counter |] in
      incr seed_counter;
      for _ = 1 to 3 do
        let fm = FM.sample config ~pbf:0.3 state in
        let counts = FM.faulty_counts fm in
        (* Unprotected. *)
        let sim = Oracle.Lru.create ~fault_map:fm config in
        let cyc =
          (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
            .Oracle.Machine.cycles
        in
        if cyc > bound fmm_none counts then
          Alcotest.failf "none: sim %d > bound %d" cyc (bound fmm_none counts);
        (* SRB. *)
        let srb = Oracle.Reliable.Srb.create ~fault_map:fm config in
        let cyc_srb =
          (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle srb) compiled)
            .Oracle.Machine.cycles
        in
        if cyc_srb > bound fmm_srb counts then
          Alcotest.failf "srb: sim %d > bound %d" cyc_srb (bound fmm_srb counts);
        (* RW. *)
        let rw = Oracle.Reliable.rw_cache ~fault_map:fm config in
        let rw_counts = FM.faulty_counts (FM.mask_way fm ~way:0) in
        let cyc_rw =
          (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle rw) compiled)
            .Oracle.Machine.cycles
        in
        if cyc_rw > bound fmm_rw rw_counts then
          Alcotest.failf "rw: sim %d > bound %d" cyc_rw (bound fmm_rw rw_counts)
      done)

let random_soundness =
  let seed_counter = ref 424243 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"pipeline sound on random programs"
       ~print:(fun p -> Format.asprintf "%a" Minic.Ast.pp_program p)
       Minic_gen.gen_program
       (fun program ->
         check_program seed_counter program;
         true))

let () =
  Alcotest.run "random_soundness"
    [ ("pipeline", [ random_soundness ]) ]
