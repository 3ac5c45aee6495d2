(* Tests for the benchmark suite: every program must compile, validate,
   terminate, produce the oracle's result where one is defined, have an
   analysable CFG with bounded loops, and respect WCET soundness against
   fault-free and faulty simulation. *)

module R = Benchmarks.Registry
module C = Cache.Config

let config = C.paper_default

let compiled_cache : (string, Minic.Compile.compiled) Hashtbl.t = Hashtbl.create 32

let compiled_of (e : R.entry) =
  match Hashtbl.find_opt compiled_cache e.R.name with
  | Some c -> c
  | None ->
    let c = Minic.Compile.compile e.R.program in
    Hashtbl.add compiled_cache e.R.name c;
    c

let test_suite_shape () =
  Alcotest.(check int) "25 benchmarks" 25 (List.length R.all);
  let names = R.names in
  Alcotest.(check int) "unique names" 25 (List.length (List.sort_uniq compare names));
  (* The paper's four discussed benchmarks are present. *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (R.find n <> None))
    [ "adpcm"; "matmult"; "fft"; "ud" ];
  Alcotest.(check bool) "find miss" true (R.find "nonexistent" = None)

let test_all_compile () =
  List.iter (fun e -> ignore (compiled_of e)) R.all

let test_all_terminate () =
  List.iter
    (fun e ->
      let r = Oracle.Machine.run_compiled (compiled_of e) in
      match r.Oracle.Machine.status with
      | Oracle.Machine.Halted -> ()
      | Oracle.Machine.Out_of_fuel -> Alcotest.failf "%s did not terminate" e.R.name)
    R.all

(* Functional correctness against the OCaml oracles. *)
let expected_results =
  [ ("insertsort", Benchmarks.Insertsort.expected)
  ; ("bsort100", Benchmarks.Bsort100.expected)
  ; ("cnt", Benchmarks.Cnt.expected)
  ; ("matmult", Benchmarks.Matmult.expected)
  ; ("prime", Benchmarks.Prime.expected)
  ; ("crc", Benchmarks.Crc.expected)
  ; ("cover", Benchmarks.Cover.expected)
  ; ("lcdnum", Benchmarks.Lcdnum.expected)
  ; ("ns", Benchmarks.Ns.expected)
  ; ("janne_complex", Benchmarks.Janne_complex.expected) (* extras *)
  ; ("st", Benchmarks.St.expected)
  ; ("ndes", Benchmarks.Ndes.expected)
  ; ("qsort_exam", Benchmarks.Qsort_exam.expected)
  ; ("statemate", Benchmarks.Statemate.expected)
  ; ("fir", Benchmarks.Fir.expected)
  ; ("fft", Benchmarks.Fft.expected)
  ; ("ludcmp", Benchmarks.Ludcmp.expected)
  ; ("ud", Benchmarks.Ud.expected)
  ; ("minver", Benchmarks.Minver.expected)
  ; ("adpcm", Benchmarks.Adpcm.expected)
  ; ("fdct", Benchmarks.Fdct.expected)
  ; ("jfdctint", Benchmarks.Jfdctint.expected)
  ; ("nsichneu", Benchmarks.Nsichneu.expected)
  ; ("fibcall", 832040)
  ; ("bs", -93) (* found at 7, not-found -1 weighted by 100 *)
  ]

let test_expected_results () =
  List.iter
    (fun (name, expected) ->
      let e = Option.get (R.find name) in
      let r = Oracle.Machine.run_compiled (compiled_of e) in
      Alcotest.(check int) name expected r.Oracle.Machine.return_value)
    expected_results

let test_cfg_and_loops () =
  List.iter
    (fun e ->
      let compiled = compiled_of e in
      let graph = Cfg.Graph.build compiled.Minic.Compile.program in
      let loops = Cfg.Loop.detect graph in
      (* Every benchmark loops, except statemate which is deliberately
         straight-line (the category-1 workload). *)
      if e.R.name <> "statemate" then
        Alcotest.(check bool) (e.R.name ^ " has loops") true (List.length loops > 0);
      List.iter
        (fun (l : Cfg.Loop.loop) ->
          Alcotest.(check bool) (e.R.name ^ " bound positive") true (l.Cfg.Loop.bound >= 0))
        loops)
    R.all

let test_footprint_spread () =
  (* The suite must span both sides of the 1 KB cache for Fig. 4's
     categories to be meaningful. *)
  let sizes =
    List.map
      (fun e -> 4 * Isa.Program.instruction_count (compiled_of e).Minic.Compile.program)
      R.all
  in
  Alcotest.(check bool) "some fit in 1KB" true (List.exists (fun s -> s <= 1024) sizes);
  Alcotest.(check bool) "some exceed 1KB" true (List.exists (fun s -> s > 1024) sizes);
  Alcotest.(check bool) "some exceed 2KB" true (List.exists (fun s -> s > 2048) sizes)

let test_wcet_sound_fault_free () =
  List.iter
    (fun e ->
      let compiled = compiled_of e in
      let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
      let sim = Oracle.Lru.create config in
      let cycles =
        (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
          .Oracle.Machine.cycles
      in
      let wcet = Pwcet.Estimator.fault_free_wcet task in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sim %d <= wcet %d" e.R.name cycles wcet)
        true (cycles <= wcet))
    R.all

(* Faulty execution against the FMM decomposition, one random fault map
   per benchmark per mechanism. *)
let test_wcet_sound_with_faults () =
  let state = Random.State.make [| 4242 |] in
  List.iter
    (fun e ->
      let compiled = compiled_of e in
      let program = compiled.Minic.Compile.program in
      let graph = Cfg.Graph.build program in
      let loops = Cfg.Loop.detect graph in
      let chmc = Cache_analysis.Chmc.analyze ~graph ~loops ~config () in
      let wcet_ff = (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ()).Ipet.Wcet.wcet in
      let penalty = C.miss_penalty config in
      let fm = Oracle.Fault_map.sample config ~pbf:0.25 state in
      let counts = Oracle.Fault_map.faulty_counts fm in
      let bound fmm counts =
        let total = ref wcet_ff in
        Array.iteri
          (fun s f -> total := !total + (Pwcet.Fmm.misses fmm ~set:s ~faulty:f * penalty))
          counts;
        !total
      in
      (* No protection. *)
      let fmm_none =
        snd
          (List.hd
             (Pwcet.Fmm.compute_multi ~graph ~loops ~config
                ~mechanisms:[ Pwcet.Mechanism.No_protection ] ()))
      in
      let sim = Oracle.Lru.create ~fault_map:fm config in
      let cyc =
        (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
          .Oracle.Machine.cycles
      in
      Alcotest.(check bool) (e.R.name ^ " none") true (cyc <= bound fmm_none counts);
      (* SRB. *)
      let fmm_srb =
        snd
          (List.hd
             (Pwcet.Fmm.compute_multi ~graph ~loops ~config
                ~mechanisms:[ Pwcet.Mechanism.Shared_reliable_buffer ] ()))
      in
      let srb = Oracle.Reliable.Srb.create ~fault_map:fm config in
      let cyc_srb =
        (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle srb) compiled)
          .Oracle.Machine.cycles
      in
      Alcotest.(check bool) (e.R.name ^ " srb") true (cyc_srb <= bound fmm_srb counts);
      (* RW. *)
      let fmm_rw =
        snd
          (List.hd
             (Pwcet.Fmm.compute_multi ~graph ~loops ~config
                ~mechanisms:[ Pwcet.Mechanism.Reliable_way ] ()))
      in
      let rw = Oracle.Reliable.rw_cache ~fault_map:fm config in
      let rw_counts = Oracle.Fault_map.faulty_counts (Oracle.Fault_map.mask_way fm ~way:0) in
      let cyc_rw =
        (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle rw) compiled)
          .Oracle.Machine.cycles
      in
      Alcotest.(check bool) (e.R.name ^ " rw") true (cyc_rw <= bound fmm_rw rw_counts))
    R.all

(* Every registry program's code (through [Estimator.program_digest], the
   printed program that keys the store), data image and global layout,
   folded into one MD5 in registry order. The constant was computed
   before the compiler's data-cache annotations were deleted; any change
   to code generation, layout or data placement fails here. *)
let registry_compile_digest = "22a6f0a795ca7756fd61d0b0b7d9149a"

let test_compile_digest () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (e : R.entry) ->
      let c = compiled_of e in
      Printf.bprintf buf "%s %s\n" e.R.name
        (Pwcet.Estimator.program_digest c.Minic.Compile.program);
      List.iter (fun (a, v) -> Printf.bprintf buf " d %d %d" a v) c.Minic.Compile.data;
      List.iter (fun (g, a) -> Printf.bprintf buf " g %s %d" g a) c.Minic.Compile.global_addresses;
      Buffer.add_char buf '\n')
    R.all;
  Alcotest.(check string) "registry compile digest" registry_compile_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "benchmarks"
    [ ( "suite",
        [ Alcotest.test_case "shape" `Quick test_suite_shape
        ; Alcotest.test_case "all compile" `Quick test_all_compile
        ; Alcotest.test_case "all terminate" `Quick test_all_terminate
        ; Alcotest.test_case "oracle results" `Quick test_expected_results
        ; Alcotest.test_case "cfg + loops" `Quick test_cfg_and_loops
        ; Alcotest.test_case "footprint spread" `Quick test_footprint_spread
        ; Alcotest.test_case "compile digest" `Quick test_compile_digest
        ] )
    ; ( "wcet soundness",
        [ Alcotest.test_case "fault-free" `Quick test_wcet_sound_fault_free
        ; Alcotest.test_case "with faults (all mechanisms)" `Slow test_wcet_sound_with_faults
        ] )
    ]
