(* Tests for the concrete cache simulators: LRU semantics, fault
   handling, and the RW / SRB mechanisms, including the monotonicity
   ordering RW >= SRB >= unprotected that underpins the paper's Fig. 3/4
   curves. *)

module C = Cache.Config
module FM = Oracle.Fault_map
module Lru = Oracle.Lru
module R = Oracle.Reliable

let cfg2x2 = C.make ~sets:2 ~ways:2 ~line_bytes:16 ()
let paper = C.paper_default

(* --- config ----------------------------------------------------------- *)

let test_config_paper () =
  Alcotest.(check int) "1KB" 1024 (C.size_bytes paper);
  Alcotest.(check int) "K bits" 128 (C.block_bits paper);
  Alcotest.(check int) "penalty" 99 (C.miss_penalty paper);
  Alcotest.(check int) "set mapping" 1 (C.set_of_address paper 16);
  Alcotest.(check int) "wraps around" 0 (C.set_of_address paper (16 * 16))

let test_config_invalid () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> C.make ~sets:3 ~ways:2 ~line_bytes:16 ());
  bad (fun () -> C.make ~sets:4 ~ways:0 ~line_bytes:16 ());
  bad (fun () -> C.make ~sets:4 ~ways:2 ~line_bytes:12 ());
  bad (fun () -> C.make ~sets:4 ~ways:2 ~line_bytes:16 ~hit_latency:5 ~miss_latency:2 ())

(* --- fault maps ------------------------------------------------------- *)

let test_fault_map_counts () =
  let fm = FM.of_faulty_counts cfg2x2 [| 1; 2 |] in
  Alcotest.(check int) "set0 working" 1 (FM.working_in_set fm 0);
  Alcotest.(check int) "set1 working" 0 (FM.working_in_set fm 1);
  Alcotest.(check int) "total" 3 (FM.total_faulty fm);
  Alcotest.(check bool) "faulty pos" true (FM.is_faulty fm ~set:0 ~way:0);
  Alcotest.(check bool) "working pos" false (FM.is_faulty fm ~set:0 ~way:1)

let test_mask_way () =
  let fm = FM.of_faulty_counts cfg2x2 [| 2; 1 |] in
  let masked = FM.mask_way fm ~way:0 in
  Alcotest.(check int) "set0 regains way0" 1 (FM.working_in_set masked 0);
  Alcotest.(check int) "set1 regains way0" 2 (FM.working_in_set masked 1);
  (* Original is unchanged (persistent op). *)
  Alcotest.(check int) "original set0" 0 (FM.working_in_set fm 0)

let test_sample_extremes () =
  let st = Random.State.make [| 42 |] in
  let all = FM.sample paper ~pbf:1.0 st in
  Alcotest.(check int) "pbf=1 all faulty" (16 * 4) (FM.total_faulty all);
  let none = FM.sample paper ~pbf:0.0 st in
  Alcotest.(check int) "pbf=0 none faulty" 0 (FM.total_faulty none)

(* --- LRU -------------------------------------------------------------- *)

(* Two sets, two ways; blocks 0,2,4 map to set 0 and 1,3,5 to set 1. *)
let test_lru_basic () =
  let c = Lru.create cfg2x2 in
  Alcotest.(check bool) "cold miss" false (Lru.access_block c 0);
  Alcotest.(check bool) "hit" true (Lru.access_block c 0);
  Alcotest.(check bool) "second block miss" false (Lru.access_block c 2);
  Alcotest.(check bool) "both resident" true (Lru.access_block c 0);
  Alcotest.(check (list int)) "MRU order" [ 0; 2 ] (Lru.contents c 0);
  (* Third block evicts LRU (block 2). *)
  Alcotest.(check bool) "capacity miss" false (Lru.access_block c 4);
  Alcotest.(check (list int)) "evicted 2" [ 4; 0 ] (Lru.contents c 0);
  Alcotest.(check bool) "2 gone" false (Lru.access_block c 2);
  Alcotest.(check int) "hits" 2 (Lru.hits c);
  Alcotest.(check int) "misses" 4 (Lru.misses c)

let test_lru_sets_independent () =
  let c = Lru.create cfg2x2 in
  ignore (Lru.access_block c 0);
  ignore (Lru.access_block c 1);
  ignore (Lru.access_block c 3);
  ignore (Lru.access_block c 5);
  (* Set 1 thrashed, set 0 untouched since. *)
  Alcotest.(check bool) "set0 unaffected" true (Lru.access_block c 0)

let test_lru_reduced_capacity () =
  let fm = FM.of_faulty_counts cfg2x2 [| 1; 0 |] in
  let c = Lru.create ~fault_map:fm cfg2x2 in
  ignore (Lru.access_block c 0);
  Alcotest.(check bool) "1-way set still hits" true (Lru.access_block c 0);
  ignore (Lru.access_block c 2);
  Alcotest.(check bool) "conflict in 1-way set" false (Lru.access_block c 0)

let test_lru_dead_set () =
  let fm = FM.of_faulty_counts cfg2x2 [| 2; 0 |] in
  let c = Lru.create ~fault_map:fm cfg2x2 in
  ignore (Lru.access_block c 0);
  Alcotest.(check bool) "fully faulty set never hits" false (Lru.access_block c 0);
  Alcotest.(check (list int)) "stores nothing" [] (Lru.contents c 0);
  (* Other set unaffected. *)
  ignore (Lru.access_block c 1);
  Alcotest.(check bool) "other set fine" true (Lru.access_block c 1)

let test_latency_oracle () =
  let c = Lru.create cfg2x2 in
  Alcotest.(check int) "miss latency" 100 (Lru.latency_oracle c 0);
  Alcotest.(check int) "hit latency" 1 (Lru.latency_oracle c 4)
  (* addr 4 is in the same 16-byte block as addr 0 *)

let test_reset () =
  let c = Lru.create cfg2x2 in
  ignore (Lru.access_block c 0);
  Lru.reset c;
  Alcotest.(check bool) "cold again" false (Lru.access_block c 0);
  Alcotest.(check int) "counters cleared" 1 (Lru.misses c)

(* --- RW ---------------------------------------------------------------- *)

let test_rw_rescues_dead_set () =
  let fm = FM.of_faulty_counts cfg2x2 [| 2; 2 |] in
  let c = R.rw_cache ~fault_map:fm cfg2x2 in
  ignore (Lru.access_block c 0);
  Alcotest.(check bool) "RW keeps one way alive" true (Lru.access_block c 0);
  (* But only one way: a second block conflicts. *)
  ignore (Lru.access_block c 2);
  Alcotest.(check bool) "direct-mapped behaviour" false (Lru.access_block c 0)

(* --- SRB ---------------------------------------------------------------- *)

let test_srb_only_for_dead_sets () =
  let fm = FM.of_faulty_counts cfg2x2 [| 2; 0 |] in
  let c = R.Srb.create ~fault_map:fm cfg2x2 in
  (* Set 1 healthy: normal path, buffer untouched. *)
  ignore (R.Srb.access_block c 1);
  Alcotest.(check int) "no SRB traffic" 0 (R.Srb.srb_accesses c);
  Alcotest.(check (option int)) "buffer empty" None (R.Srb.srb_contents c);
  (* Set 0 dead: buffer path. *)
  Alcotest.(check bool) "first SRB access misses" false (R.Srb.access_block c 0);
  Alcotest.(check bool) "SRB hit" true (R.Srb.access_block c 0);
  Alcotest.(check (option int)) "buffer holds 0" (Some 0) (R.Srb.srb_contents c);
  (* Another dead-set block steals the single buffer. *)
  Alcotest.(check bool) "buffer reload" false (R.Srb.access_block c 4);
  Alcotest.(check bool) "0 evicted from buffer" false (R.Srb.access_block c 0)

let test_srb_paper_example () =
  (* Paper Section III-B.2: stream a1 a2 b1 b2 a1 a2 with ai and bi in
     distinct (fully faulty) sets. With one shared buffer, the second
     occurrences of a2/b2 hit, while a1 reloads after b's series. *)
  let fm = FM.of_faulty_counts cfg2x2 [| 2; 2 |] in
  let c = R.Srb.create ~fault_map:fm cfg2x2 in
  (* a1 a2: two addresses of the same block (block 0, set 0);
     b1 b2: block 1, set 1. *)
  let a1 = 0 and a2 = 4 and b1 = 16 and b2 = 20 in
  let results = List.map (R.Srb.access c) [ a1; a2; b1; b2; a1; a2 ] in
  Alcotest.(check (list bool)) "a1 a2 b1 b2 a1 a2"
    [ false; true; false; true; false; true ]
    results

let test_srb_matches_lru_when_no_dead_set () =
  let fm = FM.of_faulty_counts cfg2x2 [| 1; 1 |] in
  let srb = R.Srb.create ~fault_map:fm cfg2x2 in
  let lru = Lru.create ~fault_map:fm cfg2x2 in
  let trace = [ 0; 2; 0; 4; 2; 1; 3; 1; 0 ] in
  List.iter
    (fun b ->
      Alcotest.(check bool) "identical behaviour" (Lru.access_block lru b)
        (R.Srb.access_block srb b))
    trace

(* --- ordering properties ------------------------------------------------ *)

let gen_trace =
  QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 31))

let gen_fault_counts ways sets = QCheck2.Gen.(array_size (return sets) (int_range 0 ways))

let count_hits access trace =
  List.fold_left (fun acc b -> if access b then acc + 1 else acc) 0 trace

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let ordering_props =
  let cfg = C.make ~sets:4 ~ways:2 ~line_bytes:16 () in
  [ prop "RW >= SRB >= unprotected hits"
      QCheck2.Gen.(pair gen_trace (gen_fault_counts 2 4))
      (fun (trace, counts) ->
        let fm = FM.of_faulty_counts cfg counts in
        let plain = Lru.create ~fault_map:fm cfg in
        let rw = R.rw_cache ~fault_map:fm cfg in
        let srb = R.Srb.create ~fault_map:fm cfg in
        let h_plain = count_hits (Lru.access_block plain) trace in
        let h_rw = count_hits (Lru.access_block rw) trace in
        let h_srb = count_hits (R.Srb.access_block srb) trace in
        h_rw >= h_srb && h_srb >= h_plain)
  ; prop "fault-free cache dominates faulty"
      QCheck2.Gen.(pair gen_trace (gen_fault_counts 2 4))
      (fun (trace, counts) ->
        let fm = FM.of_faulty_counts cfg counts in
        let faulty = Lru.create ~fault_map:fm cfg in
        let clean = Lru.create cfg in
        count_hits (Lru.access_block clean) trace >= count_hits (Lru.access_block faulty) trace)
  ; prop "hits + misses = accesses" gen_trace (fun trace ->
        let c = Lru.create cfg in
        List.iter (fun b -> ignore (Lru.access_block c b)) trace;
        Lru.hits c + Lru.misses c = List.length trace)
  ; prop "LRU stack property (inclusion in ways)"
      gen_trace
      (fun trace ->
        (* A 2-way cache's contents are always a prefix-superset of the
           1-way cache's: every 1-way hit is a 2-way hit. *)
        let small = Lru.create (C.make ~sets:4 ~ways:1 ~line_bytes:16 ()) in
        let big = Lru.create (C.make ~sets:4 ~ways:2 ~line_bytes:16 ()) in
        List.for_all
          (fun b ->
            let h_small = Lru.access_block small b in
            let h_big = Lru.access_block big b in
            (not h_small) || h_big)
          trace)
  ]

let () =
  Alcotest.run "cache"
    [ ( "config",
        [ Alcotest.test_case "paper default" `Quick test_config_paper
        ; Alcotest.test_case "invalid" `Quick test_config_invalid
        ] )
    ; ( "fault map",
        [ Alcotest.test_case "counts" `Quick test_fault_map_counts
        ; Alcotest.test_case "mask way" `Quick test_mask_way
        ; Alcotest.test_case "sample extremes" `Quick test_sample_extremes
        ] )
    ; ( "lru",
        [ Alcotest.test_case "basic" `Quick test_lru_basic
        ; Alcotest.test_case "sets independent" `Quick test_lru_sets_independent
        ; Alcotest.test_case "reduced capacity" `Quick test_lru_reduced_capacity
        ; Alcotest.test_case "dead set" `Quick test_lru_dead_set
        ; Alcotest.test_case "latency oracle" `Quick test_latency_oracle
        ; Alcotest.test_case "reset" `Quick test_reset
        ] )
    ; ("rw", [ Alcotest.test_case "rescues dead set" `Quick test_rw_rescues_dead_set ])
    ; ( "srb",
        [ Alcotest.test_case "only for dead sets" `Quick test_srb_only_for_dead_sets
        ; Alcotest.test_case "paper stream example" `Quick test_srb_paper_example
        ; Alcotest.test_case "matches lru otherwise" `Quick test_srb_matches_lru_when_no_dead_set
        ] )
    ; ("properties", ordering_props)
    ]
