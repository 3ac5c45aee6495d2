(* Tests for the abstract-interpretation cache analyses: ACS algebra,
   CHMC classification on crafted programs, SRB analysis, and a
   trace-based soundness check against the concrete simulators. *)

module A = Oracle.Acs
module Chmc = Cache_analysis.Chmc
module Srb = Cache_analysis.Srb_analysis
module C = Cache.Config
module FM = Oracle.Fault_map

(* --- ACS algebra -------------------------------------------------------- *)

let test_must_update () =
  let acs = A.must_update ~assoc:2 A.empty 10 in
  Alcotest.(check (option int)) "loaded at 0" (Some 0) (A.age acs 10);
  let acs = A.must_update ~assoc:2 acs 20 in
  Alcotest.(check (option int)) "aged to 1" (Some 1) (A.age acs 10);
  Alcotest.(check (option int)) "new at 0" (Some 0) (A.age acs 20);
  let acs = A.must_update ~assoc:2 acs 30 in
  Alcotest.(check (option int)) "evicted" None (A.age acs 10);
  (* Re-access keeps others: 20 is older than 30's position. *)
  let acs = A.must_update ~assoc:2 acs 30 in
  Alcotest.(check (option int)) "20 kept at 1" (Some 1) (A.age acs 20)

let test_must_update_zero_assoc () =
  let acs = A.must_update ~assoc:0 (A.must_update ~assoc:2 A.empty 1) 2 in
  Alcotest.(check (list int)) "empty" [] (A.blocks acs)

let test_must_join () =
  let a = A.must_update ~assoc:4 (A.must_update ~assoc:4 A.empty 1) 2 in
  (* a: 2@0, 1@1 *)
  let b = A.must_update ~assoc:4 (A.must_update ~assoc:4 A.empty 2) 3 in
  (* b: 3@0, 2@1 *)
  let j = A.must_join a b in
  Alcotest.(check (option int)) "common block max age" (Some 1) (A.age j 2);
  Alcotest.(check (option int)) "1 dropped" None (A.age j 1);
  Alcotest.(check (option int)) "3 dropped" None (A.age j 3)

let test_may_join () =
  let a = A.may_update ~assoc:4 (A.may_update ~assoc:4 A.empty 1) 2 in
  let b = A.may_update ~assoc:4 A.empty 3 in
  let j = A.may_join a b in
  Alcotest.(check (option int)) "union keeps 1" (Some 1) (A.age j 1);
  Alcotest.(check (option int)) "union keeps 3" (Some 0) (A.age j 3);
  Alcotest.(check (option int)) "min age of 2" (Some 0) (A.age j 2)

let test_may_update_ties_age () =
  (* Two blocks at the same min age: accessing one ages the other (it
     might concretely be younger). *)
  let a = A.may_join (A.may_update ~assoc:4 A.empty 1) (A.may_update ~assoc:4 A.empty 2) in
  Alcotest.(check (option int)) "1 at 0" (Some 0) (A.age a 1);
  Alcotest.(check (option int)) "2 at 0" (Some 0) (A.age a 2);
  let a = A.may_update ~assoc:4 a 1 in
  Alcotest.(check (option int)) "2 aged" (Some 1) (A.age a 2)

(* The must ACS abstracts the concrete LRU set: simulate random accesses
   in a 4-way set and check age upper bounds. *)
let test_must_abstracts_concrete () =
  let cfg = C.make ~sets:1 ~ways:4 ~line_bytes:16 () in
  let sim = Oracle.Lru.create cfg in
  let acs = ref A.empty in
  let state = Random.State.make [| 7 |] in
  for _ = 1 to 2000 do
    let b = Random.State.int state 8 in
    ignore (Oracle.Lru.access_block sim b);
    acs := A.must_update ~assoc:4 !acs b;
    (* Every block in the must ACS is in the concrete cache, at a
       concrete age <= the abstract age. *)
    let concrete = Oracle.Lru.contents sim 0 in
    List.iter
      (fun blk ->
        match A.age !acs blk with
        | None -> ()
        | Some upper ->
          let rec position i = function
            | [] -> None
            | x :: rest -> if x = blk then Some i else position (i + 1) rest
          in
          (match position 0 concrete with
          | Some pos -> Alcotest.(check bool) "age is upper bound" true (pos <= upper)
          | None -> Alcotest.fail "must block absent from concrete cache"))
      (A.blocks !acs)
  done

(* The flat bitset states the CHMC fixpoints run on must give exactly
   the ages of the [IntMap] domain after every access and join, in both
   lattices. Two states per lattice take random accesses and joins into
   each other; the block counts reach past two machine words. *)
module St = Cache_analysis.Slice.State

type lattice_op = Access of int * int | Join of int

let test_flat_lattice =
  let gen =
    QCheck2.Gen.(
      let* ways = oneofl [ 1; 2; 4; 8; 16 ] in
      let* blocks = int_range 1 (2 * Sys.int_size + 14) in
      (* Half the accesses reuse the top few blocks, so ages climb,
         ties form and the last word of a level is exercised. *)
      let block =
        oneof
          [ int_bound (blocks - 1);
            map (fun d -> blocks - 1 - d) (int_bound (min (blocks - 1) (2 * ways))) ]
      in
      let op =
        frequency
          [ (4, map2 (fun slot b -> Access (slot, b)) (int_bound 1) block);
            (1, map (fun slot -> Join slot) (int_bound 1)) ]
      in
      let* ops = list_size (int_range 1 80) op in
      return (ways, blocks, ops))
  in
  let print (ways, blocks, ops) =
    Printf.sprintf "ways %d, blocks %d: %s" ways blocks
      (String.concat " "
         (List.map
            (function Access (s, b) -> Printf.sprintf "a%d:%d" s b | Join s -> Printf.sprintf "j%d" s)
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"flat lattice = acs" ~print gen
       (fun (ways, blocks, ops) ->
         let sh = St.shape ~ways ~blocks in
         let lattices =
           [ ("must", St.must_update sh, St.must_join, A.must_update ~assoc:ways, A.must_join);
             ("may", St.may_update sh, St.may_join, A.may_update ~assoc:ways, A.may_join) ]
         in
         List.for_all
           (fun (name, st_update, st_join, acs_update, acs_join) ->
             let flat = [| St.empty sh; St.empty sh |] and acs = [| A.empty; A.empty |] in
             List.for_all
               (fun op ->
                 (match op with
                 | Access (s, b) ->
                   flat.(s) <- st_update flat.(s) b;
                   acs.(s) <- acs_update acs.(s) b
                 | Join s ->
                   flat.(s) <- st_join flat.(s) flat.(1 - s);
                   acs.(s) <- acs_join acs.(s) acs.(1 - s));
                 let agree s b =
                   St.age sh flat.(s) b
                   = Option.value (A.age acs.(s) b) ~default:Cache_analysis.Slice.absent
                 in
                 List.for_all
                   (fun s ->
                     List.for_all (agree s) (List.init blocks Fun.id)
                     || QCheck2.Test.fail_reportf "%s ages differ in state %d" name s)
                   [ 0; 1 ]
                 && (St.equal flat.(0) flat.(1) = A.equal acs.(0) acs.(1)
                    || QCheck2.Test.fail_reportf "%s equality differs" name))
               ops)
           lattices))

(* --- CHMC on crafted programs ------------------------------------------- *)

let small_cfg = C.paper_default

let analyze ?assoc compiled =
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let loops = Cfg.Loop.detect graph in
  (graph, loops, Chmc.analyze ~graph ~loops ~config:small_cfg ?assoc ())

let count_classes chmc =
  Chmc.fold_refs
    (fun ~node:_ ~offset:_ cls (ah, fm, am, nc) ->
      match cls with
      | Chmc.Always_hit -> (ah + 1, fm, am, nc)
      | Chmc.First_miss _ -> (ah, fm + 1, am, nc)
      | Chmc.Always_miss -> (ah, fm, am + 1, nc)
      | Chmc.Not_classified -> (ah, fm, am, nc + 1))
    chmc (0, 0, 0, 0)

let straightline_program =
  let open Minic.Dsl in
  program [ fn "main" [] [ decl "x" (i 1); set "x" (v "x" +: i 2); ret (v "x") ] ]

let test_straightline_spatial_locality () =
  let compiled = Minic.Compile.compile straightline_program in
  let _, _, chmc = analyze compiled in
  let ah, fm, am, nc = count_classes chmc in
  (* Small program: everything fits -> no AM, no NC; line-leading fetches
     are first-miss (cold), the rest always-hit. *)
  Alcotest.(check int) "no always-miss" 0 am;
  Alcotest.(check int) "no unclassified" 0 nc;
  Alcotest.(check bool) "some hits" true (ah > 0);
  Alcotest.(check bool) "some first-misses" true (fm > 0);
  (* 4 instructions per 16-byte line: roughly 3/4 of fetches are AH
     (boundary effects push it slightly below on tiny programs). *)
  Alcotest.(check bool) "spatial locality" true (ah * 3 >= (ah + fm) * 2)

let tiny_loop_program =
  let open Minic.Dsl in
  program
    [ fn "main" []
        [ decl "s" (i 0); for_ "k" (i 0) (i 50) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
    ]

let test_tiny_loop_persistence () =
  let compiled = Minic.Compile.compile tiny_loop_program in
  let _, _, chmc = analyze compiled in
  let _, _, am, nc = count_classes chmc in
  (* The whole program fits in 1 KB: every miss is a cold miss, hence
     everything is AH or FM. *)
  Alcotest.(check int) "no always-miss" 0 am;
  Alcotest.(check int) "no unclassified" 0 nc

let test_dead_set_override () =
  let compiled = Minic.Compile.compile tiny_loop_program in
  (* Set every set's associativity to 0: all refs become AM. *)
  let _, _, chmc = analyze ~assoc:(fun _ -> 0) compiled in
  let ah, fm, am, nc = count_classes chmc in
  Alcotest.(check int) "no hits" 0 ah;
  Alcotest.(check int) "no first-miss" 0 fm;
  Alcotest.(check int) "no unclassified" 0 nc;
  Alcotest.(check bool) "all always-miss" true (am > 0)

(* A loop body large enough to overflow the cache: some refs cannot be
   persistent. 300 statements produce well over 64 lines of code. *)
let big_loop_program =
  let open Minic.Dsl in
  let body = List.init 300 (fun k -> set "s" (v "s" +: i k)) in
  program [ fn "main" [] [ decl "s" (i 0); for_ "k" (i 0) (i 10) body; ret (v "s") ] ]

let test_big_loop_thrashes () =
  let compiled = Minic.Compile.compile big_loop_program in
  let _, _, chmc = analyze compiled in
  let _, _, am, nc = count_classes chmc in
  Alcotest.(check bool) "cache too small: unclassified/always-miss refs" true (am + nc > 0)

let calls_program =
  let open Minic.Dsl in
  program
    [ fn "main" [] [ decl "s" (i 0)
      ; for_ "k" (i 0) (i 8) [ set "s" (v "s" +: call "f" [ v "k" ]) ]
      ; ret (v "s") ]
    ; fn "f" [ "x" ] [ ret (v "x" *: i 3) ]
    ]

let test_calls_analyzed () =
  let compiled = Minic.Compile.compile calls_program in
  let _, _, chmc = analyze compiled in
  let ah, fm, am, nc = count_classes chmc in
  Alcotest.(check int) "fits: no AM" 0 am;
  Alcotest.(check int) "fits: no NC" 0 nc;
  Alcotest.(check bool) "hits exist" true (ah > fm)

(* --- SRB analysis -------------------------------------------------------- *)

let test_srb_sequential () =
  let compiled = Minic.Compile.compile straightline_program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let srb = Srb.analyze ~graph ~config:small_cfg () in
  (* Sequential code: within a 4-instruction line, fetches 2..4 hit. *)
  let total = ref 0 and hits = ref 0 in
  Array.iter
    (fun u ->
      let nd = Cfg.Graph.node graph u in
      List.iteri
        (fun k addr ->
          incr total;
          if Srb.always_hit srb ~node:u ~offset:k then begin
            incr hits;
            (* An SRB hit is never the first word of a line here. *)
            Alcotest.(check bool) "not line-leading" true (addr mod 16 <> 0)
          end)
        (Cfg.Graph.addresses graph nd))
    (Cfg.Graph.reverse_postorder graph);
  Alcotest.(check bool) "~3/4 of fetches" true (!hits * 4 >= !total * 2)

let test_srb_hit_count () =
  let compiled = Minic.Compile.compile tiny_loop_program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let srb = Srb.analyze ~graph ~config:small_cfg () in
  Alcotest.(check bool) "positive" true (Srb.hit_count srb > 0)

(* --- soundness vs concrete simulation ------------------------------------ *)

(* For each fetched address, compare the simulator's behaviour with the
   weakest classification over all references sharing that address:
   - all refs AH            -> every fetch hits
   - all refs AM            -> every fetch misses
   - all refs AH/FM(Global) -> misses <= number of such refs *)
let check_soundness ?(fault_counts = Array.make 16 0) prog =
  let compiled = Minic.Compile.compile prog in
  let fm = FM.of_faulty_counts small_cfg fault_counts in
  let assoc s = small_cfg.C.ways - fault_counts.(s) in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let loops = Cfg.Loop.detect graph in
  let chmc = Chmc.analyze ~graph ~loops ~config:small_cfg ~assoc () in
  (* Classifications per address. *)
  let by_addr : (int, Chmc.classification list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun u ->
      let nd = Cfg.Graph.node graph u in
      List.iteri
        (fun k addr ->
          let cls = Chmc.classification chmc ~node:u ~offset:k in
          Hashtbl.replace by_addr addr (cls :: Option.value ~default:[] (Hashtbl.find_opt by_addr addr)))
        (Cfg.Graph.addresses graph nd))
    (Cfg.Graph.reverse_postorder graph);
  (* Simulate. *)
  let sim = Oracle.Lru.create ~fault_map:fm small_cfg in
  let hits : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let misses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl addr = Hashtbl.replace tbl addr (1 + Option.value ~default:0 (Hashtbl.find_opt tbl addr)) in
  let result =
    Oracle.Machine.run_compiled
      ~fetch:(fun addr ->
        let hit = Oracle.Lru.access sim addr in
        bump (if hit then hits else misses) addr;
        Oracle.Lru.latency small_cfg ~hit)
      compiled
  in
  (match result.Oracle.Machine.status with
  | Oracle.Machine.Halted -> ()
  | _ -> Alcotest.fail "simulation did not halt");
  Hashtbl.iter
    (fun addr classes ->
      let h = Option.value ~default:0 (Hashtbl.find_opt hits addr) in
      let m = Option.value ~default:0 (Hashtbl.find_opt misses addr) in
      if h + m > 0 then begin
        if List.for_all (fun c -> c = Chmc.Always_hit) classes then
          Alcotest.(check int) (Printf.sprintf "AH addr %#x never misses" addr) 0 m;
        if List.for_all (fun c -> c = Chmc.Always_miss) classes then
          Alcotest.(check int) (Printf.sprintf "AM addr %#x never hits" addr) 0 h;
        if
          List.for_all
            (fun c -> c = Chmc.Always_hit || c = Chmc.First_miss Chmc.Global)
            classes
        then
          Alcotest.(check bool)
            (Printf.sprintf "FM-global addr %#x bounded misses" addr)
            true
            (m <= List.length classes)
      end)
    by_addr

let test_soundness_fault_free () =
  List.iter (check_soundness) [ straightline_program; tiny_loop_program; calls_program; big_loop_program ]

let test_soundness_with_faults () =
  let patterns =
    [ Array.make 16 1
    ; Array.make 16 4 (* everything dead *)
    ; Array.init 16 (fun s -> s mod 5 mod 4)
    ; Array.init 16 (fun s -> if s < 8 then 4 else 0)
    ]
  in
  List.iter
    (fun fc ->
      List.iter
        (fun p -> check_soundness ~fault_counts:fc p)
        [ straightline_program; tiny_loop_program; calls_program; big_loop_program ])
    patterns

let test_soundness_random_faults () =
  let state = Random.State.make [| 2026 |] in
  for _ = 1 to 10 do
    let fc = Array.init 16 (fun _ -> Random.State.int state 5) in
    check_soundness ~fault_counts:fc tiny_loop_program;
    check_soundness ~fault_counts:fc calls_program
  done

let () =
  Alcotest.run "cache_analysis"
    [ ( "acs",
        [ Alcotest.test_case "must update" `Quick test_must_update
        ; Alcotest.test_case "assoc 0" `Quick test_must_update_zero_assoc
        ; Alcotest.test_case "must join" `Quick test_must_join
        ; Alcotest.test_case "may join" `Quick test_may_join
        ; Alcotest.test_case "may tie aging" `Quick test_may_update_ties_age
        ; Alcotest.test_case "abstracts concrete LRU" `Quick test_must_abstracts_concrete
        ; test_flat_lattice
        ] )
    ; ( "chmc",
        [ Alcotest.test_case "straightline" `Quick test_straightline_spatial_locality
        ; Alcotest.test_case "tiny loop" `Quick test_tiny_loop_persistence
        ; Alcotest.test_case "dead sets" `Quick test_dead_set_override
        ; Alcotest.test_case "big loop" `Quick test_big_loop_thrashes
        ; Alcotest.test_case "calls" `Quick test_calls_analyzed
        ] )
    ; ( "srb",
        [ Alcotest.test_case "sequential" `Quick test_srb_sequential
        ; Alcotest.test_case "hit count" `Quick test_srb_hit_count
        ] )
    ; ( "soundness",
        [ Alcotest.test_case "fault free" `Quick test_soundness_fault_free
        ; Alcotest.test_case "fixed fault patterns" `Quick test_soundness_with_faults
        ; Alcotest.test_case "random fault patterns" `Quick test_soundness_random_faults
        ] )
    ]
