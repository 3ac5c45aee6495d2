(* The paper's shape claims (DESIGN.md §4) at the paper's own geometry:
   16 sets x 4 ways x 16 B, pfail 1e-4, target 1e-15. The 25 Fig. 4 rows
   come from the same Grid.run spec and the same Grid.fig4_rows reader
   as `pwcet_tool suite`, whose printed table test/golden pins byte for
   byte. Claim (iv), the ordering of the Fig. 3 curves, is the "curve
   ordering" test of test_pwcet.ml. *)

module R = Pwcet.Report_data

let pfail = 1e-4
let target = 1e-15

let rows =
  lazy
    (let benchmarks =
       List.map
         (fun (e : Benchmarks.Registry.entry) ->
           ( e.Benchmarks.Registry.name,
             (Minic.Compile.compile e.Benchmarks.Registry.program).Minic.Compile.program ))
         Benchmarks.Registry.all
     in
     let spec =
       { Grid.benchmarks;
         configs = [ Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () ];
         mechanisms = Pwcet.Mechanism.all; pfail_grid = [ pfail ]; targets = [ target ];
         engine = `Path; exact = false; impl = `Sliced }
     in
     let cells = List.filter_map (fun (_, outcome) -> Result.to_option outcome) (Grid.run spec) in
     Grid.fig4_rows spec cells)

let rows_only () = List.map fst (Lazy.force rows)

let test_complete () =
  let rows = Lazy.force rows in
  Alcotest.(check int) "one row per registry program"
    (List.length Benchmarks.Registry.all) (List.length rows);
  List.iter
    (fun ((r : R.row), rung) ->
      Alcotest.(check bool) (r.name ^ " exact") true (Robust.Rung.equal rung Robust.Rung.Exact))
    rows

(* (i) Without protection, faults push the pWCET far above the
   fault-free WCET. *)
let test_no_protection_far_above () =
  let rows = rows_only () in
  List.iter
    (fun (r : R.row) ->
      if r.pwcet_none <= r.wcet_ff then
        Alcotest.failf "%s: pwcet none %d <= fault-free %d" r.name r.pwcet_none r.wcet_ff)
    rows;
  let ratios =
    List.sort compare
      (List.map (fun (r : R.row) -> float_of_int r.wcet_ff /. float_of_int r.pwcet_none) rows)
  in
  let median = List.nth ratios (List.length ratios / 2) in
  if median > 0.5 then Alcotest.failf "median ff/none %.3f > 0.5" median

(* (ii) Both mechanisms help every program, and RW never less than SRB. *)
let test_gains_ordered () =
  List.iter
    (fun (r : R.row) ->
      let srb = R.gain_srb r and rw = R.gain_rw r in
      if not (srb > 0.0 && rw > 0.0) then
        Alcotest.failf "%s: gains srb %.4f rw %.4f not positive" r.name srb rw;
      if rw < srb then
        Alcotest.failf "%s: gain rw %.6f < gain srb %.6f (pwcet rw %d, srb %d)" r.name rw srb
          r.pwcet_rw r.pwcet_srb)
    (rows_only ())

(* (iii) Every one of the paper's four behavioural categories occurs. *)
let test_all_categories () =
  let present = List.sort_uniq compare (List.map R.category (rows_only ())) in
  Alcotest.(check (list int)) "categories present" [ 1; 2; 3; 4 ] present

(* Section IV-B: on average RW gains at least as much as SRB. *)
let test_average_gains () =
  let rw, srb = R.average_gains (rows_only ()) in
  if rw < srb then Alcotest.failf "average gain rw %.4f < srb %.4f" rw srb

let () =
  Alcotest.run "claims"
    [ ( "paper geometry",
        [ Alcotest.test_case "25 exact rows" `Quick test_complete
        ; Alcotest.test_case "(i) no protection far above fault-free" `Quick
            test_no_protection_far_above
        ; Alcotest.test_case "(ii) gains positive, rw >= srb" `Quick test_gains_ordered
        ; Alcotest.test_case "(iii) all four categories" `Quick test_all_categories
        ; Alcotest.test_case "IV-B average rw >= srb" `Quick test_average_gains
        ] )
    ]
