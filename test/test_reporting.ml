(* Tests for the text-rendering layer: tables and ASCII plots. *)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at k = k + nn <= nh && (String.sub haystack k nn = needle || at (k + 1)) in
  nn = 0 || at 0

(* --- tables ------------------------------------------------------------- *)

let test_table_alignment () =
  let s =
    Reporting.Table.render ~header:[ "name"; "value" ]
      ~rows:[ [ "a"; "1" ]; [ "longer-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* All rows padded to the same width. *)
  (match lines with
  | header :: sep :: rest ->
    Alcotest.(check bool) "has separator" true (string_contains sep "---");
    List.iter
      (fun l -> Alcotest.(check bool) "rows not shorter than header" true
          (String.length l >= String.length header - 2))
      rest
  | _ -> Alcotest.fail "unexpected shape")

let test_table_ragged_rejected () =
  match Reporting.Table.render ~header:[ "a"; "b" ] ~rows:[ [ "only-one" ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let sample_rows =
  [ { Pwcet.Report_data.name = "alpha"; wcet_ff = 100; pwcet_none = 400; pwcet_srb = 300; pwcet_rw = 200 }
  ; { Pwcet.Report_data.name = "beta"; wcet_ff = 50; pwcet_none = 50; pwcet_srb = 50; pwcet_rw = 50 }
  ]

let test_fig4_table () =
  let s = Reporting.Table.fig4 sample_rows in
  Alcotest.(check bool) "has benchmark column" true (string_contains s "alpha");
  Alcotest.(check bool) "has normalised value" true (string_contains s "0.750");
  Alcotest.(check bool) "has gain" true (string_contains s "25.0%");
  Alcotest.(check bool) "beta is category 1" true (string_contains s "1")

let test_aggregates_text () =
  let s = Reporting.Table.aggregates sample_rows in
  Alcotest.(check bool) "mentions averages" true (string_contains s "average gain");
  Alcotest.(check bool) "mentions paper numbers" true (string_contains s "48%");
  Alcotest.(check bool) "counts categories" true (string_contains s "categories")

(* --- plots --------------------------------------------------------------- *)

let test_exceedance_plot () =
  let series =
    [ ("none", [ (100, 1.0); (200, 1e-6); (300, 1e-12) ])
    ; ("rw", [ (100, 1.0); (150, 1e-14) ])
    ]
  in
  let s = Reporting.Ascii_plot.exceedance ~series () in
  Alcotest.(check bool) "legend none" true (string_contains s "# = none");
  Alcotest.(check bool) "legend rw" true (string_contains s "+ = rw");
  Alcotest.(check bool) "x axis min" true (string_contains s "100");
  Alcotest.(check bool) "x axis max" true (string_contains s "300");
  Alcotest.(check bool) "y axis label" true (string_contains s "P(WCET >= x)")

let test_exceedance_plot_empty () =
  Alcotest.(check string) "empty" "(empty plot)\n" (Reporting.Ascii_plot.exceedance ~series:[] ())

let () =
  Alcotest.run "reporting"
    [ ( "tables",
        [ Alcotest.test_case "alignment" `Quick test_table_alignment
        ; Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected
        ; Alcotest.test_case "fig4" `Quick test_fig4_table
        ; Alcotest.test_case "aggregates" `Quick test_aggregates_text
        ] )
    ; ( "plots",
        [ Alcotest.test_case "exceedance" `Quick test_exceedance_plot
        ; Alcotest.test_case "empty" `Quick test_exceedance_plot_empty
        ] )
    ]
