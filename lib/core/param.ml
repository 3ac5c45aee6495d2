let pfail = 1e-4
let target = 1e-15
let pfail_grid = [ 1e-6; 1e-5; 1e-4; 1e-3 ]

let within ~range ok x =
  if Float.is_finite x && ok x then Ok x else Error (Printf.sprintf "%s, got %g" range x)

let probability =
  within ~range:"probability must lie strictly inside (0, 1)" (fun p -> p > 0.0 && p < 1.0)

let positive = within ~range:"must be a positive finite number" (fun x -> x > 0.0)
let rate = within ~range:"must lie inside [0, 1)" (fun x -> x >= 0.0 && x < 1.0)

let at_least n v =
  if v >= n then Ok v else Error (Printf.sprintf "must be at least %d, got %d" n v)

let lookup ~what ~names of_string s =
  match of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S (expected %s)" what s (String.concat ", " names))

let mechanism_names = List.map Mechanism.short_name Mechanism.all
let mechanism = lookup ~what:"mechanism" ~names:mechanism_names Mechanism.of_string

let mechanisms =
  lookup ~what:"mechanism" ~names:(mechanism_names @ [ "all" ]) (function
    | "all" -> Some Mechanism.all
    | s -> Option.map (fun m -> [ m ]) (Mechanism.of_string s))

let engines = [ `Path; `Ilp ]

let engine =
  lookup ~what:"engine" ~names:(List.map Estimator.engine_tag engines) (fun s ->
      List.find_opt (fun e -> Estimator.engine_tag e = s) engines)
