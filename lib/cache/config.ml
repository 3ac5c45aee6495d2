type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
  miss_latency : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let make ~sets ~ways ~line_bytes ?(hit_latency = 1) ?(miss_latency = 100) () =
  if not (is_power_of_two sets) then invalid_arg "Config.make: sets must be a power of two";
  if ways <= 0 then invalid_arg "Config.make: ways must be positive";
  if not (is_power_of_two line_bytes) then
    invalid_arg "Config.make: line_bytes must be a power of two";
  if hit_latency <= 0 || miss_latency < hit_latency then
    invalid_arg "Config.make: need 0 < hit_latency <= miss_latency";
  { sets; ways; line_bytes; hit_latency; miss_latency }

let paper_default = make ~sets:16 ~ways:4 ~line_bytes:16 ()

let of_geometry ~sets ~ways ~line_bytes =
  try Ok (make ~sets ~ways ~line_bytes ())
  with Invalid_argument msg -> Error ("invalid cache configuration: " ^ msg)

let of_string s =
  match List.map int_of_string_opt (String.split_on_char 'x' s) with
  | [ Some sets; Some ways ] -> of_geometry ~sets ~ways ~line_bytes:16
  | [ Some sets; Some ways; Some line_bytes ] -> of_geometry ~sets ~ways ~line_bytes
  | _ -> Error (Printf.sprintf "malformed geometry %S (expected SETSxWAYS[xLINE], e.g. 16x4x16)" s)

let to_string t = Printf.sprintf "%dx%dx%d" t.sets t.ways t.line_bytes

let size_bytes t = t.sets * t.ways * t.line_bytes
let block_bits t = 8 * t.line_bytes
let block_of_address t addr = addr / t.line_bytes
let set_of_block t block = block mod t.sets
let set_of_address t addr = set_of_block t (block_of_address t addr)
let miss_penalty t = t.miss_latency - t.hit_latency
let latency t ~hit = if hit then t.hit_latency else t.miss_latency

let pp fmt t =
  Format.fprintf fmt "%dB %d-way, %d sets x %dB lines (hit %d, miss %d)" (size_bytes t) t.ways
    t.sets t.line_bytes t.hit_latency t.miss_latency
