module IntMap = Map.Make (Int)

type t = int IntMap.t

let empty = IntMap.empty
let equal = IntMap.equal Int.equal
let age t b = IntMap.find_opt b t
let mem t b = IntMap.mem b t
let blocks t = List.map fst (IntMap.bindings t)

let must_update ~assoc t b =
  if assoc <= 0 then IntMap.empty
  else begin
    let old_age = match IntMap.find_opt b t with Some a -> a | None -> max_int in
    let aged =
      IntMap.filter_map
        (fun c a -> if c = b then None else if a < old_age then (if a + 1 < assoc then Some (a + 1) else None) else Some a)
        t
    in
    IntMap.add b 0 aged
  end

let must_join a b =
  IntMap.merge
    (fun _ x y -> match (x, y) with Some x, Some y -> Some (max x y) | _ -> None)
    a b

let may_update ~assoc t b =
  if assoc <= 0 then IntMap.empty
  else begin
    let old_age = match IntMap.find_opt b t with Some a -> a | None -> max_int in
    let aged =
      IntMap.filter_map
        (fun c a -> if c = b then None else if a <= old_age then (if a + 1 < assoc then Some (a + 1) else None) else Some a)
        t
    in
    IntMap.add b 0 aged
  end

let may_join a b =
  IntMap.union (fun _ x y -> Some (min x y)) a b

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map (fun (b, a) -> Printf.sprintf "%d@%d" b a) (IntMap.bindings t)))
