let floor_clip p = if p <= 0.0 then 1e-18 else p

let exceedance ?(width = 72) ?(height = 20) ~series () =
  let buf = Buffer.create 4096 in
  let all_points = List.concat_map snd series in
  if all_points = [] then "(empty plot)\n"
  else begin
    let xs = List.map fst all_points in
    let x_min = List.fold_left min max_int xs and x_max = List.fold_left max min_int xs in
    let x_max = if x_max = x_min then x_min + 1 else x_max in
    let y_top = 0.0 (* log10 of 1 *) and y_bottom = -18.0 in
    let grid = Array.make_matrix height width ' ' in
    let marks = [| '#'; '+'; 'o'; '*'; 'x' |] in
    List.iteri
      (fun si (_, points) ->
        let mark = marks.(si mod Array.length marks) in
        (* The exceedance is a right-continuous staircase: from each
           point, draw to the x of the next point at this level. *)
        let rec draw = function
          | [] -> ()
          | (x, p) :: rest ->
            let x_next = match rest with (x2, _) :: _ -> x2 | [] -> x_max in
            let level = log10 (floor_clip p) in
            let row =
              let frac = (y_top -. level) /. (y_top -. y_bottom) in
              min (height - 1) (max 0 (int_of_float (frac *. float_of_int (height - 1))))
            in
            let col_of x =
              let frac = float_of_int (x - x_min) /. float_of_int (x_max - x_min) in
              min (width - 1) (max 0 (int_of_float (frac *. float_of_int (width - 1))))
            in
            for c = col_of x to col_of x_next do
              grid.(row).(c) <- mark
            done;
            draw rest
        in
        draw points)
      series;
    Buffer.add_string buf "  P(WCET >= x)\n";
    Array.iteri
      (fun r row ->
        let level = -18.0 *. float_of_int r /. float_of_int (height - 1) in
        Buffer.add_string buf (Printf.sprintf "  1e%+03.0f |" level);
        Buffer.add_string buf (String.init width (fun c -> row.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (Printf.sprintf "         +%s\n" (String.make width '-'));
    Buffer.add_string buf (Printf.sprintf "          %-10d%*d (cycles)\n" x_min (width - 10) x_max);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "          %c = %s\n" marks.(si mod Array.length marks) name))
      series;
    Buffer.contents buf
  end
