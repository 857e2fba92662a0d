let csv_dir : string option ref = ref None
let csv_counter = ref 0
let current_slug = ref "untitled"

let set_output_dir dir =
  csv_dir := dir;
  match dir with
  | Some path -> if not (Sys.file_exists path) then Sys.mkdir path 0o755
  | None -> ()

let slug_of title =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii ch
      | _ -> '-')
    (String.sub title 0 (Int.min 40 (String.length title)))

let banner title =
  current_slug := slug_of title;
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let subsection title = Printf.printf "\n--- %s ---\n" title

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let file =
        Filename.concat dir (Printf.sprintf "table_%03d_%s.csv" !csv_counter !current_slug)
      in
      P2p_obs.Json.write_file_atomic file (fun oc ->
          let emit row =
            output_string oc (String.concat "," (List.map csv_escape row) ^ "\n")
          in
          emit header;
          List.iter emit rows)

let table ~header rows =
  write_csv ~header rows;
  let all = header :: rows in
  let cols = List.fold_left (fun acc row -> Int.max acc (List.length row)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if String.length cell > width.(i) then width.(i) <- String.length cell)
        row)
    all;
  let print_row row =
    let padded = row @ List.init (cols - List.length row) (fun _ -> "") in
    List.iteri (fun i cell -> Printf.printf "%-*s  " width.(i) cell) padded;
    print_char '\n'
  in
  print_row header;
  print_row (List.init cols (fun i -> String.make width.(i) '-'));
  List.iter print_row rows;
  flush stdout

let kv pairs =
  let width = List.fold_left (fun acc (k, _) -> Int.max acc (String.length k)) 0 pairs in
  List.iter (fun (k, v) -> Printf.printf "  %-*s : %s\n" width k v) pairs

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.4g" x
  else if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else "nan"

let fmt_bool b = if b then "yes" else "no"
