module Timeavg = P2p_stats.Timeavg

type t = {
  k : int;
  mutable rev_samples : Probe.sample list;
  mutable count : int;
  avg_n : Timeavg.t;
  avg_seeds : Timeavg.t;
  avg_club : Timeavg.t;
  avg_rarest : Timeavg.t;
  avg_pieces : Timeavg.t array;
}

let create ~k =
  if k < 1 then invalid_arg "Series.create: k < 1";
  {
    k;
    rev_samples = [];
    count = 0;
    avg_n = Timeavg.create ();
    avg_seeds = Timeavg.create ();
    avg_club = Timeavg.create ();
    avg_rarest = Timeavg.create ();
    avg_pieces = Array.init k (fun _ -> Timeavg.create ());
  }

let k t = t.k

let record t (s : Probe.sample) =
  if Array.length s.piece_counts <> t.k then
    invalid_arg "Series.record: sample k does not match series k";
  Timeavg.observe t.avg_n ~time:s.time ~value:(float_of_int s.n);
  Timeavg.observe t.avg_seeds ~time:s.time ~value:(float_of_int s.seeds);
  Timeavg.observe t.avg_club ~time:s.time ~value:(float_of_int s.one_club);
  Timeavg.observe t.avg_rarest ~time:s.time ~value:(float_of_int s.rarest_count);
  Array.iteri
    (fun piece avg -> Timeavg.observe avg ~time:s.time ~value:(float_of_int s.piece_counts.(piece)))
    t.avg_pieces;
  t.rev_samples <- s :: t.rev_samples;
  t.count <- t.count + 1

let close t ~time =
  Timeavg.close t.avg_n ~time;
  Timeavg.close t.avg_seeds ~time;
  Timeavg.close t.avg_club ~time;
  Timeavg.close t.avg_rarest ~time;
  Array.iter (fun avg -> Timeavg.close avg ~time) t.avg_pieces

let count t = t.count
let samples t = Array.of_list (List.rev t.rev_samples)

let series_of field t =
  Array.of_list (List.rev_map (fun (s : Probe.sample) -> (s.time, field s)) t.rev_samples)

let one_club_series = series_of (fun s -> s.one_club)
let population_series = series_of (fun s -> s.n)

let avg_n t = Timeavg.average t.avg_n
let avg_seeds t = Timeavg.average t.avg_seeds
let avg_one_club t = Timeavg.average t.avg_club
let avg_rarest_count t = Timeavg.average t.avg_rarest

let avg_piece t piece =
  if piece < 0 || piece >= t.k then invalid_arg "Series.avg_piece: piece out of range";
  Timeavg.average t.avg_pieces.(piece)

(* ---- persistence ---- *)

let schema = "p2p-swarm-probe"
let version = 1

(* The row format: [write] emits these keys in this order and [read]
   accepts exactly that shape. *)
let row_keys = [ "t"; "n"; "seeds"; "club"; "rarest"; "rarest_n"; "pieces" ]

let header t =
  Json.Obj [ ("schema", Json.String schema); ("version", Json.Int version); ("k", Json.Int t.k) ]

(* What precedes each value on a row: [{"t":], [,"n":], ... *)
let per_key f = Array.of_list (List.mapi f row_keys)
let prefixes = per_key (fun i -> Printf.sprintf "%c%S:" (if i = 0 then '{' else ','))

(* Rows go straight into one buffer, written out every 64 KiB. *)
let write t oc =
  let buf = Buffer.create 65536 in
  let field i v = Buffer.add_string buf prefixes.(i); Json.add_int buf v in
  Buffer.add_string buf (Json.to_string (header t));
  Buffer.add_char buf '\n';
  List.iter
    (fun (s : Probe.sample) ->
      Buffer.add_string buf prefixes.(0);
      Json.add_float buf s.time;
      field 1 s.n;
      field 2 s.seeds;
      field 3 s.one_club;
      field 4 (s.rarest_piece + 1);
      field 5 s.rarest_count;
      Buffer.add_string buf prefixes.(6);
      Array.iteri
        (fun i c -> Buffer.add_char buf (if i = 0 then '[' else ','); Json.add_int buf c)
        s.piece_counts;
      Buffer.add_string buf "]}\n";
      if Buffer.length buf >= 65536 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    (List.rev t.rev_samples);
  Buffer.output_buffer oc buf

(* ---- reading rows in place ---- *)

exception Bad_row of string

let fail msg = raise (Bad_row msg)

(* The errors that name each key. *)
let missing = per_key (fun _ -> Printf.sprintf "expected field %S")
let not_int = per_key (fun _ -> Printf.sprintf "field %S is not an integer")
let bad_pieces = "field \"pieces\" is not an int array of length k"
let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* A row's bytes, [s] over [[p, stop)], consumed left to right. *)
type cursor = { s : string; mutable p : int; mutable stop : int }

let skip c lit =
  let l = String.length lit in
  let i = ref 0 in
  while !i < l && c.p + !i < c.stop && c.s.[c.p + !i] = lit.[!i] do incr i done;
  !i = l && (c.p <- c.p + l; true)

let expect c lit msg = if not (skip c lit) then fail msg

(* The token [Json] would read as a number. *)
let token c =
  let a = c.p in
  while c.p < c.stop && is_number_char c.s.[c.p] do c.p <- c.p + 1 done;
  String.sub c.s a (c.p - a)

(* [Json]'s integer reading of the token; plain decimal digits skip the
   substring. *)
let int_value c err =
  let a = c.p and v = ref 0 in
  if a < c.stop && c.s.[a] = '-' then c.p <- a + 1;
  let first = c.p in
  while c.p < c.stop && c.s.[c.p] >= '0' && c.s.[c.p] <= '9' do
    v := (10 * !v) + Char.code c.s.[c.p] - 48;
    c.p <- c.p + 1
  done;
  if c.p > first && c.p - first <= 18 && not (c.p < c.stop && is_number_char c.s.[c.p]) then
    if first > a then - !v else !v
  else (
    c.p <- a;
    match int_of_string_opt (token c) with Some i -> i | None -> fail err)

(* One row, exactly as [write] prints it. *)
let scan_row ~k c =
  let int_field i = expect c prefixes.(i) missing.(i); int_value c not_int.(i) in
  expect c prefixes.(0) missing.(0);
  let time =
    if skip c "null" then nan
    else
      let tok = token c in
      (* [Json] tries a token without '.', 'e' or 'E' as an integer first *)
      match
        if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then None
        else int_of_string_opt tok
      with
      | Some i -> float_of_int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> f
          | None -> fail "missing or bad field \"t\"")
  in
  let n = int_field 1 in
  let seeds = int_field 2 in
  let one_club = int_field 3 in
  let rarest = int_field 4 in
  let rarest_count = int_field 5 in
  expect c prefixes.(6) missing.(6);
  expect c "[" bad_pieces;
  let pieces = Array.make k 0 in
  for i = 0 to k - 1 do
    if i > 0 then expect c "," bad_pieces;
    pieces.(i) <- int_value c bad_pieces
  done;
  expect c "]" bad_pieces;
  if not (skip c "}" && c.p = c.stop) then fail "trailing bytes after the row";
  if rarest < 1 || rarest > k then fail "field \"rarest\" out of [1, k]";
  { Probe.time; n; seeds; one_club; rarest_piece = rarest - 1; rarest_count; piece_counts = pieces }

let read ic =
  let s = In_channel.input_all ic in
  let n = String.length s in
  let line_end pos = Option.value ~default:n (String.index_from_opt s pos '\n') in
  if n = 0 then Error "empty probe file"
  else
    let header_end = line_end 0 in
    match Json.of_string (String.sub s 0 header_end) with
    | Error msg -> Error ("bad header line: " ^ msg)
    | Ok header ->
        if Option.bind (Json.member "schema" header) Json.to_string_opt <> Some schema then
          Error (Printf.sprintf "not a %s file (bad or missing schema)" schema)
        else begin
          match Option.bind (Json.member "k" header) Json.to_int_opt with
          | None -> Error "header has no \"k\""
          | Some k when k < 1 -> Error "header \"k\" < 1"
          | Some k -> (
              let t = create ~k in
              let c = { s; p = 0; stop = 0 } in
              let rec loop lineno pos =
                if pos >= n then Ok ()
                else
                  let stop = line_end pos in
                  c.p <- pos;
                  c.stop <- stop;
                  match scan_row ~k c with
                  | sample ->
                      record t sample;
                      loop (lineno + 1) (stop + 1)
                  | exception Bad_row _ when String.trim (String.sub s pos (stop - pos)) = "" ->
                      loop (lineno + 1) (stop + 1)
                  | exception Bad_row msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
              in
              match loop 2 (header_end + 1) with
              | Error _ as e -> e
              | Ok () ->
                  (match t.rev_samples with
                  | last :: _ -> close t ~time:last.Probe.time
                  | [] -> ());
                  Ok t)
        end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
