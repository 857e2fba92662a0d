module Timeavg = P2p_stats.Timeavg

(* A run: [first] and [repeats] more samples equal to it but for their
   time, each one [step] after the one before ([last +. step], the
   addition [Engine.record_through] makes). *)
type run = { first : Probe.sample; mutable repeats : int }

(* All fields are floats, so the record is flat and its stores do not
   box.  [last] is the last sample's time ([nan] before the first, so no
   sample extends a run), [end_] the latest time recorded or closed. *)
type clock = { mutable step : float; mutable last : float; mutable end_ : float }

type t = {
  k : int;
  clock : clock;
  mutable rev_runs : run list;
  mutable count : int;
  avg_n : Timeavg.t;
  avg_seeds : Timeavg.t;
  avg_club : Timeavg.t;
  avg_rarest : Timeavg.t;
  avg_pieces : Timeavg.t array;
}

let create ~k ~interval =
  if k < 1 then invalid_arg "Series.create: k < 1";
  if not (Float.is_finite interval && interval > 0.0) then
    invalid_arg "Series.create: interval not finite and > 0";
  {
    k;
    clock = { step = interval; last = nan; end_ = 0.0 };
    rev_runs = [];
    count = 0;
    avg_n = Timeavg.create ();
    avg_seeds = Timeavg.create ();
    avg_club = Timeavg.create ();
    avg_rarest = Timeavg.create ();
    avg_pieces = Array.init k (fun _ -> Timeavg.create ());
  }

let k t = t.k

let[@inline] observe t (s : Probe.sample) ~time =
  Timeavg.observe t.avg_n ~time ~value:(float_of_int s.n);
  Timeavg.observe t.avg_seeds ~time ~value:(float_of_int s.seeds);
  Timeavg.observe t.avg_club ~time ~value:(float_of_int s.one_club);
  Timeavg.observe t.avg_rarest ~time ~value:(float_of_int s.rarest_count);
  for piece = 0 to t.k - 1 do
    Timeavg.observe t.avg_pieces.(piece) ~time ~value:(float_of_int s.piece_counts.(piece))
  done;
  t.clock.last <- time;
  t.clock.end_ <- time;
  t.count <- t.count + 1

let same_counts (a : Probe.sample) (b : Probe.sample) =
  a.n = b.n && a.seeds = b.seeds && a.one_club = b.one_club && a.rarest_piece = b.rarest_piece
  && a.rarest_count = b.rarest_count
  &&
  let i = ref (Array.length a.piece_counts - 1) in
  while !i >= 0 && a.piece_counts.(!i) = b.piece_counts.(!i) do decr i done;
  !i < 0

let record t (s : Probe.sample) =
  if Array.length s.piece_counts <> t.k then
    invalid_arg "Series.record: sample k does not match series k";
  let on_grid = s.time = t.clock.last +. t.clock.step in
  observe t s ~time:s.time;
  match t.rev_runs with
  | run :: _ when on_grid && same_counts run.first s -> run.repeats <- run.repeats + 1
  | _ -> t.rev_runs <- { first = s; repeats = 0 } :: t.rev_runs

(* The next sample of the current run, as [record] would take it. *)
let repeat t run =
  run.repeats <- run.repeats + 1;
  observe t run.first ~time:(t.clock.last +. t.clock.step)

let close t ~time =
  Timeavg.close t.avg_n ~time;
  Timeavg.close t.avg_seeds ~time;
  Timeavg.close t.avg_club ~time;
  Timeavg.close t.avg_rarest ~time;
  Array.iter (fun avg -> Timeavg.close avg ~time) t.avg_pieces;
  t.clock.end_ <- time

let count t = t.count

type cursor = { mutable time : float }

(* Each run's first sample at its own time, then its repeats at the
   [+.] steps [repeat] took. *)
let iter t f =
  let at = { time = 0.0 } in
  List.iter
    (fun run ->
      at.time <- run.first.time;
      f at run.first;
      for _ = 1 to run.repeats do
        at.time <- at.time +. t.clock.step;
        f at run.first
      done)
    (List.rev t.rev_runs)

let samples t =
  match t.rev_runs with
  | [] -> [||]
  | latest :: _ ->
      let out = Array.make t.count latest.first in
      let i = ref 0 in
      iter t (fun at s ->
          (* a run's first sample is the stored one *)
          out.(!i) <- (if at.time = s.time then s else { s with time = at.time });
          incr i);
      out

let series_of field t =
  let out = Array.make t.count (0.0, 0) and i = ref 0 in
  iter t (fun at s ->
      out.(!i) <- (at.time, field s);
      incr i);
  out

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
let version = 2

(* The row format: [write] emits these keys in this order, the last,
   the run's repeats, only when there are some; [read] accepts exactly
   that shape. *)
let row_keys = [ "t"; "n"; "seeds"; "club"; "rarest"; "rarest_n"; "pieces"; "r" ]

let header t =
  Json.Obj
    [ ("schema", Json.String schema); ("version", Json.Int version); ("k", Json.Int t.k);
      ("interval", Json.Float t.clock.step); ("end", Json.Float t.clock.end_) ]

(* What precedes each value on a row: [{"t":], [,"n":], ... *)
let per_key f = Array.of_list (List.mapi f row_keys)
let prefixes = per_key (fun i -> Printf.sprintf "%c%S:" (if i = 0 then '{' else ','))

(* Rows, one per run, go straight into one buffer, written out every
   64 KiB. *)
let write t oc =
  let buf = Buffer.create 65536 in
  let field i v = Buffer.add_string buf prefixes.(i); Json.add_int buf v in
  Buffer.add_string buf (Json.to_string (header t));
  Buffer.add_char buf '\n';
  List.iter
    (fun { first = s; repeats } ->
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
      Buffer.add_char buf ']';
      if repeats > 0 then field 7 repeats;
      Buffer.add_string buf "}\n";
      if Buffer.length buf >= 65536 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    (List.rev t.rev_runs);
  Buffer.output_buffer oc buf

(* ---- reading rows in place ---- *)

exception Bad_row of string

let fail msg = raise (Bad_row msg)

(* The errors that name each key. *)
let missing = per_key (fun _ -> Printf.sprintf "expected field %S")
let not_int = per_key (fun _ -> Printf.sprintf "field %S is not an integer")
let bad_pieces = "field \"pieces\" is not an int array of length k"
let is_digit = function '0' .. '9' -> true | _ -> false
let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* The file's bytes [s], consumed left to right from [p]; [stop] is
   their length.  A row never spans a newline: no literal or number
   token of the row shape holds one, so a scan stops at the row's end
   without looking for it first.  [repeats] is the last row's ["r"], 0
   without one. *)
type reader = { s : string; stop : int; mutable p : int; mutable repeats : int }

let skip c lit =
  let l = String.length lit in
  c.p + l <= c.stop
  && begin
       let i = ref 0 in
       while !i < l && String.unsafe_get c.s (c.p + !i) = String.unsafe_get lit !i do incr i done;
       !i = l
     end
  && (c.p <- c.p + l; true)

let expect c lit msg = if not (skip c lit) then fail msg

(* The token [Json] would read as a number. *)
let token c =
  let a = c.p in
  while c.p < c.stop && is_number_char c.s.[c.p] do c.p <- c.p + 1 done;
  String.sub c.s a (c.p - a)

(* No plain integer: [min_int] has 19 digits, more than a plain token. *)
let no_int = min_int

(* A token of an optional '-' and 1 to 18 decimal digits, consumed and
   read with no substring; [no_int], with nothing consumed, for any
   other token. *)
let plain_int c =
  let a = c.p in
  let first = if a < c.stop && c.s.[a] = '-' then a + 1 else a in
  let p = ref first and v = ref 0 in
  while !p < c.stop && is_digit (String.unsafe_get c.s !p) do
    v := (10 * !v) + Char.code (String.unsafe_get c.s !p) - 48;
    incr p
  done;
  if !p > first && !p - first <= 18 && not (!p < c.stop && is_number_char c.s.[!p]) then begin
    c.p <- !p;
    if first > a then - !v else !v
  end
  else no_int

(* [Json]'s integer reading of the token. *)
let int_value c err =
  let v = plain_int c in
  if v <> no_int then v
  else match int_of_string_opt (token c) with Some i -> i | None -> fail err

(* [Json]'s number reading of ["t"]: a token without '.', 'e' or 'E' is
   tried as an integer first. *)
let time_value c =
  if skip c "null" then nan
  else
    let v = plain_int c in
    if v <> no_int then float_of_int v
    else
      let tok = token c in
      match
        if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then None
        else int_of_string_opt tok
      with
      | Some i -> float_of_int i
      | None -> (
          match float_of_string tok with
          | f -> f
          | exception Failure _ -> fail "missing or bad field \"t\"")

(* One row, exactly as [write] prints it; a version 1 row has no ["r"].
   Each field is read inline: a local helper closing over [c] costs
   ~80 ns a row. *)
let scan_row ~v2 ~k c =
  expect c prefixes.(0) missing.(0);
  let time = time_value c in
  expect c prefixes.(1) missing.(1);
  let n = int_value c not_int.(1) in
  expect c prefixes.(2) missing.(2);
  let seeds = int_value c not_int.(2) in
  expect c prefixes.(3) missing.(3);
  let one_club = int_value c not_int.(3) in
  expect c prefixes.(4) missing.(4);
  let rarest = int_value c not_int.(4) in
  expect c prefixes.(5) missing.(5);
  let rarest_count = int_value c not_int.(5) in
  expect c prefixes.(6) missing.(6);
  expect c "[" bad_pieces;
  let pieces = Array.make k 0 in
  for i = 0 to k - 1 do
    if i > 0 then expect c "," bad_pieces;
    pieces.(i) <- int_value c bad_pieces
  done;
  expect c "]" bad_pieces;
  c.repeats <- 0;
  if skip c prefixes.(7) then begin
    if not v2 then fail "field \"r\" in a version 1 file";
    c.repeats <- int_value c not_int.(7);
    if c.repeats < 1 then fail "field \"r\" < 1"
  end;
  if not (skip c "}" && (c.p = c.stop || c.s.[c.p] = '\n')) then
    fail "trailing bytes after the row";
  if rarest < 1 || rarest > k then fail "field \"rarest\" out of [1, k]";
  { Probe.time; n; seeds; one_club; rarest_piece = rarest - 1; rarest_count; piece_counts = pieces }

let line_error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg)

(* Rows re-expand into runs on the grid [interval] of a version 2
   header, which closes the averages at its ["end"].  A version 1 file
   closes at its last sample and takes its first step as the grid. *)
let read_rows s ~header_end ~v2 ~k ~interval ~end_ =
  let t = create ~k ~interval in
  let c = { s; stop = String.length s; p = 0; repeats = 0 } in
  let rec loop lineno pos =
    if pos >= c.stop then Ok ()
    else begin
      c.p <- pos;
      match scan_row ~v2 ~k c with
      | exception Bad_row msg ->
          let stop = try String.index_from s pos '\n' with Not_found -> c.stop in
          if String.trim (String.sub s pos (stop - pos)) = "" then loop (lineno + 1) (stop + 1)
          else line_error lineno msg
      | sample when Float.of_int c.repeats > ((end_ -. sample.time) /. interval) +. 1.0 ->
          line_error lineno "field \"r\" runs past the header's \"end\""
      | sample -> (
          if (not v2) && t.count = 1 && sample.time > t.clock.last then
            t.clock.step <- sample.time -. t.clock.last;
          match record t sample with
          | exception Invalid_argument msg -> line_error lineno msg
          | () ->
              let run = List.hd t.rev_runs in
              for _ = 1 to c.repeats do
                repeat t run
              done;
              loop (lineno + 1) (c.p + 1))
    end
  in
  match loop 2 (header_end + 1) with
  | Error _ as e -> e
  | Ok () when v2 && end_ < t.clock.end_ -> Error "header \"end\" is before the last sample"
  | Ok () ->
      close t ~time:(if v2 then end_ else t.clock.end_);
      Ok t

let read ic =
  let s = In_channel.input_all ic in
  let header_end = Option.value ~default:(String.length s) (String.index_opt s '\n') in
  if s = "" then Error "empty probe file"
  else
    match Json.of_string (String.sub s 0 header_end) with
    | Error msg -> Error ("bad header line: " ^ msg)
    | Ok header -> (
        let member key to_ = Option.bind (Json.member key header) to_ in
        let finite key =
          Option.bind (member key Json.to_float_opt) (fun x -> if Float.is_finite x then Some x else None)
        in
        if member "schema" Json.to_string_opt <> Some schema then
          Error (Printf.sprintf "not a %s file (bad or missing schema)" schema)
        else
          match (member "version" Json.to_int_opt, member "k" Json.to_int_opt) with
          | None, _ -> Error "header has no integer \"version\""
          | Some v, _ when v <> 1 && v <> 2 ->
              Error (Printf.sprintf "unsupported %s version %d (this reader takes 1 and 2)" schema v)
          | _, None -> Error "header has no \"k\""
          | _, Some k when k < 1 -> Error "header \"k\" < 1"
          | Some 1, Some k ->
              read_rows s ~header_end ~v2:false ~k ~interval:1.0 ~end_:infinity
          | Some _, Some k -> (
              match finite "interval" with
              | Some interval when interval > 0.0 -> (
                  match finite "end" with
                  | Some end_ -> read_rows s ~header_end ~v2:true ~k ~interval ~end_
                  | None -> Error "header \"end\" is missing or not finite")
              | _ -> Error "header \"interval\" is missing, not finite or <= 0"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
