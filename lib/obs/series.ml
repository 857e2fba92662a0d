(* A run: [first] and [repeats] more samples equal to it but for their
   time, each one step of the grid after the one before ([Grid.after],
   the addition the engine's grids make). *)
type run = { first : Probe.sample; mutable repeats : int }

(* [end_] is the latest time recorded or closed.  Its one field is a
   float, so the record is flat and its stores do not box. *)
type clock = { mutable end_ : float }

(* [grid.next] is the time a sample must have to extend the current run,
   and the time a compact row is read at: one step after the last
   sample, [nan] before the first. *)
type t = {
  k : int;
  mutable grid : Grid.t;
  clock : clock;
  mutable rev_runs : run list;
  mutable count : int;
}

let create ~k ~interval =
  if k < 1 then invalid_arg "Series.create: k < 1";
  if not (Float.is_finite interval && interval > 0.0) then
    invalid_arg "Series.create: interval not finite and > 0";
  { k; grid = { step = interval; next = nan }; clock = { end_ = 0.0 }; rev_runs = []; count = 0 }

let k t = t.k

(* Times must not go back (by more than rounding); the message is the
   one the reader has always reported as "line N: ...". *)
let close t ~time =
  if time < t.clock.end_ -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Timeavg.observe: time %g before previous %g" time t.clock.end_);
  t.clock.end_ <- time

(* A probe that restamps its last sample while the state stands still
   hands over the same [piece_counts] array. *)
let same_counts (a : Probe.sample) (b : Probe.sample) =
  a.n = b.n && a.seeds = b.seeds && a.one_club = b.one_club && a.rarest_piece = b.rarest_piece
  && a.rarest_count = b.rarest_count
  && (a.piece_counts == b.piece_counts
     ||
     let i = ref (Array.length a.piece_counts - 1) in
     while !i >= 0 && a.piece_counts.(!i) = b.piece_counts.(!i) do decr i done;
     !i < 0)

let record t (s : Probe.sample) =
  if Array.length s.piece_counts <> t.k then
    invalid_arg "Series.record: sample k does not match series k";
  close t ~time:s.time;
  let on_grid = s.time = t.grid.next in
  t.grid.next <- Grid.after t.grid s.time;
  t.count <- t.count + 1;
  match t.rev_runs with
  | run :: _ when on_grid && same_counts run.first s -> run.repeats <- run.repeats + 1
  | _ -> t.rev_runs <- { first = s; repeats = 0 } :: t.rev_runs

(* The next sample of the current run, as [record] would take it. *)
let repeat t run =
  run.repeats <- run.repeats + 1;
  t.clock.end_ <- t.grid.next;
  t.grid.next <- Grid.after t.grid t.grid.next;
  t.count <- t.count + 1

let count t = t.count

type cursor = { mutable time : float }

(* Each run's first sample at its own time, then its repeats at the
   steps [record] checked. *)
let iter t f =
  let at = { time = 0.0 } in
  List.iter
    (fun run ->
      at.time <- run.first.time;
      f at run.first;
      for _ = 1 to run.repeats do
        at.time <- Grid.after t.grid at.time;
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

type means = {
  n : float; seeds : float; one_club : float; rarest_count : float; pieces : float array;
}

(* The time the held counts hold from, and the time summed so far.  All
   float, so flat: its stores do not box. *)
type span = { mutable last : float; mutable elapsed : float }

(* The held counts, each times the [dt] since [span.last], into [sums]. *)
let[@inline] advance span ~held ~sums time =
  let dt = Float.max 0.0 (time -. span.last) in
  for j = 0 to Array.length sums - 1 do
    sums.(j) <- sums.(j) +. (held.(j) *. dt)
  done;
  span.elapsed <- span.elapsed +. dt;
  span.last <- time

(* Each sample's counts hold from its time to the next sample's, the
   last one's to [end_]; nothing before the first sample counts ([last]
   starts at infinity, so its [dt] is 0).  The runs are walked as [iter]
   walks them, a repeat one [Grid.after] the sample before.  Each signal
   gets the [dt]s, products and sums a [P2p_stats.Timeavg] fed its
   values in order and closed at [end_] makes, so each mean has its
   bits. *)
let means t =
  let signals = 4 + t.k in
  let held = Array.make signals 0.0 and sums = Array.make signals 0.0 in
  let span = { last = infinity; elapsed = 0.0 } in
  List.iter
    (fun { first = s; repeats } ->
      advance span ~held ~sums s.time;
      held.(0) <- float_of_int s.n;
      held.(1) <- float_of_int s.seeds;
      held.(2) <- float_of_int s.one_club;
      held.(3) <- float_of_int s.rarest_count;
      for p = 0 to t.k - 1 do
        held.(4 + p) <- float_of_int s.piece_counts.(p)
      done;
      for _ = 1 to repeats do
        advance span ~held ~sums (Grid.after t.grid span.last)
      done)
    (List.rev t.rev_runs);
  advance span ~held ~sums t.clock.end_;
  let elapsed = span.elapsed in
  let mean j = if elapsed <= 0.0 then nan else sums.(j) /. elapsed in
  { n = mean 0; seeds = mean 1; one_club = mean 2; rarest_count = mean 3;
    pieces = Array.init t.k (fun p -> mean (4 + p)) }

(* ---- persistence ---- *)

let schema = "p2p-swarm-probe"
let version = 3

(* The keyed row format: [write] emits these keys in this order, the
   last, the run's repeats, only when there are some; [read] accepts
   exactly that shape. *)
let row_keys = [ "t"; "n"; "seeds"; "club"; "rarest"; "rarest_n"; "pieces"; "r" ]

let header t =
  Json.Obj
    [ ("schema", Json.String schema); ("version", Json.Int version); ("k", Json.Int t.k);
      ("interval", Json.Float t.grid.step); ("end", Json.Float t.clock.end_);
      ("samples", Json.Int t.count) ]

(* What precedes each value on a row: [{"t":], [,"n":], ... *)
let per_key f = Array.of_list (List.mapi f row_keys)
let prefixes = per_key (fun i -> Printf.sprintf "%c%S:" (if i = 0 then '{' else ','))

(* A run the reader can rebuild from its counts alone: it starts, bit for
   bit, at the grid point [g.next] after the previous run's last sample
   ([nan] before the first run, so the first row is keyed), and its
   rarest fields are the ones [Probe.rarest] gives its pieces. *)
let compact (g : Grid.t) (s : Probe.sample) =
  s.time = g.next
  && Float.sign_bit s.time = Float.sign_bit g.next
  && s.rarest_piece = Probe.rarest s.piece_counts
  && s.rarest_count = s.piece_counts.(s.rarest_piece)

(* Rows, one per run, go straight into one buffer, written out every
   64 KiB.  A compact row is [[n,seeds,club,p1,..,pK]], with [,R] for the
   run's R repeats; any other run is a keyed row.  [g] walks the grid as
   the reader will. *)
let write t oc =
  let buf = Buffer.create 65536 in
  let field i v = Buffer.add_string buf prefixes.(i); Json.add_int buf v in
  let elem v = Buffer.add_char buf ','; Json.add_int buf v in
  Buffer.add_string buf (Json.to_string (header t));
  Buffer.add_char buf '\n';
  let g = { Grid.step = t.grid.step; next = nan } in
  List.iter
    (fun { first = s; repeats } ->
      if compact g s then begin
        Buffer.add_char buf '[';
        Json.add_int buf s.n;
        elem s.seeds;
        elem s.one_club;
        Array.iter elem s.piece_counts;
        if repeats > 0 then elem repeats;
        Buffer.add_string buf "]\n"
      end
      else begin
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
        Buffer.add_string buf "}\n"
      end;
      g.next <- Grid.after g s.time;
      for _ = 1 to repeats do
        g.next <- Grid.after g g.next
      done;
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
   without looking for it first.  [repeats] is the last row's run
   length (a keyed row's ["r"], a compact row's R), 0 without one. *)
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

let at_row_end c = c.p = c.stop || c.s.[c.p] = '\n'

(* One keyed row, exactly as [write] prints it; a version 1 row has no
   ["r"].  Each field is read inline: a local helper closing over [c]
   costs ~80 ns a row. *)
let scan_keyed ~version ~k c =
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
    if version = 1 then fail "field \"r\" in a version 1 file";
    c.repeats <- int_value c not_int.(7);
    if c.repeats < 1 then fail "field \"r\" < 1"
  end;
  if not (skip c "}" && at_row_end c) then fail "trailing bytes after the row";
  if rarest < 1 || rarest > k then fail "field \"rarest\" out of [1, k]";
  { Probe.time; n; seeds; one_club; rarest_piece = rarest - 1; rarest_count; piece_counts = pieces }

let bad_compact = "a compact row is not [n,seeds,club,p1,..,pK] or [n,seeds,club,p1,..,pK,R]"

(* One compact row, at [time], the grid point after the last sample: its
   length, 3 + k or 4 + k numbers, says whether it ends in a run length. *)
let scan_compact ~k ~time c =
  expect c "[" bad_compact;
  let n = int_value c bad_compact in
  expect c "," bad_compact;
  let seeds = int_value c bad_compact in
  expect c "," bad_compact;
  let one_club = int_value c bad_compact in
  let pieces = Array.make k 0 in
  for i = 0 to k - 1 do
    expect c "," bad_compact;
    pieces.(i) <- int_value c bad_compact
  done;
  c.repeats <- 0;
  if skip c "," then begin
    c.repeats <- int_value c bad_compact;
    if c.repeats < 1 then fail "a compact row's run length R < 1"
  end;
  if not (skip c "]" && at_row_end c) then fail bad_compact;
  let rarest = Probe.rarest pieces in
  { Probe.time; n; seeds; one_club; rarest_piece = rarest; rarest_count = pieces.(rarest);
    piece_counts = pieces }

(* A row of either shape; [t] is the series read so far. *)
let scan_row ~version ~k t c =
  if c.p < c.stop && c.s.[c.p] = '[' then
    if version < 3 then fail (Printf.sprintf "a compact row in a version %d file" version)
    else if t.count = 0 then fail "a compact row before the first keyed row"
    else scan_compact ~k ~time:t.grid.next c
  else scan_keyed ~version ~k c

let line_error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg)

(* Rows re-expand into runs on the grid [interval] of a version 2 or 3
   header, which closes the averages at its ["end"].  A version 1 file
   closes at its last sample and takes its first step as the grid.  A
   version 3 header's ["samples"] must be the rows' count: a compact run
   row cut by one piece still parses, as a row without its R. *)
let read_rows s ~header_end ~version ~k ~interval ~end_ ~samples =
  let v2 = version >= 2 in
  let t = create ~k ~interval in
  let c = { s; stop = String.length s; p = 0; repeats = 0 } in
  let rec loop lineno pos =
    if pos >= c.stop then Ok ()
    else begin
      c.p <- pos;
      match scan_row ~version ~k t c with
      | exception Bad_row msg ->
          let stop = try String.index_from s pos '\n' with Not_found -> c.stop in
          if String.trim (String.sub s pos (stop - pos)) = "" then loop (lineno + 1) (stop + 1)
          else line_error lineno msg
      | sample when Float.of_int c.repeats > ((end_ -. sample.time) /. interval) +. 1.0 ->
          line_error lineno "field \"r\" runs past the header's \"end\""
      | sample -> (
          if (not v2) && t.count = 1 && sample.time > t.clock.end_ then begin
            let last = t.clock.end_ in
            let step = sample.time -. last in
            t.grid <- { step; next = last +. step }
          end;
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
  | Ok () when samples <> None && samples <> Some t.count ->
      Error
        (Printf.sprintf "header \"samples\" is %d, the rows hold %d" (Option.get samples) t.count)
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
          | Some v, _ when v < 1 || v > version ->
              Error
                (Printf.sprintf "unsupported %s version %d (this reader takes 1, 2 and 3)" schema v)
          | _, None -> Error "header has no \"k\""
          | _, Some k when k < 1 -> Error "header \"k\" < 1"
          | Some 1, Some k ->
              read_rows s ~header_end ~version:1 ~k ~interval:1.0 ~end_:infinity ~samples:None
          | Some v, Some k -> (
              match finite "interval" with
              | Some interval when interval > 0.0 -> (
                  match (finite "end", member "samples" Json.to_int_opt) with
                  | None, _ -> Error "header \"end\" is missing or not finite"
                  | Some _, None when v = 3 -> Error "header has no integer \"samples\""
                  | Some end_, samples ->
                      read_rows s ~header_end ~version:v ~k ~interval ~end_
                        ~samples:(if v = 3 then samples else None))
              | _ -> Error "header \"interval\" is missing, not finite or <= 0"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
