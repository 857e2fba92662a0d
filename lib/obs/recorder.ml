module Pieceset = P2p_pieceset.Pieceset

(* ---- the row format ---- *)

let n_event_codes = 10

let code_name = function
  | 0 -> "arrival"
  | 1 -> "contact"
  | 2 -> "transfer"
  | 3 -> "transfer_lost"
  | 4 -> "departure_completed"
  | 5 -> "departure_aborted"
  | 6 -> "departure_seed"
  | 7 -> "seed_toggle"
  | 8 -> "handoff_to_fluid"
  | 9 -> "handoff_to_stochastic"
  | c -> "unknown_" ^ string_of_int c

(* The one row decoder: a file row's arguments from a packed row. *)
let row_args code a b =
  match code with
  | 0 ->
      [
        ("pieces", Json.String (Pieceset.to_string (Pieceset.of_index a)));
        ("held", Json.Int b);
      ]
  | 1 -> [ ("seed", Json.Bool (a <> 0)); ("useful", Json.Bool (b <> 0)) ]
  | 2 -> [ ("piece", Json.Int a); ("completed", Json.Bool (b <> 0)) ]
  | 7 -> [ ("up", Json.Bool (a <> 0)) ]
  | 8 | 9 -> [ ("fluid", Json.Bool (a <> 0)); ("n", Json.Float (float_of_int b)) ]
  | _ -> []

type format = Jsonl | Chrome

let format_of_path path = if Filename.check_suffix path ".json" then Chrome else Jsonl

let schema = "p2p-flight-recorder"

(* A file opens with the schema header (JSONL) or the array bracket
   (Chrome); [header] lists the fields after the schema and version. *)
let start format oc header =
  match format with
  | Jsonl ->
      Json.to_channel oc
        (Json.Obj (("schema", Json.String schema) :: ("version", Json.Int 2) :: header));
      output_char oc '\n'
  | Chrome -> output_string oc "[\n"

let finish format oc = match format with Chrome -> output_string oc "\n]\n" | Jsonl -> ()

(* Chrome's [ts] field is in microseconds; 1 simulation time unit maps
   to one second so traces of O(1000)-time-unit runs stay readable. *)
let write_row format oc ~first time code a b =
  let name = Json.String (code_name code) and args = row_args code a b in
  match format with
  | Jsonl ->
      Json.to_channel oc (Json.Obj (("t", Json.Float time) :: ("ev", name) :: args));
      output_char oc '\n'
  | Chrome ->
      if not first then output_string oc ",\n";
      Json.to_channel oc
        (Json.Obj
           [
             ("name", name);
             ("ph", Json.String "i");
             ("s", Json.String "t");
             ("ts", Json.Float (time *. 1e6));
             ("pid", Json.Int 1);
             ("tid", Json.Int 1);
             ("args", Json.Obj args);
           ])

(* ---- the ring ---- *)

(* The full log: an open temporary renamed to [path] at close, and how
   many rows of the run it holds.  A snapshot destination: its path,
   cadence and wall-clock rate limit. *)
type log = { format : format; oc : out_channel; tmp : string; path : string; mutable upto : int }
type snap = { path : string; every : int; gap_ns : int64; mutable at : int; mutable last_ns : int64 }

type t = {
  times : float array;
  (* (code, a, b) interleaved at stride 3: one sequential write stream
     instead of three parallel ones, so a recording run keeps two open
     cache-line streams (times + data) rather than four. *)
  data : int array;
  mask : int; (* capacity - 1; -1 on the dead ring *)
  mutable next : int; (* total ever recorded; write slot = next land mask *)
  (* records until the next spill or snapshot is due; 0 means neither
     destination is attached, leaving one dead branch on the record path *)
  mutable due : int;
  mutable log : log option;
  mutable snap : snap option;
}

let make capacity =
  {
    times = Array.make capacity 0.0;
    data = Array.make (3 * capacity) 0;
    mask = capacity - 1;
    next = 0;
    due = 0;
    log = None;
    snap = None;
  }

let disabled = make 0

let rec round_pow2 n c = if c >= n then c else round_pow2 n (c * 2)

let live t = t.mask >= 0
let capacity t = t.mask + 1
let recorded t = t.next
let dropped t = Int.max 0 (t.next - (t.mask + 1))

(* Rows [from, upto) of the run, which must still be in the ring;
   [lead] is the file's first row, the one Chrome writes no comma
   before. *)
let write_rows t format oc ~lead ~from ~upto =
  for i = from to upto - 1 do
    let s = i land t.mask in
    let d = 3 * s in
    write_row format oc ~first:(i = lead) t.times.(s) t.data.(d) t.data.(d + 1) t.data.(d + 2)
  done

let next_due t =
  let spill = match t.log with Some l -> l.upto + t.mask + 1 - t.next | None -> max_int in
  let snap = match t.snap with Some s -> s.at - t.next | None -> max_int in
  let d = Int.min spill snap in
  if d = max_int then 0 else d

let create ?(capacity = 4096) ?log () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity < 1";
  let t = make (round_pow2 capacity 1) in
  Option.iter
    (fun path ->
      let format = format_of_path path in
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      start format oc [ ("capacity", Json.Int (t.mask + 1)) ];
      t.log <- Some { format; oc; tmp; path; upto = 0 };
      t.due <- next_due t)
    log;
  t

let dump t path =
  if live t then begin
    let format = format_of_path path in
    let from = dropped t in
    Json.write_file_atomic path (fun oc ->
        start format oc
          [
            ("capacity", Json.Int (t.mask + 1));
            ("recorded", Json.Int t.next);
            ("dropped", Json.Int (dropped t));
          ];
        write_rows t format oc ~lead:from ~from ~upto:t.next;
        finish format oc)
  end

let spill t l =
  write_rows t l.format l.oc ~lead:0 ~from:l.upto ~upto:t.next;
  l.upto <- t.next

(* Off the record path: the ring just filled, or a snapshot is due.
   The wall clock gates only how often a snapshot is republished; it
   never feeds a value back into the simulation. *)
let[@inline never] service t =
  (match t.log with Some l when t.next - l.upto > t.mask -> spill t l | _ -> ());
  (match t.snap with
  | Some s when t.next >= s.at ->
      s.at <- t.next + s.every;
      let now = Clock.now_ns () in
      if Int64.sub now s.last_ns >= s.gap_ns then begin
        s.last_ns <- now;
        dump t s.path
      end
  | _ -> ());
  t.due <- next_due t

let close t =
  Option.iter
    (fun l ->
      spill t l;
      finish l.format l.oc;
      close_out l.oc;
      Sys.rename l.tmp l.path;
      t.log <- None;
      t.due <- next_due t)
    t.log

let auto_snapshot t ~every ~min_gap_s path =
  if every < 1 then invalid_arg "Recorder.auto_snapshot: every < 1";
  if not (min_gap_s >= 0.0) then invalid_arg "Recorder.auto_snapshot: min_gap_s < 0";
  if live t then begin
    let gap_ns = Int64.of_float (min_gap_s *. 1e9) in
    t.snap <- Some { path; every; gap_ns; at = t.next + every; last_ns = 0L };
    t.due <- next_due t
  end

let[@inline] record t ~time ~code ~a ~b =
  if t.mask >= 0 then begin
    (* [land mask] keeps the slot inside the power-of-two ring, so the
       four stores skip their bounds checks — this runs on every engine
       event of a recorded run. *)
    let s = t.next land t.mask in
    let d = 3 * s in
    Array.unsafe_set t.times s time;
    Array.unsafe_set t.data d code;
    Array.unsafe_set t.data (d + 1) a;
    Array.unsafe_set t.data (d + 2) b;
    t.next <- t.next + 1;
    if t.due > 0 then begin
      t.due <- t.due - 1;
      if t.due = 0 then service t
    end
  end

let code_of_name name =
  List.find_opt (fun c -> code_name c = name) (List.init n_event_codes Fun.id)

let read_summary path =
  let field conv name j = Option.bind (Json.member name j) conv in
  let need what = function Some v -> v | None -> failwith ("event log: " ^ what) in
  match Json.read_jsonl_file path with
  | Error _ as e -> e
  | Ok { Json.records = []; _ } -> Error "event log: empty file"
  | Ok { Json.records = header :: rows; _ } -> (
      try
        let s = need "no schema header line" (field Json.to_string_opt "schema" header) in
        if s <> schema then failwith (Printf.sprintf "event log: schema %S, wanted %S" s schema);
        let row r =
          let ev = Option.bind (field Json.to_string_opt "ev" r) code_of_name in
          (need "event row without a time" (field Json.to_float_opt "t" r),
           need "event row without a known event name" ev)
        in
        let rows = Array.of_list (List.map row rows) in
        let int ?default name =
          need ("missing int field " ^ name)
            (match field Json.to_int_opt name header with None -> default | v -> v)
        in
        Ok ((int "capacity", int ~default:(Array.length rows) "recorded", int ~default:0 "dropped"), rows)
      with Failure msg -> Error msg)
