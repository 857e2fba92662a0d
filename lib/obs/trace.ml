type format = Jsonl | Chrome

type sink = {
  format : format;
  oc : out_channel;
  owns_channel : bool;
  rename_on_close : (string * string) option;  (* (tmp, final): atomic publish *)
  mutable first : bool;
  mutable written : int;
  mutable closed : bool;
}

type t = Null | Sink of sink

let null = Null
let enabled = function Null -> false | Sink _ -> true

let start_sink ~format ~owns_channel ?rename_on_close oc =
  (match format with Chrome -> output_string oc "[\n" | Jsonl -> ());
  Sink
    { format; oc; owns_channel; rename_on_close; first = true; written = 0; closed = false }

let create ~format oc = start_sink ~format ~owns_channel:false oc

let format_of_path path =
  if Filename.check_suffix path ".json" then Chrome else Jsonl

(* The trace streams to a temporary alongside its destination and is
   renamed into place at {!close}: a run that crashes mid-trace leaves
   no half-written trace file behind at [path]. *)
let to_file path =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  start_sink ~format:(format_of_path path) ~owns_channel:true ~rename_on_close:(tmp, path)
    (open_out_bin tmp)

(* Chrome's [ts] field is in microseconds; we map 1 simulation time unit
   to one second so traces of O(1000)-time-unit runs stay readable. *)
let chrome_ts time = Json.Float (time *. 1e6)

let write_record s json =
  (match s.format with
  | Jsonl -> ()
  | Chrome -> if s.first then s.first <- false else output_string s.oc ",\n");
  Json.to_channel s.oc json;
  (match s.format with Jsonl -> output_char s.oc '\n' | Chrome -> ());
  s.written <- s.written + 1

let emit t ~time ~name ~args =
  match t with
  | Null -> ()
  | Sink s ->
      if s.closed then invalid_arg "Trace.emit: sink is closed";
      let json =
        match s.format with
        | Jsonl -> Json.Obj (("t", Json.Float time) :: ("ev", Json.String name) :: args)
        | Chrome ->
            Json.Obj
              [
                ("name", Json.String name);
                ("ph", Json.String "i");
                ("s", Json.String "t");
                ("ts", chrome_ts time);
                ("pid", Json.Int 1);
                ("tid", Json.Int 1);
                ("args", Json.Obj args);
              ]
      in
      write_record s json

let events_written = function Null -> 0 | Sink s -> s.written

let close = function
  | Null -> ()
  | Sink s ->
      if not s.closed then begin
        s.closed <- true;
        (match s.format with Chrome -> output_string s.oc "\n]\n" | Jsonl -> ());
        if s.owns_channel then close_out s.oc else flush s.oc;
        match s.rename_on_close with
        | Some (tmp, path) -> Sys.rename tmp path
        | None -> ()
      end
