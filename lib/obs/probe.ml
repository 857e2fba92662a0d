module Pieceset = P2p_pieceset.Pieceset

type departure_kind = Completed | Aborted | Seed_departed

(* Dense event codes: an event is a (code, a, b) int row with the
   payload packed per code, so recording never allocates. *)
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

(* The one row decoder: a trace line's arguments from a packed row. *)
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

type sample = {
  time : float;
  n : int;
  seeds : int;
  one_club : int;
  rarest_piece : int;
  rarest_count : int;
  piece_counts : int array;
}

let sample ~time ~k ~n ~count_of ~piece_counts =
  if Array.length piece_counts <> k then invalid_arg "Probe.sample: piece_counts length <> k";
  let rarest = ref 0 in
  for piece = 1 to k - 1 do
    if piece_counts.(piece) < piece_counts.(!rarest) then rarest := piece
  done;
  let full = Pieceset.full ~k in
  {
    time;
    n;
    seeds = count_of full;
    one_club = count_of (Pieceset.remove !rarest full);
    rarest_piece = !rarest;
    rarest_count = piece_counts.(!rarest);
    piece_counts;
  }

type t = {
  interval : float;
  tracing : bool;
  on_sample : sample -> unit;
  profile : Profile.t;
  recorder : Recorder.t;
  hists : Hist.group;
  trace : Trace.t;
  event_counts : Hist.t array;
}

let noop_sample _ = ()

let dead_counts = Array.make n_event_codes Hist.disabled

let none =
  {
    interval = infinity;
    tracing = false;
    on_sample = noop_sample;
    profile = Profile.disabled;
    recorder = Recorder.disabled;
    hists = Hist.disabled_group;
    trace = Trace.null;
    event_counts = dead_counts;
  }

let make ?(interval = infinity) ?(trace = Trace.null) ?on_sample ?(profile = Profile.disabled)
    ?(recorder = Recorder.disabled) ?(hists = Hist.disabled_group) () =
  if not (interval > 0.0) then invalid_arg "Probe.make: interval must be > 0";
  {
    interval;
    (* the simulators only report events behind this flag *)
    tracing = Trace.enabled trace || Recorder.live recorder || Hist.enabled hists;
    on_sample = Option.value on_sample ~default:noop_sample;
    profile;
    recorder;
    hists;
    trace;
    event_counts =
      (if Hist.enabled hists then
         Array.init n_event_codes (fun c -> Hist.get hists ("events/" ^ code_name c))
       else dead_counts);
  }

let sampling t = t.interval < infinity

(* Out of line: only a traced run reaches it, and keeping the JSON
   building out of [record_one] keeps the emitters small enough to
   inline at every call site. *)
let[@inline never] trace_row trace time c a b =
  Trace.emit trace ~time ~name:(code_name c) ~args:(row_args c a b)

(* Top level rather than a local function: a local closure would
   capture [t] and [time] and allocate on every event.  Codes are
   literals in [0, n_event_codes) and the count array has exactly that
   length, so the lookup skips its bounds check.  The trace test is a
   physical comparison with [Trace.null], not a call to
   [Trace.enabled]: the dev profile compiles modules opaque, where a
   call across modules is never inlined, and even there an untraced run
   must pay no more than a load and a compare for the trace. *)
let[@inline] record_one t time c a b =
  Hist.record_unit (Array.unsafe_get t.event_counts c);
  Recorder.record t.recorder ~time ~code:c ~a ~b;
  if t.trace != Trace.null then trace_row t.trace time c a b

(* Typed per-event emitters.  Each simulator call site knows its event
   statically, so the emitter takes the payload as scalars and records
   [(code, a, b)] straight into the sinks — no variant is constructed
   and no runtime dispatch happens.  A match over a recorded run's
   event mix costs ~15 ns/event in branch mispredictions alone, which
   is most of the ≤ 5% instrumented-overhead budget. *)
let[@inline] arrival t ~time ~(pieces : Pieceset.t) =
  if t.tracing then record_one t time 0 (pieces :> int) (Pieceset.cardinal pieces)

let[@inline] contact t ~time ~seed ~useful =
  if t.tracing then record_one t time 1 (Bool.to_int seed) (Bool.to_int useful)

(* 1-based piece numbers on the wire, matching the paper and the CLI. *)
let[@inline] transfer t ~time ~piece ~completed =
  if t.tracing then record_one t time 2 (piece + 1) (Bool.to_int completed)

let[@inline] transfer_lost t ~time = if t.tracing then record_one t time 3 0 0

let[@inline] departure t ~time kind =
  if t.tracing then
    record_one t time (match kind with Completed -> 4 | Aborted -> 5 | Seed_departed -> 6) 0 0

let[@inline] seed_toggle t ~time ~up = if t.tracing then record_one t time 7 (Bool.to_int up) 0

let[@inline] handoff t ~time ~fluid ~n =
  if t.tracing then
    record_one t time (if fluid then 8 else 9) (Bool.to_int fluid) (int_of_float (Float.round n))
