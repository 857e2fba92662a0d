(* Telemetry layer: JSON round trips, dead-cell instruments, trace
   formats, probe sample construction, and the two determinism
   guarantees the observability PR pins — a probed run is bit-identical
   to an unprobed one, and probe series are bit-identical across any
   [--jobs] count because they sample on the simulation clock. *)

open P2p_core

module Rng = P2p_prng.Rng
module Json = P2p_obs.Json
module Clock = P2p_obs.Clock
module Hist = P2p_obs.Hist
module Recorder = P2p_obs.Recorder
module Monitor = P2p_obs.Monitor
module Profile = P2p_obs.Profile
module Probe = P2p_obs.Probe
module Series = P2p_obs.Series
module Progress = P2p_obs.Progress
module Pieceset = P2p_pieceset.Pieceset

let params = Scenario.flash_crowd ~k:3 ~lambda:0.5 ~us:0.8 ~mu:1.0 ~gamma:2.0

let with_temp_file f =
  let path = Filename.temp_file "p2p_obs_test" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines_of s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

(* ---- Json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("bool", Json.Bool true);
        ("null", Json.Null);
        ("str", Json.String "a \"quoted\"\n\tbackslash \\ control \x01");
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip structural" true (Json.of_string_exn (Json.to_string v) = v)

let test_json_float_bit_exact () =
  List.iter
    (fun x ->
      match Json.to_float_opt (Json.of_string_exn (Json.to_string (Json.Float x))) with
      | Some y ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives" x)
            true
            (Int64.bits_of_float x = Int64.bits_of_float y)
      | None -> Alcotest.failf "%h did not parse back to a number" x)
    [ 0.1 +. 0.2; 1.0 /. 3.0; 1e-300; 1.7976931348623157e308; -0.0; 3.5017060493169474 ]

(* Float emission is byte-identical to the Printf formulation it
   replaced, here restated as the reference: [%.15g] if it parses back,
   else [%.17g].  Most values in [2^-6, 1e15) take the emitter's integer
   long division, so the cases aim at its edges: rounding carries, ties,
   the range ends, powers of two, and the grid and Chrome-[ts] values the
   probe series and traces print. *)
let float_reference f =
  let shortest = Printf.sprintf "%.15g" f in
  let s = if float_of_string shortest = f then shortest else Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
  else s ^ ".0"

let check_float_text f =
  let buf = Buffer.create 32 in
  Json.add_float buf f;
  let got = Buffer.contents buf in
  if got <> float_reference f then
    Alcotest.failf "%h: emitted %s, Printf gives %s" f got (float_reference f)

(* [n] steps of a probe grid, accumulated as the engine does, and each
   point as a Chrome [ts] (microseconds). *)
let check_grid ~step ~n =
  let t = ref 0.0 in
  for _ = 1 to n do
    t := !t +. step;
    check_float_text !t;
    check_float_text (!t *. 1e6)
  done

(* [n] random bit patterns, and as many values on a probe grid's scale. *)
let check_random ~seed ~n =
  let rng = P2p_prng.Rng.of_seed seed in
  for _ = 1 to n do
    let f = Int64.float_of_bits (P2p_prng.Rng.bits64 rng) in
    if Float.is_finite f then check_float_text f;
    check_float_text (P2p_prng.Rng.float rng *. 1500.0)
  done

let test_json_float_matches_printf () =
  List.iter check_float_text
    [ 0.1 +. 0.2; -0.0; 0.0; 5e-324; 1e22; 3.0; 1e-7; -1.5e300; 0.05 *. 3.0; 0.1; 0.3;
      0.1 +. 0.7; 0.0999999999999999; 99999.99999999999; 999999999999999.9; 123456789012345.5;
      -2.5; -0.3; -1e15; -1e-300 ];
  List.iter (fun step -> check_grid ~step ~n:100_000) [ 0.05; 0.1; 1.0; 1.0 /. 3.0 ];
  for e = -1074 to 1023 do
    check_float_text (Float.ldexp 1.0 e);
    check_float_text (-.Float.ldexp 1.0 e)
  done;
  List.iter
    (fun x ->
      List.iter
        (fun y -> check_float_text y; check_float_text (-.y))
        [ Float.pred x; x; Float.succ x ])
    [ Float.ldexp 1.0 (-6); 1e15; Float.ldexp 1.0 53 ];
  check_random ~seed:99 ~n:20_000

let test_json_float_matches_printf_many () = check_random ~seed:2026 ~n:1_100_000

let test_json_add_int () =
  let check i =
    let buf = Buffer.create 24 in
    Json.add_int buf i;
    Alcotest.(check string) (string_of_int i) (string_of_int i) (Buffer.contents buf)
  in
  List.iter check [ 0; 1; -1; 9; -9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ];
  let rng = P2p_prng.Rng.of_seed 5 in
  for _ = 1 to 20_000 do
    let i = Int64.to_int (P2p_prng.Rng.bits64 rng) in
    check i;
    check (i asr (P2p_prng.Rng.int_below rng 63))
  done

let test_json_nonfinite_as_null () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float infinity));
  (* and the reader's convention maps null back to nan *)
  match Json.to_float_opt (Json.of_string_exn "null") with
  | Some x -> Alcotest.(check bool) "null reads as nan" true (Float.is_nan x)
  | None -> Alcotest.fail "null should read as a float"

let test_json_parse_errors () =
  let rejects name s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %S should not parse" name s
  in
  rejects "garbage" "notjson";
  rejects "trailing content" "{} {}";
  rejects "unterminated string" "\"abc";
  rejects "bare comma" "[1,]";
  rejects "missing colon" "{\"a\" 1}";
  rejects "empty input" ""

let test_json_accessors () =
  let v = Json.of_string_exn {|{"a": 1, "b": [true, null], "c": "s"}|} in
  Alcotest.(check (option int)) "member a" (Some 1) (Option.bind (Json.member "a" v) Json.to_int_opt);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" v = None);
  Alcotest.(check (option string))
    "member c" (Some "s")
    (Option.bind (Json.member "c" v) Json.to_string_opt);
  match Option.bind (Json.member "b" v) Json.to_list_opt with
  | Some [ Json.Bool true; Json.Null ] -> ()
  | _ -> Alcotest.fail "member b should be [true, null]"

(* ---- the event log: a ring spilled to a full log ---- *)

(* A capacity-8 ring fed 100 records, spilled to a log at a path with
   extension [ext]; returns the file.  [code = i mod 10] walks every
   event kind. *)
let spilled_log ext =
  let path = Filename.temp_file "p2p_obs_test" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = Recorder.create ~capacity:8 ~log:path () in
      for i = 0 to 99 do
        Recorder.record r ~time:(float_of_int i) ~code:(i mod Recorder.n_event_codes)
          ~a:(i mod 2) ~b:1
      done;
      Recorder.close r;
      Recorder.close r;
      (* idempotent *)
      Alcotest.(check int) "the ring wrapped" 92 (Recorder.dropped r);
      read_file path)

let test_trace_jsonl () =
  match lines_of (spilled_log ".jsonl") with
  | [] -> Alcotest.fail "empty log"
  | header :: rows ->
      Alcotest.(check string) "schema header"
        {|{"schema":"p2p-flight-recorder","version":2,"capacity":8}|} header;
      Alcotest.(check int) "every row exactly once" 100 (List.length rows);
      List.iteri
        (fun i line ->
          let v = Json.of_string_exn line in
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "row %d in order" i) (Some (float_of_int i))
            (Option.bind (Json.member "t" v) Json.to_float_opt);
          Alcotest.(check (option string))
            (Printf.sprintf "row %d name" i)
            (Some (Recorder.code_name (i mod Recorder.n_event_codes)))
            (Option.bind (Json.member "ev" v) Json.to_string_opt))
        rows

let test_trace_chrome () =
  (* the whole file must be one valid JSON array (chrome://tracing) *)
  match Json.of_string_exn (spilled_log ".json") with
  | Json.List entries ->
      Alcotest.(check int) "every row exactly once" 100 (List.length entries);
      List.iteri
        (fun i e ->
          let str k = Option.bind (Json.member k e) Json.to_string_opt in
          Alcotest.(check (option string)) "instant event" (Some "i") (str "ph");
          Alcotest.(check (option string))
            (Printf.sprintf "row %d name" i)
            (Some (Recorder.code_name (i mod Recorder.n_event_codes)))
            (str "name");
          (* sim time i s -> i * 1e6 microseconds, in order *)
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "row %d ts" i) (Some (float_of_int i *. 1e6))
            (Option.bind (Json.member "ts" e) Json.to_float_opt))
        entries
  | _ -> Alcotest.fail "chrome trace should parse as a JSON array"

(* A snapshot taken while the ring also spills to a full log holds the
   log's last [capacity] rows, byte for byte. *)
let test_trace_dump_is_log_tail () =
  with_temp_file (fun log ->
      with_temp_file (fun dump ->
          let r = Recorder.create ~capacity:8 ~log () in
          for i = 0 to 36 do
            Recorder.record r ~time:(float_of_int i) ~code:(i mod Recorder.n_event_codes)
              ~a:i ~b:(i mod 3)
          done;
          Recorder.dump r dump;
          Recorder.close r;
          let rows path = List.tl (lines_of (read_file path)) in
          let logged = rows log and dumped = rows dump in
          Alcotest.(check int) "the log holds every row" 37 (List.length logged);
          Alcotest.(check (list string))
            "the dump's rows are the log's last 8"
            (List.filteri (fun i _ -> i >= 29) logged)
            dumped))

(* ---- Probe ---- *)

(* The engine walks a probe's grid; one of step [infinity] has no point. *)
let samples p = (P2p_obs.Grid.start ~step:p.Probe.interval).P2p_obs.Grid.next < infinity

let test_probe_none_is_inert () =
  Alcotest.(check bool) "none does not trace" false Probe.none.Probe.tracing;
  Alcotest.(check bool) "none does not sample" false (samples Probe.none);
  (* calling the hooks anyway is harmless *)
  Probe.transfer_lost Probe.none ~time:1.0;
  Probe.none.Probe.on_sample
    (Probe.sample ~time:0.0 ~k:2 ~n:0 ~count_of:(fun _ -> 0) ~piece_counts:[| 0; 0 |])

let test_probe_make_validation () =
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "interval %f rejected" bad)
        true
        (try
           ignore (Probe.make ~interval:bad ());
           false
         with Invalid_argument _ -> true))
    [ 0.0; -1.0; nan ];
  let r = Probe.make ~recorder:(Recorder.create ()) () in
  Alcotest.(check bool) "a live recorder implies tracing" true r.Probe.tracing;
  Alcotest.(check bool) "no interval means no sampling" false (samples r);
  let q = Probe.make ~interval:2.0 () in
  Alcotest.(check bool) "interval means sampling" true (samples q);
  Alcotest.(check bool) "no event sink means no tracing" false q.Probe.tracing

let test_probe_sample_construction () =
  (* A hand-built swarm with k = 3: piece 1 is rarest; the one-club is
     whoever holds exactly {0, 2} = full \ {rarest}. *)
  let k = 3 in
  let one_club_set = Pieceset.remove 1 (Pieceset.full ~k) in
  let count_of s =
    if s = Pieceset.full ~k then 2 (* peer seeds *)
    else if s = one_club_set then 5
    else 0
  in
  let s =
    Probe.sample ~time:7.0 ~k ~n:11 ~count_of ~piece_counts:[| 9; 4; 9 |]
  in
  Alcotest.(check int) "n" 11 s.Probe.n;
  Alcotest.(check int) "seeds counted from full set" 2 s.Probe.seeds;
  Alcotest.(check int) "rarest piece is argmin" 1 s.Probe.rarest_piece;
  Alcotest.(check int) "rarest count" 4 s.Probe.rarest_count;
  Alcotest.(check int) "one-club counted against the rarest piece" 5 s.Probe.one_club;
  (* ties break to the lowest index *)
  let s' = Probe.sample ~time:0.0 ~k ~n:0 ~count_of:(fun _ -> 0) ~piece_counts:[| 3; 3; 3 |] in
  Alcotest.(check int) "tie goes to lowest piece" 0 s'.Probe.rarest_piece

(* Every event code reaches the log as a named line whose arguments
   decode the packed row: 1-based pieces, flags as booleans, the
   handoff population rounded as the ring stores it. *)
let test_probe_event_names () =
  with_temp_file (fun path ->
      let recorder = Recorder.create ~log:path () in
      let p = Probe.make ~recorder () in
      Probe.arrival p ~time:1.0 ~pieces:(Pieceset.add 2 (Pieceset.singleton 0));
      Probe.contact p ~time:2.0 ~seed:true ~useful:false;
      Probe.transfer p ~time:3.0 ~piece:1 ~completed:true;
      Probe.transfer_lost p ~time:4.0;
      Probe.departure p ~time:5.0 Probe.Completed;
      Probe.departure p ~time:6.0 Probe.Aborted;
      Probe.departure p ~time:7.0 Probe.Seed_departed;
      Probe.seed_toggle p ~time:8.0 ~up:false;
      Probe.handoff p ~time:9.0 ~fluid:true ~n:12.4;
      Probe.handoff p ~time:10.0 ~fluid:false ~n:3.6;
      Recorder.close recorder;
      Alcotest.(check (list string))
        "one line per event code"
        [
          {|{"t":1.0,"ev":"arrival","pieces":"{1,3}","held":2}|};
          {|{"t":2.0,"ev":"contact","seed":true,"useful":false}|};
          {|{"t":3.0,"ev":"transfer","piece":2,"completed":true}|};
          {|{"t":4.0,"ev":"transfer_lost"}|};
          {|{"t":5.0,"ev":"departure_completed"}|};
          {|{"t":6.0,"ev":"departure_aborted"}|};
          {|{"t":7.0,"ev":"departure_seed"}|};
          {|{"t":8.0,"ev":"seed_toggle","up":false}|};
          {|{"t":9.0,"ev":"handoff_to_fluid","fluid":true,"n":12.0}|};
          {|{"t":10.0,"ev":"handoff_to_stochastic","fluid":false,"n":4.0}|};
        ]
        (List.tl (lines_of (read_file path))))

(* ---- probes attached to the simulators ---- *)

let faulty_config_markov () =
  {
    (Sim_markov.default_config params) with
    Sim_markov.faults = Faults.make ~outage:(20.0, 5.0) ~abort_rate:0.02 ~loss_prob:0.05 ();
  }

let faulty_config_agent () =
  {
    (Sim_agent.default_config params) with
    Sim_agent.faults = Faults.make ~outage:(20.0, 5.0) ~abort_rate:0.02 ~loss_prob:0.05 ();
  }

(* Listens to everything: a ring spilling to a JSONL log, the sample
   grid and the profiler.  [finish] closes the log and returns how many
   rows it holds and how many events the ring saw. *)
let busy_probe () =
  let series = Series.create ~k:3 ~interval:7.0 in
  let path = Filename.temp_file "p2p_obs_test" ".jsonl" in
  let recorder = Recorder.create ~capacity:64 ~log:path () in
  let probe =
    Probe.make ~interval:7.0 ~recorder ~on_sample:(Series.record series)
      ~profile:(Profile.create ()) ()
  in
  let finish () =
    Recorder.close recorder;
    let rows = List.length (lines_of (read_file path)) - 1 in
    Sys.remove path;
    (rows, Recorder.recorded recorder)
  in
  (probe, finish)

let check_saw_traffic finish =
  let traced, recorded = finish () in
  Alcotest.(check bool) "the probe actually saw traffic" true (traced > 0);
  Alcotest.(check int) "the log holds every event the ring saw" recorded traced

let check_markov_stats_equal name (a : Sim_markov.stats) (b : Sim_markov.stats) =
  Alcotest.(check int) (name ^ " events") a.Sim_markov.events b.Sim_markov.events;
  Alcotest.(check int) (name ^ " arrivals") a.Sim_markov.arrivals b.Sim_markov.arrivals;
  Alcotest.(check int) (name ^ " transfers") a.Sim_markov.transfers b.Sim_markov.transfers;
  Alcotest.(check int) (name ^ " departures") a.Sim_markov.departures b.Sim_markov.departures;
  Alcotest.(check int) (name ^ " final_n") a.Sim_markov.final_n b.Sim_markov.final_n;
  Alcotest.(check int) (name ^ " aborted") a.Sim_markov.aborted_peers b.Sim_markov.aborted_peers;
  Alcotest.(check int) (name ^ " lost") a.Sim_markov.lost_transfers b.Sim_markov.lost_transfers;
  Alcotest.(check bool)
    (name ^ " time_avg_n bit-identical")
    true
    (Int64.bits_of_float a.Sim_markov.time_avg_n = Int64.bits_of_float b.Sim_markov.time_avg_n);
  Alcotest.(check bool)
    (name ^ " outage_time bit-identical")
    true
    (Int64.bits_of_float a.Sim_markov.outage_time = Int64.bits_of_float b.Sim_markov.outage_time);
  Alcotest.(check bool) (name ^ " sample grid") true (a.Sim_markov.samples = b.Sim_markov.samples)

let test_markov_probe_bit_identity () =
  let config = faulty_config_markov () in
  let bare, _ = Sim_markov.run_seeded ~seed:77 config ~horizon:250.0 in
  let probe, finish = busy_probe () in
  let probed, _ = Sim_markov.run_seeded ~probe ~seed:77 config ~horizon:250.0 in
  check_markov_stats_equal "markov" bare probed;
  check_saw_traffic finish

let test_agent_probe_bit_identity () =
  let config = faulty_config_agent () in
  let bare, _ = Sim_agent.run_seeded ~seed:77 config ~horizon:250.0 in
  let probe, finish = busy_probe () in
  let probed, _ = Sim_agent.run_seeded ~probe ~seed:77 config ~horizon:250.0 in
  Alcotest.(check int) "agent events" bare.Peers.events probed.Peers.events;
  Alcotest.(check int) "agent transfers" bare.Peers.transfers probed.Peers.transfers;
  Alcotest.(check int) "agent departures" bare.Peers.departures probed.Peers.departures;
  Alcotest.(check int) "agent final_n" bare.Peers.final_n probed.Peers.final_n;
  Alcotest.(check bool)
    "agent time_avg_n bit-identical" true
    (Int64.bits_of_float bare.Peers.time_avg_n
    = Int64.bits_of_float probed.Peers.time_avg_n);
  Alcotest.(check bool)
    "agent mean_sojourn bit-identical" true
    (Int64.bits_of_float bare.Peers.mean_sojourn
    = Int64.bits_of_float probed.Peers.mean_sojourn);
  Alcotest.(check bool) "agent sample grid" true (bare.Peers.samples = probed.Peers.samples);
  check_saw_traffic finish

let probe_times ~run ~interval =
  let times = ref [] in
  let probe = Probe.make ~interval ~on_sample:(fun s -> times := s.Probe.time :: !times) () in
  run ~probe;
  List.rev !times

let test_probe_grid_is_sim_time () =
  (* interval 5 over horizon 50: exactly the 11 grid points 0, 5, .., 50,
     exact floats — no wall-clock jitter, no drift *)
  let config = Sim_markov.default_config params in
  let expect = List.init 11 (fun i -> 5.0 *. float_of_int i) in
  let times =
    probe_times
      ~run:(fun ~probe -> ignore (Sim_markov.run_seeded ~probe ~seed:5 config ~horizon:50.0))
      ~interval:5.0
  in
  Alcotest.(check (list (float 0.0))) "markov grid" expect times;
  let config_a = Sim_agent.default_config params in
  let times_a =
    probe_times
      ~run:(fun ~probe -> ignore (Sim_agent.run_seeded ~probe ~seed:5 config_a ~horizon:50.0))
      ~interval:5.0
  in
  Alcotest.(check (list (float 0.0))) "agent grid" expect times_a

let test_probe_interval_longer_than_run () =
  (* satellite (c): one sample at t = 0 and nothing else *)
  let config = Sim_markov.default_config params in
  let times =
    probe_times
      ~run:(fun ~probe -> ignore (Sim_markov.run_seeded ~probe ~seed:5 config ~horizon:10.0))
      ~interval:100.0
  in
  Alcotest.(check (list (float 0.0))) "single t=0 sample" [ 0.0 ] times

let collect_series ~seed ~horizon ~interval =
  let series = Series.create ~k:3 ~interval in
  let probe = Probe.make ~interval ~on_sample:(Series.record series) () in
  ignore (Sim_markov.run_seeded ~probe ~seed (faulty_config_markov ()) ~horizon);
  Series.close series ~time:horizon;
  series

let test_probe_samples_deterministic () =
  let a = collect_series ~seed:2024 ~horizon:120.0 ~interval:3.0 in
  let b = collect_series ~seed:2024 ~horizon:120.0 ~interval:3.0 in
  Alcotest.(check bool) "sample arrays identical" true (Series.samples a = Series.samples b);
  Alcotest.(check bool)
    "time averages bit-identical" true
    (Int64.bits_of_float (Series.means a).n = Int64.bits_of_float (Series.means b).n)

let bits_of_averages s =
  List.map Int64.bits_of_float
    (let m = Series.means s in
     [ m.n; m.seeds; m.one_club; m.rarest_count ] @ Array.to_list m.pieces)

let bits_of_times s =
  Array.map (fun (x : Probe.sample) -> Int64.bits_of_float x.Probe.time) (Series.samples s)

(* [Sim_markov] restamps its last probe sample while no event changes
   the state.  Under loss (an upload that changes nothing), outages and
   churn, every sample it hands the probe is a fresh [Probe.sample] of
   the live state at that grid point, so the two series are equal, and
   the probed run is the unprobed one. *)
let test_markov_probe_reuse_is_fresh () =
  let config = faulty_config_markov () in
  let k = config.Sim_markov.params.Params.k and interval = 0.05 and horizon = 250.0 in
  (* the engine's state, once the observer has seen it; until then the
     state is still the initial one *)
  let live = ref (State.of_counts config.initial) in
  let fresh ~time =
    let st = !live in
    Probe.sample ~time ~k ~n:(State.n st) ~count_of:(State.count st)
      ~piece_counts:(State.piece_count_vector st ~k)
  in
  let got = Series.create ~k ~interval and rebuilt = Series.create ~k ~interval in
  let last = ref None and reused = ref 0 in
  let on_sample (x : Probe.sample) =
    let y = fresh ~time:x.Probe.time in
    if x <> y then Alcotest.failf "stale probe sample at %.17g" x.Probe.time;
    (match !last with
    | Some (prev : Probe.sample) when prev.Probe.piece_counts == x.Probe.piece_counts ->
        incr reused
    | _ -> ());
    last := Some x;
    Series.record got x;
    Series.record rebuilt y
  in
  let probed, _ =
    Sim_markov.run_seeded ~probe:(Probe.make ~interval ~on_sample ())
      ~observer:(fun ~time:_ ~state -> live := state)
      ~seed:77 config ~horizon
  in
  List.iter (fun s -> Series.close s ~time:horizon) [ got; rebuilt ];
  Alcotest.(check bool) "some samples were restamped" true (!reused > 0);
  Alcotest.(check bool) "the run lost uploads" true (probed.Sim_markov.lost_transfers > 0);
  Alcotest.(check bool) "the run lost peers to churn" true (probed.Sim_markov.aborted_peers > 0);
  Alcotest.(check bool) "the seed went down" true (probed.Sim_markov.outage_time > 0.0);
  Alcotest.(check int) "count" (Series.count rebuilt) (Series.count got);
  Alcotest.(check bool) "samples" true (Series.samples rebuilt = Series.samples got);
  Alcotest.(check (list int64)) "time averages bits" (bits_of_averages rebuilt)
    (bits_of_averages got);
  let bare, _ = Sim_markov.run_seeded ~seed:77 config ~horizon in
  check_markov_stats_equal "probed = unprobed" bare probed

(* ---- Series ---- *)

let mk_sample ~time ~n ~club ~pieces =
  Probe.
    {
      time;
      n;
      seeds = 0;
      one_club = club;
      rarest_piece = 0;
      rarest_count = pieces.(0);
      piece_counts = pieces;
    }

let test_series_averages () =
  Alcotest.check_raises "k < 1 rejected" (Invalid_argument "Series.create: k < 1") (fun () ->
      ignore (Series.create ~k:0 ~interval:1.0));
  List.iter
    (fun interval ->
      Alcotest.check_raises
        (Printf.sprintf "interval %g rejected" interval)
        (Invalid_argument "Series.create: interval not finite and > 0")
        (fun () -> ignore (Series.create ~k:2 ~interval)))
    [ 0.0; -1.0; infinity; nan ];
  let s = Series.create ~k:2 ~interval:10.0 in
  Alcotest.(check bool) "avg before time elapses is nan" true (Float.is_nan (Series.means s).n);
  Series.record s (mk_sample ~time:0.0 ~n:2 ~club:0 ~pieces:[| 1; 1 |]);
  Series.record s (mk_sample ~time:10.0 ~n:6 ~club:4 ~pieces:[| 1; 5 |]);
  Series.close s ~time:20.0;
  (* n: 2 for 10 time units then 6 for 10 -> 4.0; club: 0 then 4 -> 2.0 *)
  Alcotest.(check (float 1e-12)) "time-weighted avg n" 4.0 (Series.means s).n;
  Alcotest.(check (float 1e-12)) "time-weighted avg one-club" 2.0 (Series.means s).one_club;
  Alcotest.(check (float 1e-12)) "per-piece avg" 3.0 (Series.means s).pieces.(1);
  Alcotest.(check int) "count" 2 (Series.count s);
  Alcotest.(check bool)
    "one-club series" true
    (Series.one_club_series s = [| (0.0, 0); (10.0, 4) |]);
  Alcotest.(check bool)
    "population series" true
    (Series.population_series s = [| (0.0, 2); (10.0, 6) |])

let test_series_file_roundtrip () =
  let s = collect_series ~seed:99 ~horizon:150.0 ~interval:5.0 in
  with_temp_file (fun path ->
      let oc = open_out path in
      Series.write s oc;
      close_out oc;
      match Series.read_file path with
      | Error msg -> Alcotest.failf "read_file failed: %s" msg
      | Ok s' ->
          Alcotest.(check int) "k preserved" (Series.k s) (Series.k s');
          Alcotest.(check int) "count preserved" (Series.count s) (Series.count s');
          Alcotest.(check bool) "samples preserved" true (Series.samples s = Series.samples s');
          (* the reader closes at the header's end, the writer's horizon *)
          Alcotest.(check bool)
            "avg_n bit-identical" true
            (Int64.bits_of_float (Series.means s).n = Int64.bits_of_float (Series.means s').n))

(* A written row as (t, repeats, keyed).  A keyed row carries its [t]
   and [r]; a compact row [[n,seeds,club,p1,..,pK]] or [[..,R]] has its
   t at [next], the grid point after the previous row's last sample. *)
let row_of ~k ~next line =
  match Json.of_string line with
  | Ok (Json.List xs) ->
      if Float.is_nan next then Alcotest.failf "compact first row %S" line;
      let r =
        if List.length xs = 4 + k then Option.get (Json.to_int_opt (List.nth xs (3 + k)))
        else if List.length xs = 3 + k then 0
        else Alcotest.failf "compact row %S is not 3 + k or 4 + k long" line
      in
      (next, r, false)
  | Ok row ->
      ( Option.get (Option.bind (Json.member "t" row) Json.to_float_opt),
        Option.value ~default:0 (Option.bind (Json.member "r" row) Json.to_int_opt),
        true )
  | Error msg -> Alcotest.failf "row %S: %s" line msg

(* The rows after the header line of a written file, as [row_of] reads
   them, each run walked on by the header's [interval]. *)
let rows_of_file ~k path =
  match lines_of (read_file path) with
  | [] -> Alcotest.fail "no header line"
  | header :: lines ->
      let interval =
        match Json.of_string header with
        | Ok h -> Option.get (Option.bind (Json.member "interval" h) Json.to_float_opt)
        | Error msg -> Alcotest.failf "header %S: %s" header msg
      in
      let next = ref nan in
      List.map
        (fun line ->
          let ((t, r, _) as row) = row_of ~k ~next:!next line in
          next := t +. interval;
          for _ = 1 to r do
            next := !next +. interval
          done;
          row)
        lines

(* Writes [s], reads it back, checks the samples (times bit for bit),
   the count and all five time averages bit for bit, and returns the
   rows written as (t, repeats, keyed). *)
let check_roundtrip name s =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Series.write s oc;
      close_out oc;
      let rows = rows_of_file ~k:(Series.k s) path in
      match Series.read_file path with
      | Error msg -> Alcotest.failf "%s: read_file failed: %s" name msg
      | Ok s' ->
          Alcotest.(check int) (name ^ ": count") (Series.count s) (Series.count s');
          Alcotest.(check int)
            (name ^ ": one row per run")
            (Series.count s)
            (List.fold_left (fun acc (_, r, _) -> acc + 1 + r) 0 rows);
          Alcotest.(check bool) (name ^ ": samples") true (Series.samples s = Series.samples s');
          Alcotest.(check bool)
            (name ^ ": sample times bits") true (bits_of_times s = bits_of_times s');
          Alcotest.(check (list int64))
            (name ^ ": time averages bits") (bits_of_averages s) (bits_of_averages s');
          rows)

let probed_series ~k ~interval ~horizon run =
  let series = Series.create ~k ~interval in
  run (Probe.make ~interval ~on_sample:(Series.record series) ());
  Series.close series ~time:horizon;
  series

(* Four regimes: the syndrome (the rarest piece sits at 0 copies, so
   most samples repeat), a stable flash crowd (no repeats), the fluid
   limit (its rounded counts settle), and a hybrid run whose resumed
   segments restart the grid. *)
let test_series_roundtrip_regimes () =
  let markov params ~seed ~horizon probe =
    ignore (Sim_markov.run_seeded ~probe ~seed (Sim_markov.default_config params) ~horizon)
  in
  let syndrome =
    probed_series ~k:3 ~interval:0.05 ~horizon:150.0
      (markov (Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity) ~seed:1
         ~horizon:150.0)
  in
  let rows = check_roundtrip "syndrome" syndrome in
  Alcotest.(check bool) "syndrome: runs at least halve the rows" true
    (2 * List.length rows < Series.count syndrome);
  let flash =
    probed_series ~k:8 ~interval:1.0 ~horizon:300.0
      (markov (Scenario.flash_crowd ~k:8 ~lambda:20.0 ~us:2.0 ~mu:1.0 ~gamma:0.8) ~seed:3
         ~horizon:300.0)
  in
  let rows = check_roundtrip "flash crowd" flash in
  Alcotest.(check int) "flash crowd: no repeats" (Series.count flash) (List.length rows);
  (* The fluid run on its orbit layout, and from the same start as
     explicit densities on the 2^K types. *)
  let fluid_params = Scenario.flash_crowd ~k:3 ~lambda:5.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let fluid_init = Array.init 8 (fun c -> if c = 0 then 1000.0 else 0.0) in
  List.iter
    (fun (layout, init) ->
      let fluid =
        probed_series ~k:3 ~interval:0.5 ~horizon:100.0 (fun probe ->
            let config =
              {
                (Sim_fluid.default_config fluid_params) with
                initial = [ (Pieceset.empty, 1000.0) ];
              }
            in
            ignore (Sim_fluid.run_seeded ~probe ?init ~seed:1 config ~horizon:100.0))
      in
      let rows = check_roundtrip ("fluid, " ^ layout) fluid in
      Alcotest.(check bool) ("fluid, " ^ layout ^ ": has runs") true
        (List.length rows < Series.count fluid))
    [ ("orbits", None); ("2^K", Some fluid_init) ];
  let switches = ref [] in
  let hybrid =
    probed_series ~k:2 ~interval:0.25 ~horizon:50.0 (fun probe ->
        let markov =
          Sim_markov.default_config
            (Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity)
        in
        let s, _ =
          Sim_hybrid.run_seeded ~probe ~seed:7
            (Sim_hybrid.default_config ~up:95 ~down:80 markov)
            ~horizon:50.0
        in
        switches := List.map (fun (w : Sim_hybrid.switch) -> w.at) s.Sim_hybrid.switches)
  in
  (* A probe step finer than the sampling grid's: the probe grid, not the
     sampling grid, is where each resumed segment carries on. *)
  let fine =
    probed_series ~k:2 ~interval:0.1 ~horizon:50.0 (fun probe ->
        let markov =
          Sim_markov.default_config
            (Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity)
        in
        ignore
          (Sim_hybrid.run_seeded ~probe ~seed:7
             (Sim_hybrid.default_config ~up:95 ~down:80 markov)
             ~horizon:50.0))
  in
  ignore (check_roundtrip "hybrid, probe step 0.1" fine);
  let rows = check_roundtrip "hybrid" hybrid in
  Alcotest.(check bool) "hybrid: handed off" true (List.length !switches >= 2);
  Alcotest.(check bool) "hybrid: has runs" true (List.length rows < Series.count hybrid);
  List.iter
    (fun (t, r, _) ->
      let last = ref t in
      for _ = 1 to r do
        last := !last +. 0.25
      done;
      List.iter
        (fun at ->
          if t < at && at < !last then
            Alcotest.failf "hybrid: the run %g..%g crosses the restart at %g" t !last at)
        !switches)
    rows

(* A sample whose rarest fields follow [Probe.rarest], with seeds and
   one-club counts that vary with the pieces. *)
let argmin_sample ~time pieces =
  Probe.sample ~time ~k:(Array.length pieces) ~n:(Array.fold_left ( + ) 0 pieces)
    ~count_of:(fun set -> pieces.(Pieceset.cardinal set mod Array.length pieces))
    ~piece_counts:pieces

let series_of ~k ~interval ~close samples =
  let s = Series.create ~k ~interval in
  List.iter (Series.record s) samples;
  Series.close s ~time:close;
  s

(* [n] samples on a step of 0.1 from an off-grid start: a repeat, a new
   count vector on the grid, an off-grid time, or a sample whose
   [rarest_count] no argmin gives, drawn at random. *)
let random_series ~k ~seed ~n =
  let rng = Random.State.make [| seed |] and interval = 0.1 in
  let counts () = Array.init k (fun _ -> Random.State.int rng 4) in
  let time = ref (Random.State.float rng 1.0) in
  let samples = ref [ argmin_sample ~time:!time (counts ()) ] in
  for _ = 1 to n do
    let roll = Random.State.int rng 10 in
    time := !time +. if roll = 0 then Random.State.float rng 0.3 else interval;
    let x =
      if roll < 5 then { (List.hd !samples) with Probe.time = !time }
      else if roll = 9 then { (argmin_sample ~time:!time (counts ())) with rarest_count = -1 }
      else argmin_sample ~time:!time (counts ())
    in
    samples := x :: !samples
  done;
  series_of ~k ~interval ~close:(!time +. 0.05) (List.rev !samples)

(* Version 3 writes a run as a compact row only where the reader can
   rebuild it, so each of these series reads back bit for bit (samples,
   times and every mean), with keyed rows exactly where the time or the
   rarest fields cannot be derived. *)
let test_series_v3_lossless () =
  let check name ~keyed s =
    let rows = check_roundtrip name s in
    Alcotest.(check (list bool)) (name ^ ": keyed rows") keyed
      (List.map (fun (_, _, keyed) -> keyed) rows)
  in
  let at time pieces = argmin_sample ~time pieces in
  check "off-grid first row" ~keyed:[ true; false; false ]
    (series_of ~k:3 ~interval:0.25 ~close:1.0
       [ at 0.3 [| 1; 2; 3 |]; at 0.55 [| 2; 2; 3 |]; at 0.8 [| 2; 1; 3 |] ]);
  check "off-grid sample mid-series" ~keyed:[ true; false; true; false ]
    (series_of ~k:3 ~interval:0.25 ~close:2.0
       [ at 0.0 [| 0; 0; 0 |]; at 0.25 [| 1; 0; 0 |]; at 0.6 [| 1; 1; 0 |];
         at 0.85 [| 1; 1; 1 |]; at 1.1 [| 1; 1; 1 |] ]);
  let x = at 0.25 [| 2; 1; 3 |] in
  check "rarest fields off the argmin rule" ~keyed:[ true; true; true; true; false ]
    (series_of ~k:3 ~interval:0.25 ~close:2.0
       [ at 0.0 [| 0; 0; 0 |];
         (* the argmin is piece 1 *)
         { x with rarest_piece = 0; rarest_count = 2 };
         { x with time = 0.5; rarest_count = 0 };
         (* a tie: piece 0 is the first argmin, not piece 2 *)
         { (at 0.75 [| 1; 3; 1 |]) with rarest_piece = 2 };
         at 1.0 [| 1; 3; 1 |] ]);
  check "ends in a run" ~keyed:[ true; false ]
    (series_of ~k:2 ~interval:0.1 ~close:0.5
       (at 0.0 [| 0; 1 |] :: List.init 4 (fun i -> at (0.1 *. float_of_int (i + 1)) [| 1; 1 |])));
  List.iter
    (fun k ->
      let s = random_series ~k ~seed:k ~n:400 in
      let name = Printf.sprintf "K = %d, random" k in
      let rows = check_roundtrip name s in
      let keyed, compact = List.partition (fun (_, _, keyed) -> keyed) rows in
      Alcotest.(check bool) (name ^ ": both row shapes") true (keyed <> [] && compact <> []))
    [ 1; 62 ]

(* The hybrid of test_fluid_validation's "non-dyadic grid across
   handoffs", probed on its sampling step 0.3: one grid runs from the
   engine to the series through every handoff, so the first row is the
   only keyed one, and the file reads back bit for bit. *)
let test_series_hybrid_one_keyed_row () =
  let every = 0.3 and horizon = 60.0 in
  let dirs = ref [] in
  let series =
    probed_series ~k:2 ~interval:every ~horizon (fun probe ->
        let markov =
          Sim_markov.default_config
            (Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity)
        in
        let s, _ =
          Sim_hybrid.run_seeded ~probe ~sample_every:every ~seed:7
            (Sim_hybrid.default_config ~up:95 ~down:80 markov)
            ~horizon
        in
        dirs := List.map (fun (w : Sim_hybrid.switch) -> w.to_fluid) s.Sim_hybrid.switches)
  in
  Alcotest.(check bool) "hands off both ways" true (List.mem true !dirs && List.mem false !dirs);
  let rows = check_roundtrip "hybrid, step 0.3" series in
  Alcotest.(check (list bool)) "one keyed row, the first" [ true ]
    (List.filter Fun.id (List.map (fun (_, _, keyed) -> keyed) rows));
  let _, _, first = List.hd rows in
  Alcotest.(check bool) "the first row is keyed" true first

(* The repeat path of [record] is a compare and a counter. *)
let test_series_repeat_alloc_free () =
  let interval = 0.05 in
  let s = Series.create ~k:3 ~interval in
  let time = ref 0.0 in
  let samples =
    Array.init 10_001 (fun i ->
        if i > 0 then time := !time +. interval;
        mk_sample ~time:!time ~n:7 ~club:5 ~pieces:[| 0; 5; 7 |])
  in
  Series.record s samples.(0);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Series.record s samples.(i)
  done;
  let grown = Gc.minor_words () -. before in
  (* slack covers the boxed float returned by [Gc.minor_words] itself;
     one word per repeat would show as >= 10k words *)
  Alcotest.(check bool)
    (Printf.sprintf "10k repeats allocate nothing (%g words, ceiling 16)" grown)
    true (grown <= 16.0);
  Alcotest.(check int) "count" 10_001 (Series.count s);
  Alcotest.(check bool) "re-expanded" true (Series.samples s = samples);
  (* the same counts off the grid start a new run *)
  let off = { (samples.(10_000)) with Probe.time = !time +. (2.0 *. interval) } in
  Series.record s off;
  Alcotest.(check bool) "an off-grid sample keeps its time" true
    (Series.samples s = Array.append samples [| off |])

let test_series_read_rejects_garbage () =
  let rejects name content =
    with_temp_file (fun path ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Series.read_file path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s should not parse as a probe series" name)
  in
  rejects "empty file" "";
  rejects "wrong schema" "{\"schema\": \"not-a-probe\", \"version\": 1, \"k\": 3}\n";
  rejects "missing header" "{\"t\": 0, \"n\": 1}\n";
  rejects "malformed sample line"
    "{\"schema\": \"p2p-swarm-probe\", \"version\": 1, \"k\": 3}\nnot json\n";
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"p2p-swarm-probe\",\"version\":99,\"k\":3}\n";
      close_out oc;
      match Series.read_file path with
      | Error msg ->
          Alcotest.(check string) "the error names the version"
            "unsupported p2p-swarm-probe version 99 (this reader takes 1, 2 and 3)" msg
      | Ok _ -> Alcotest.fail "version 99 should not parse as a probe series");
  List.iter
    (fun (name, fields) ->
      rejects name ("{\"schema\":\"p2p-swarm-probe\",\"version\":2,\"k\":3" ^ fields ^ "}\n"))
    [
      ("v2 without interval", {|,"end":10.0|});
      ("v2 null interval", {|,"interval":null,"end":10.0|});
      ("v2 zero interval", {|,"interval":0,"end":10.0|});
      ("v2 negative interval", {|,"interval":-0.5,"end":10.0|});
      ("v2 string interval", {|,"interval":"0.5","end":10.0|});
      ("v2 without end", {|,"interval":0.5|});
    ]

let probe_header = "{\"schema\":\"p2p-swarm-probe\",\"version\":1,\"k\":3}\n"
let good_row = "{\"t\":0.5,\"n\":4,\"seeds\":1,\"club\":2,\"rarest\":3,\"rarest_n\":1,\"pieces\":[2,3,1]}"

let write_string path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let read_string content =
  with_temp_file (fun path ->
      write_string path content;
      Series.read_file path)

(* The reader accepts exactly the rows [Series.write] emits: keys in
   order, integer counts, [pieces] of length k, [rarest] in [1, k], and
   nothing after the closing brace.  Every other row is an error that
   names its line. *)
let test_series_read_row_contract () =
  (match read_string (probe_header ^ good_row ^ "\n\n" ^ good_row) with
  | Error msg -> Alcotest.failf "good rows rejected: %s" msg
  | Ok s ->
      (* a blank line is skipped; a last row without a newline still counts *)
      Alcotest.(check int) "two samples" 2 (Series.count s);
      let x = (Series.samples s).(0) in
      Alcotest.(check bool) "fields read" true
        (x.Probe.time = 0.5 && x.Probe.n = 4 && x.Probe.seeds = 1 && x.Probe.one_club = 2
        && x.Probe.rarest_piece = 2 && x.Probe.rarest_count = 1
        && x.Probe.piece_counts = [| 2; 3; 1 |]));
  let rejects name row =
    match read_string (probe_header ^ good_row ^ "\n\n" ^ row ^ "\n") with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names line 4 (%s)" name msg)
          true
          (String.starts_with ~prefix:"line 4:" msg)
  in
  let edit ~from ~into =
    let l = String.length from in
    let rec find i = if String.sub good_row i l = from then i else find (i + 1) in
    let i = find 0 in
    String.sub good_row 0 i ^ into ^ String.sub good_row (i + l) (String.length good_row - i - l)
  in
  rejects "reordered key" (edit ~from:"\"n\":4,\"seeds\":1" ~into:"\"seeds\":1,\"n\":4");
  rejects "missing key" (edit ~from:",\"seeds\":1" ~into:"");
  rejects "non-integer count" (edit ~from:"\"n\":4" ~into:"\"n\":4.5");
  rejects "short pieces" (edit ~from:"[2,3,1]" ~into:"[2,3]");
  rejects "long pieces" (edit ~from:"[2,3,1]" ~into:"[2,3,1,0]");
  rejects "non-integer piece" (edit ~from:"[2,3,1]" ~into:"[2,\"3\",1]");
  rejects "rarest 0" (edit ~from:"\"rarest\":3" ~into:"\"rarest\":0");
  rejects "rarest k+1" (edit ~from:"\"rarest\":3" ~into:"\"rarest\":4");
  rejects "trailing bytes" (good_row ^ "x");
  rejects "trailing space" (good_row ^ " ");
  rejects "non-numeric t" (edit ~from:"\"t\":0.5" ~into:"\"t\":\"0.5\"");
  rejects "space inside the row" (edit ~from:"\"n\":4" ~into:"\"n\": 4");
  rejects "not json" "not json";
  rejects "r in a version 1 file" (edit ~from:"]}" ~into:"],\"r\":2}");
  (* version 2: runs of [r] more samples, [interval] apart, up to [end] *)
  let header2_to end_ =
    "{\"schema\":\"p2p-swarm-probe\",\"version\":2,\"k\":3,\"interval\":0.25,\"end\":" ^ end_ ^ "}\n"
  in
  let header2 = header2_to "10.0" in
  let run = edit ~from:"]}" ~into:"],\"r\":2}" in
  (match read_string (header2 ^ run) with
  | Error msg -> Alcotest.failf "a v2 run rejected: %s" msg
  | Ok s ->
      Alcotest.(check (list (float 0.0)))
        "the run re-expands onto the grid" [ 0.5; 0.75; 1.0 ]
        (Array.to_list (Array.map (fun (x : Probe.sample) -> x.Probe.time) (Series.samples s))));
  let rejects2 name row =
    match read_string (header2 ^ good_row ^ "\n\n" ^ row ^ "\n") with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names line 4 (%s)" name msg)
          true
          (String.starts_with ~prefix:"line 4:" msg)
  in
  let late = edit ~from:"\"t\":0.5" ~into:"\"t\":1.5" in
  let late_run r = String.sub late 0 (String.length late - 1) ^ ",\"r\":" ^ r ^ "}" in
  rejects2 "r = 0" (late_run "0");
  rejects2 "r < 0" (late_run "-1");
  rejects2 "non-integer r" (late_run "1.5");
  rejects2 "r after the closing brace" (late ^ ",\"r\":1");
  rejects2 "a run past the end" (late_run "100");
  rejects2 "time going back" (edit ~from:"\"t\":0.5" ~into:"\"t\":0.25");
  (match read_string (header2_to "0.25" ^ good_row) with
  | Ok _ -> Alcotest.fail "a sample after the header's end accepted"
  | Error _ -> ());
  (* version 3: a compact row [n,seeds,club,p1,..,pK] or [..,R] is read
     at the grid point after the last sample, rarest by the argmin rule *)
  let header3_of samples =
    "{\"schema\":\"p2p-swarm-probe\",\"version\":3,\"k\":3,\"interval\":0.25,\"end\":10.0"
    ^ samples ^ "}\n"
  in
  let header3 = header3_of ",\"samples\":5"
  and rows3 = good_row ^ "\n[5,1,2,3,1,3]\n[6,2,2,3,3,1,2]\n" in
  (match read_string (header3 ^ rows3) with
  | Error msg -> Alcotest.failf "compact rows rejected: %s" msg
  | Ok s ->
      let xs = Series.samples s in
      Alcotest.(check (list (float 0.0))) "times on the grid" [ 0.5; 0.75; 1.0; 1.25; 1.5 ]
        (Array.to_list (Array.map (fun (x : Probe.sample) -> x.Probe.time) xs));
      let x = xs.(1) and y = xs.(4) in
      Alcotest.(check bool) "fields read" true
        (x.Probe.n = 5 && x.Probe.seeds = 1 && x.Probe.one_club = 2
        && x.Probe.piece_counts = [| 3; 1; 3 |] && x.Probe.rarest_piece = 1
        && x.Probe.rarest_count = 1);
      Alcotest.(check bool) "a run's fields read" true
        (y.Probe.n = 6 && y.Probe.piece_counts = [| 3; 3; 1 |] && y.Probe.rarest_piece = 2));
  let rejects3 name ?(before = good_row ^ "\n\n") row =
    match read_string (header3 ^ before ^ row ^ "\n") with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error msg ->
        let line = if before = "" then "line 2:" else "line 4:" in
        Alcotest.(check bool)
          (Printf.sprintf "%s names %s (%s)" name line msg)
          true
          (String.starts_with ~prefix:line msg)
  in
  rejects3 "compact r = 0" "[5,1,2,3,1,3,0]";
  rejects3 "compact r < 0" "[5,1,2,3,1,3,-2]";
  rejects3 "compact row one piece short" "[5,1,2,3,1]";
  rejects3 "compact row one number long" "[5,1,2,3,1,3,2,1]";
  rejects3 "non-integer compact count" "[5,1,2,3.5,1,3]";
  rejects3 "space in a compact row" "[5, 1,2,3,1,3]";
  rejects3 "trailing bytes after a compact row" "[5,1,2,3,1,3] ";
  rejects3 "compact first row" ~before:"" "[5,1,2,3,1,3]";
  rejects2 "compact row in a version 2 file" "[5,1,2,3,1,3]";
  (* the header's sample count: a compact run row cut by one piece,
     [6,2,2,3,1,2], parses as a row of 1 sample, not 3 *)
  List.iter
    (fun (name, header, rows) ->
      match read_string (header ^ rows) with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    [
      ("a compact run row cut by one piece", header3,
       good_row ^ "\n[5,1,2,3,1,3]\n[6,2,2,3,1,2]\n");
      ("a version 3 header without samples", header3_of "", rows3);
      ("a version 3 header with too many samples", header3_of ",\"samples\":6", rows3);
    ]

(* [report] picks a renderer from the first record alone, under the
   JSONL rules; the renderer still reads the whole file. *)
let test_first_record_contract () =
  with_temp_file (fun path ->
      let first content =
        write_string path content;
        Json.first_record path
      in
      (match first "\n  \n{\"a\":1}\nnot json\n" with
      | Ok (Some v) ->
          Alcotest.(check (option int))
            "blank lines skipped" (Some 1)
            (Option.bind (Json.member "a" v) Json.to_int_opt)
      | _ -> Alcotest.fail "first record after blank lines not returned");
      (match first "{\"a\":1}" with
      | Ok None -> ()
      | _ -> Alcotest.fail "a torn first line is not a record");
      (match first "" with Ok None -> () | _ -> Alcotest.fail "an empty file has no record");
      (match first "\n\nnot json\n{\"a\":1}\n" with
      | Error msg ->
          Alcotest.(check bool) ("corrupt first record names line 3: " ^ msg) true
            (String.starts_with ~prefix:"line 3:" msg)
      | Ok _ -> Alcotest.fail "a corrupt first line accepted");
      (* a probe file whose header is fine but whose first row is torn
         dispatches as a probe series, and the series reader rejects it *)
      (match first (probe_header ^ "{\"t\":0.5,\"n\"\n" ^ good_row ^ "\n") with
      | Ok (Some v) ->
          Alcotest.(check (option string)) "dispatches on the header"
            (Some "p2p-swarm-probe") (Option.bind (Json.member "schema" v) Json.to_string_opt)
      | _ -> Alcotest.fail "header not returned");
      match Series.read_file path with
      | Ok _ -> Alcotest.fail "corrupt second line accepted by Series.read"
      | Error msg ->
          Alcotest.(check bool) ("series error names line 2: " ^ msg) true
            (String.starts_with ~prefix:"line 2:" msg))

(* A fixed syndrome-regime run (K = 3, U_s = 0.3, μ = 2, γ = ∞, λ = 2,
   seed 1, grid 0.05): the written bytes, the samples read back, and the
   detector replay over them are pinned to what the Json-tree reader and
   the sorting detector produced, so the read path must reproduce them
   bit for bit. *)
let test_series_read_pinned () =
  let params = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity in
  let series = Series.create ~k:3 ~interval:0.05 in
  let probe = Probe.make ~interval:0.05 ~on_sample:(Series.record series) () in
  ignore (Sim_markov.run_seeded ~probe ~seed:1 (Sim_markov.default_config params) ~horizon:150.0);
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Series.write series oc;
      close_out oc;
      Alcotest.(check string)
        "written bytes" "dbcd6c0499b14e78d7109ad563251dff"
        (Digest.to_hex (Digest.file path));
      match Series.read_file path with
      | Error msg -> Alcotest.failf "read_file failed: %s" msg
      | Ok read ->
          Alcotest.(check int) "count" 3001 (Series.count read);
          Alcotest.(check bool) "samples equal" true (Series.samples series = Series.samples read);
          let m = Monitor.create () in
          Array.iter
            (fun (s : Probe.sample) ->
              Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
                ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
            (Series.samples read);
          let alerts = Monitor.alerts m in
          Alcotest.(check int) "alert count" 54 (List.length alerts);
          let bits (a : Monitor.alert) =
            (Int64.bits_of_float a.Monitor.slope, Int64.bits_of_float a.Monitor.t_stat)
          in
          Alcotest.(check (pair int64 int64))
            "first alert slope/t_stat bits" (4618088962245432069L, 4620548041142100309L)
            (bits (List.hd alerts));
          Alcotest.(check (pair int64 int64))
            "last alert slope/t_stat bits" (4605615949364408586L, 4616921233821115996L)
            (bits (List.nth alerts 53));
          let render (entered, exited) =
            Printf.sprintf "%h-%s" entered
              (match exited with Some x -> Printf.sprintf "%h" x | None -> "open")
          in
          let episodes = Monitor.episodes m in
          Alcotest.(check int) "episode count" 54 (List.length episodes);
          Alcotest.(check string)
            "episode list" "c699a445a82a82565da56eec7be336db"
            (Digest.to_hex (Digest.string (String.concat ";" (List.map render episodes)))))

(* ---- jobs-independence of per-replication probe series (satellite b) ---- *)

let probe_sweep ~jobs =
  let module Runner = P2p_runner.Runner in
  let results, _ =
    Runner.run_map ~jobs ~chunk:2 ~master_seed:424242 ~replications:6 (fun ~rng ~index:_ ->
        let series = Series.create ~k:3 ~interval:4.0 in
        let probe = Probe.make ~interval:4.0 ~on_sample:(Series.record series) () in
        let stats, _ = Sim_markov.run ~probe ~rng (faulty_config_markov ()) ~horizon:100.0 in
        Series.close series ~time:100.0;
        (stats.Sim_markov.events, Series.samples series, (Series.means series).n))
  in
  Array.map Option.get results

let test_probe_series_jobs_independent () =
  let seq = probe_sweep ~jobs:1 in
  let par = probe_sweep ~jobs:4 in
  Alcotest.(check int) "same replication count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (ev_s, samples_s, avg_s) ->
      let ev_p, samples_p, avg_p = par.(i) in
      Alcotest.(check int) (Printf.sprintf "rep %d events" i) ev_s ev_p;
      Alcotest.(check bool) (Printf.sprintf "rep %d probe samples" i) true (samples_s = samples_p);
      Alcotest.(check bool)
        (Printf.sprintf "rep %d avg_n bit-identical" i)
        true
        (Int64.bits_of_float avg_s = Int64.bits_of_float avg_p))
    seq

(* ---- Progress ---- *)

let test_progress_silent () =
  Alcotest.(check bool) "silent disabled" false (Progress.enabled Progress.silent);
  Progress.step Progress.silent;
  Progress.add_events Progress.silent 1000;
  Progress.finish Progress.silent;
  Alcotest.(check int) "silent counts nothing" 0 (Progress.done_count Progress.silent);
  Alcotest.(check int) "silent events zero" 0 (Progress.events_total Progress.silent)

let test_progress_counters_and_final_line () =
  Alcotest.(check bool) "negative total rejected" true
    (try
       ignore (Progress.create ~total:(-1) ());
       false
     with Invalid_argument _ -> true);
  with_temp_file (fun path ->
      let oc = open_out path in
      let p = Progress.create ~out:oc ~min_interval_s:0.0 ~total:3 () in
      Alcotest.(check bool) "enabled" true (Progress.enabled p);
      for _ = 1 to 3 do
        Progress.step p;
        Progress.add_events p 500
      done;
      Progress.finish p;
      Progress.finish p;
      (* the final line prints once *)
      close_out oc;
      Alcotest.(check int) "done count" 3 (Progress.done_count p);
      Alcotest.(check int) "events total" 1500 (Progress.events_total p);
      let out = read_file path in
      Alcotest.(check bool) "reports 3/3" true
        (let rec contains i =
           i + 3 <= String.length out && (String.sub out i 3 = "3/3" || contains (i + 1))
         in
         contains 0);
      (* exactly one final 100% line *)
      let finals =
        List.length
          (List.filter
             (fun l ->
               let rec contains i =
                 i + 6 <= String.length l && (String.sub l i 6 = "(100%)" || contains (i + 1))
               in
               contains 0)
             (lines_of out))
      in
      Alcotest.(check int) "single final line" 1 finals)

(* ---- tolerant JSONL + atomic writes (the crash-safety primitives) ---- *)

let sample_jsonl = "{\"cell\":0,\"v\":1.5}\n{\"cell\":1,\"v\":-2.0}\n{\"cell\":2,\"v\":0.25}\n"

(* Truncation at EVERY byte offset of a valid stream must parse: the
   complete lines come back as records and the torn tail as a remnant —
   never an error, never a parsed partial record. *)
let test_jsonl_truncation_at_every_offset () =
  let full = sample_jsonl in
  let newline_positions =
    List.filter (fun i -> full.[i] = '\n') (List.init (String.length full) Fun.id)
  in
  for cut = 0 to String.length full do
    let prefix = String.sub full 0 cut in
    match Json.jsonl_of_string prefix with
    | Error msg -> Alcotest.failf "cut at %d rejected: %s" cut msg
    | Ok { records; remnant } ->
        let complete = List.length (List.filter (fun nl -> nl < cut) newline_positions) in
        Alcotest.(check int)
          (Printf.sprintf "records at cut %d" cut)
          complete (List.length records);
        let last_nl =
          List.fold_left (fun acc nl -> if nl < cut then nl + 1 else acc) 0 newline_positions
        in
        let expected_remnant =
          if cut = last_nl then None else Some (String.sub full last_nl (cut - last_nl))
        in
        Alcotest.(check (option string))
          (Printf.sprintf "remnant at cut %d" cut)
          expected_remnant remnant
  done

(* A torn tail that happens to be valid JSON is still a remnant: a tear
   can truncate a record to a shorter valid one, so trailing bytes
   without a newline are never trusted. *)
let test_jsonl_valid_looking_tail_is_remnant () =
  match Json.jsonl_of_string "{\"cell\":0}\n{\"cell\":1}" with
  | Error msg -> Alcotest.fail msg
  | Ok { records; remnant } ->
      Alcotest.(check int) "one complete record" 1 (List.length records);
      Alcotest.(check (option string)) "tail quarantined" (Some "{\"cell\":1}") remnant

let test_jsonl_interior_corruption_is_error () =
  match Json.jsonl_of_string "{\"cell\":0}\nnot json at all\n{\"cell\":2}\n" with
  | Ok _ -> Alcotest.fail "interior corruption accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

let test_jsonl_blank_lines_skipped () =
  match Json.jsonl_of_string "{\"a\":1}\n\n  \n{\"a\":2}\n" with
  | Error msg -> Alcotest.fail msg
  | Ok { records; remnant } ->
      Alcotest.(check int) "two records" 2 (List.length records);
      Alcotest.(check (option string)) "no remnant" None remnant

let test_write_file_atomic_basic () =
  with_temp_file (fun path ->
      let r = Json.write_file_atomic path (fun oc -> output_string oc "first"; 42) in
      Alcotest.(check int) "writer result returned" 42 r;
      Alcotest.(check string) "content written" "first" (read_file path);
      ignore (Json.write_file_atomic path (fun oc -> output_string oc "second"));
      Alcotest.(check string) "content replaced" "second" (read_file path))

let test_write_file_atomic_writer_raise_leaves_target () =
  with_temp_file (fun path ->
      ignore (Json.write_file_atomic path (fun oc -> output_string oc "keep me"));
      (try
         Json.write_file_atomic path (fun oc ->
             output_string oc "torn prefix that must never land";
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check string) "target untouched after writer raise" "keep me" (read_file path);
      (* and the temporary is cleaned up *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no tmp leftovers" [] leftovers)

let test_read_jsonl_file_roundtrip () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc sample_jsonl;
      (* plus a torn tail *)
      output_string oc "{\"cell\":3,\"v\":0.";
      close_out oc;
      match Json.read_jsonl_file path with
      | Error msg -> Alcotest.fail msg
      | Ok { records; remnant } ->
          Alcotest.(check int) "three records" 3 (List.length records);
          Alcotest.(check (option string)) "torn tail" (Some "{\"cell\":3,\"v\":0.") remnant)

(* ---- Profile ---- *)

let test_profile_disabled () =
  Alcotest.(check bool) "disabled" false (Profile.enabled Profile.disabled);
  let span = Profile.start Profile.disabled "phase" in
  Profile.stop span;
  Alcotest.(check bool) "no phases recorded" true (Profile.phases Profile.disabled = []);
  Alcotest.(check (float 0.0)) "total zero" 0.0 (Profile.total_s Profile.disabled)

let test_profile_phases () =
  let p = Profile.create () in
  Profile.time p "setup" (fun () -> ());
  Profile.time p "event-loop" (fun () -> ());
  Profile.time p "event-loop" (fun () -> ());
  Profile.time p "finalise" (fun () -> ());
  let phases = Profile.phases p in
  Alcotest.(check (list string))
    "phases sorted by name"
    [ "event-loop"; "finalise"; "setup" ]
    (List.map fst phases);
  let _, (loop_s, loop_n) = List.nth phases 0 in
  Alcotest.(check int) "event-loop entered twice" 2 loop_n;
  Alcotest.(check bool) "durations nonnegative" true (loop_s >= 0.0);
  Alcotest.(check bool) "total covers the phases" true
    (Profile.total_s p >= List.fold_left (fun acc (_, (s, _)) -> Float.max acc s) 0.0 phases);
  (* exception safety: the span still closes *)
  (try Profile.time p "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "phase recorded despite raise" true
    (List.mem_assoc "boom" (Profile.phases p));
  match Profile.to_json p with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "to_json should be an object"

(* ---- monotonic clock ---- *)

let test_clock_nondecreasing () =
  let violations = ref 0 in
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then incr violations;
    prev := t
  done;
  Alcotest.(check int) "now_ns never runs backwards" 0 !violations;
  let s0 = Clock.now_s () in
  let s1 = Clock.now_s () in
  Alcotest.(check bool) "now_s differences nonnegative" true (s1 -. s0 >= 0.0)

(* ---- log2 histograms ---- *)

let test_hist_bucket_bounds () =
  let h = Hist.create () in
  Hist.record h 1.0 (* the grid anchor: 1 s = bucket 32 *);
  Hist.record h 1e-9 (* 1 ns: [2^-30, 2^-29) = bucket 2 *);
  Hist.record h (Float.ldexp 1.0 (-31)) (* exact lower edge of bucket 1 *);
  Hist.record h 0.0;
  Hist.record h (-3.0);
  Hist.record h 1e-300 (* below 2^-31: tail bucket 0 *);
  Hist.record h 1e12 (* above 2^31: tail bucket 63 *);
  Hist.record h infinity;
  let b = Hist.buckets h in
  Alcotest.(check int) "1.0 in bucket 32" 1 b.(32);
  Alcotest.(check int) "1 ns in bucket 2" 1 b.(2);
  Alcotest.(check int) "2^-31 in bucket 1" 1 b.(1);
  Alcotest.(check int) "bucket 0 absorbs nonpositive and tiny" 3 b.(0);
  Alcotest.(check int) "bucket 63 absorbs huge" 2 b.(63);
  Alcotest.(check int) "count covers every record" 8 (Hist.count h);
  Alcotest.(check bool) "min tracked through the junk" true (Hist.min_value h = -3.0);
  Alcotest.(check (float 0.0)) "bucket 32 lower edge is 1.0" 1.0 (Hist.bucket_lower_bound 32);
  Alcotest.(check bool)
    "quantiles ride the bucket edges monotonically" true
    (Hist.quantile h 0.0 <= Hist.quantile h 0.5 && Hist.quantile h 0.5 <= Hist.quantile h 1.0)

(* Integral-part equality: buckets, count, min/max.  The running [sum]
   is a float accumulator, so it gets a tolerance instead. *)
let check_hist_equal name a b =
  Alcotest.(check (array int)) (name ^ " buckets") (Hist.buckets a) (Hist.buckets b);
  Alcotest.(check int) (name ^ " count") (Hist.count a) (Hist.count b);
  Alcotest.(check bool)
    (name ^ " min") true
    (Int64.bits_of_float (Hist.min_value a) = Int64.bits_of_float (Hist.min_value b));
  Alcotest.(check bool)
    (name ^ " max") true
    (Int64.bits_of_float (Hist.max_value a) = Int64.bits_of_float (Hist.max_value b));
  Alcotest.(check bool)
    (name ^ " sum within rounding") true
    (let sa = Hist.sum a and sb = Hist.sum b in
     Float.abs (sa -. sb) <= 1e-9 *. Float.max 1.0 (Float.abs sa))

(* The argument is hoisted and pre-boxed ([Sys.opaque_identity]) so the
   test pins what the contract promises — [record] itself allocates
   nothing.  A per-iteration fresh float would measure the {e caller's}
   argument boxing instead, which the dev profile's [-opaque] build
   can't inline away. *)
let test_hist_record_alloc_free () =
  let h = Hist.create () in
  let v = Sys.opaque_identity 1.5 in
  Hist.record h v;
  Hist.record_unit h;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Hist.record h v;
    Hist.record_unit h
  done;
  let grown = Gc.minor_words () -. before in
  (* slack covers the boxed float returned by [Gc.minor_words] itself;
     any per-record allocation would show as >= 20k words *)
  Alcotest.(check bool) "10k records allocate nothing" true (grown <= 16.0)

let test_hist_record_unit_equiv () =
  let a = Hist.create () and b = Hist.create () in
  for _ = 1 to 1000 do
    Hist.record_unit a;
    Hist.record b 1.0
  done;
  check_hist_equal "record_unit is record 1.0" a b

let test_hist_group_file_roundtrip () =
  let g = Hist.group () in
  let h1 = Hist.get g "engine/apply" and h2 = Hist.get g "events/arrival" in
  Hist.record h1 3.5e-6;
  Hist.record h1 0.012;
  Hist.record h1 0.0;
  for _ = 1 to 42 do
    Hist.record_unit h2
  done;
  ignore (Hist.timer ~period:64 h1);
  with_temp_file (fun path ->
      Hist.write_group_file g path;
      match Hist.read_group_file path with
      | Error e -> Alcotest.failf "read_group_file: %s" e
      | Ok entries ->
          Alcotest.(check (list string))
            "names sorted" [ "engine/apply"; "events/arrival" ] (List.map fst entries);
          check_hist_equal "engine/apply survives" h1 (List.assoc "engine/apply" entries);
          check_hist_equal "events/arrival survives" h2 (List.assoc "events/arrival" entries);
          Alcotest.(check int)
            "sample_period survives" 64
            (Hist.sample_period (List.assoc "engine/apply" entries)));
  match Hist.read_group_file "/nonexistent/p2p_hist.json" with
  | Ok _ -> Alcotest.fail "reading a missing file should fail"
  | Error _ -> ()

(* ---- flight recorder ---- *)

let test_recorder_pow2_capacity () =
  Alcotest.(check int) "5 rounds up to 8" 8 (Recorder.capacity (Recorder.create ~capacity:5 ()));
  Alcotest.(check int) "8 stays 8" 8 (Recorder.capacity (Recorder.create ~capacity:8 ()));
  Alcotest.(check int) "1 stays 1" 1 (Recorder.capacity (Recorder.create ~capacity:1 ()));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Recorder.create: capacity < 1") (fun () ->
      ignore (Recorder.create ~capacity:0 ()))

(* The wraparound pin: a capacity-8 ring dumped at every fill level from
   empty through double wrap must always publish exactly the last
   [min n 8] events, oldest first, with an accurate header. *)
let test_recorder_dump_every_fill_level () =
  for n = 0 to 20 do
    let r = Recorder.create ~capacity:8 () in
    for i = 0 to n - 1 do
      Recorder.record r ~time:(float_of_int i) ~code:(i mod Recorder.n_event_codes) ~a:i
        ~b:(2 * i)
    done;
    Alcotest.(check int) (Printf.sprintf "recorded after %d" n) n (Recorder.recorded r);
    Alcotest.(check int) (Printf.sprintf "dropped after %d" n) (max 0 (n - 8)) (Recorder.dropped r);
    with_temp_file (fun path ->
        Recorder.dump r path;
        match Recorder.read_summary path with
        | Error e -> Alcotest.failf "read_summary at fill %d: %s" n e
        | Ok ((cap, recorded, dropped), rows) ->
            Alcotest.(check int) "header capacity" 8 cap;
            Alcotest.(check int) "header recorded" n recorded;
            Alcotest.(check int) "header dropped" (max 0 (n - 8)) dropped;
            Alcotest.(check int) "rows kept" (min n 8) (Array.length rows);
            Array.iteri
              (fun j (t, c) ->
                let i = max 0 (n - 8) + j in
                Alcotest.(check bool)
                  (Printf.sprintf "fill %d row %d" n j)
                  true
                  (t = float_of_int i && c = i mod Recorder.n_event_codes))
              rows)
  done

let test_recorder_record_alloc_free () =
  let r = Recorder.create ~capacity:16 () in
  let time = Sys.opaque_identity 2.5 (* pre-boxed, as in the hist test *) in
  Recorder.record r ~time ~code:0 ~a:0 ~b:0;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Recorder.record r ~time ~code:1 ~a:i ~b:i
  done;
  let grown = Gc.minor_words () -. before in
  Alcotest.(check bool) "10k records allocate nothing" true (grown <= 16.0)

let test_recorder_disabled_inert () =
  Recorder.record Recorder.disabled ~time:1.0 ~code:0 ~a:0 ~b:0;
  Alcotest.(check int) "disabled records nothing" 0 (Recorder.recorded Recorder.disabled);
  with_temp_file (fun path ->
      Recorder.dump Recorder.disabled path;
      Alcotest.(check string) "disabled dumps nothing" "" (read_file path))

let test_recorder_auto_snapshot () =
  with_temp_file (fun path ->
      let r = Recorder.create ~capacity:8 () in
      Recorder.auto_snapshot r ~every:4 ~min_gap_s:0.0 path;
      for i = 0 to 8 do
        Recorder.record r ~time:(float_of_int i) ~code:0 ~a:i ~b:i
      done;
      (* snapshots fired at records 4 and 8: whatever a SIGKILL leaves
         behind is a complete, parseable dump of some earlier ring state *)
      match Recorder.read_summary path with
      | Error e -> Alcotest.failf "snapshot unparseable: %s" e
      | Ok ((cap, recorded, _), rows) ->
          Alcotest.(check int) "snapshot capacity" 8 cap;
          Alcotest.(check bool) "snapshot at a multiple of every" true
            (recorded = 4 || recorded = 8);
          Alcotest.(check int) "snapshot rows" recorded (Array.length rows))

(* ---- the log and a snapshot of one ring export the same rows ---- *)

(* A ring larger than the run keeps every event, so a snapshot of it
   and its full log must hold the same rows, byte for byte, after
   their headers. *)
let check_trace_matches_recorder name run =
  with_temp_file (fun log ->
      with_temp_file (fun dump_path ->
          let recorder = Recorder.create ~capacity:(1 lsl 16) ~log () in
          run (Probe.make ~recorder ());
          Recorder.dump recorder dump_path;
          Recorder.close recorder;
          Alcotest.(check int) (name ^ ": ring kept every event") 0 (Recorder.dropped recorder);
          let rows path = List.tl (lines_of (read_file path)) in
          let logged = rows log and dumped = rows dump_path in
          Alcotest.(check int) (name ^ ": event counts") (Recorder.recorded recorder)
            (List.length logged);
          Alcotest.(check bool) (name ^ ": the run has events") true (logged <> []);
          Alcotest.(check (list string)) (name ^ ": same rows, in order") logged dumped))

let test_trace_rows_match_recorder () =
  check_trace_matches_recorder "faulty markov" (fun probe ->
      ignore (Sim_markov.run_seeded ~probe ~seed:77 (faulty_config_markov ()) ~horizon:250.0));
  let coded =
    {
      (Sim_coded.of_gift
         { Stability.Coded.q = 4; k = 4; us = 0.8; mu = 1.0; gamma = 2.0;
           lambda0 = 0.5; lambda1 = 0.5 })
      with
      faults = Faults.make ~outage:(20.0, 5.0) ~abort_rate:0.02 ~loss_prob:0.05 ();
    }
  in
  check_trace_matches_recorder "faulty coded" (fun probe ->
      ignore (Sim_coded.run_seeded ~probe ~seed:77 coded ~horizon:250.0))

(* The first 20 lines of a fixed-seed faulty run's [--trace] output,
   pinned byte for byte: every event kind but completion departures and
   handoffs shows up in them. *)
let p2psim =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "p2psim.exe")

let trace_golden =
  [
    {|{"t":0.23849665968770525,"ev":"arrival","pieces":"{1}","held":1}|};
    {|{"t":0.35603531570685154,"ev":"departure_aborted"}|};
    {|{"t":0.93541540942460344,"ev":"arrival","pieces":"{}","held":0}|};
    {|{"t":0.97177978315324365,"ev":"contact","seed":true,"useful":true}|};
    {|{"t":0.97177978315324365,"ev":"transfer","piece":1,"completed":false}|};
    {|{"t":1.1368789941908011,"ev":"seed_toggle","up":false}|};
    {|{"t":1.6566542292475326,"ev":"seed_toggle","up":true}|};
    {|{"t":1.6650025064665432,"ev":"contact","seed":true,"useful":true}|};
    {|{"t":1.6650025064665432,"ev":"transfer","piece":2,"completed":true}|};
    {|{"t":1.7731903808926235,"ev":"departure_seed"}|};
    {|{"t":1.9357186454512454,"ev":"arrival","pieces":"{}","held":0}|};
    {|{"t":1.9595429476052482,"ev":"arrival","pieces":"{}","held":0}|};
    {|{"t":2.1473814205738888,"ev":"arrival","pieces":"{}","held":0}|};
    {|{"t":2.2760884881909891,"ev":"contact","seed":true,"useful":true}|};
    {|{"t":2.2760884881909891,"ev":"transfer_lost"}|};
    {|{"t":2.6851973229111219,"ev":"departure_aborted"}|};
    {|{"t":2.8345950283354187,"ev":"arrival","pieces":"{}","held":0}|};
    {|{"t":2.8423191506350287,"ev":"arrival","pieces":"{1}","held":1}|};
    {|{"t":3.2953070930944079,"ev":"arrival","pieces":"{1}","held":1}|};
    {|{"t":3.4132096375905534,"ev":"contact","seed":false,"useful":false}|};
  ]

let run_p2psim ?(stdout = "/dev/null") args =
  let out = Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process p2psim (Array.of_list (p2psim :: args)) Unix.stdin out devnull in
  Unix.close out;
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "p2psim %s failed" (String.concat " " args)

let test_cli_trace_golden () =
  with_temp_file (fun path ->
      run_p2psim
        [ "simulate"; "-k"; "2"; "--us"; "1"; "--gamma"; "2"; "-a"; "none=2"; "-a"; "1=1";
          "-t"; "50"; "--seed-outage"; "1,0.5"; "--abort-rate"; "0.5"; "--loss-prob"; "0.3";
          "--seed"; "26"; "--trace"; path ];
      match lines_of (read_file path) with
      | [] -> Alcotest.fail "empty trace"
      | header :: rows ->
          Alcotest.(check string) "header"
            {|{"schema":"p2p-flight-recorder","version":2,"capacity":4096}|} header;
          Alcotest.(check (list string)) "first 20 trace rows" trace_golden
            (List.filteri (fun i _ -> i < 20) rows))

(* [report] renders a [--trace] log like a flight dump: its event mix
   is the whole run's, so it equals the run's [events/*] hist counts. *)
let test_cli_report_renders_trace () =
  with_temp_file (fun trace ->
      with_temp_file (fun hists ->
          with_temp_file (fun out ->
              run_p2psim
                [ "simulate"; "-k"; "3"; "--us"; "0.3"; "--gamma"; "1.5"; "-t"; "500";
                  "--abort-rate"; "0.05"; "--seed"; "3"; "--trace"; trace; "--hist-out"; hists ];
              run_p2psim ~stdout:out [ "report"; trace ];
              let names = List.init Recorder.n_event_codes Recorder.code_name in
              let mix =
                List.filter_map
                  (fun line ->
                    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
                    | [ name; n ] when List.mem name names ->
                        Option.map (fun n -> (name, n)) (int_of_string_opt n)
                    | _ -> None)
                  (lines_of (read_file out))
              in
              let counted =
                match Hist.read_group_file hists with
                | Error e -> Alcotest.failf "read_group_file: %s" e
                | Ok entries ->
                    List.filter_map
                      (fun (name, h) ->
                        match String.split_on_char '/' name with
                        | [ "events"; ev ] when Hist.count h > 0 -> Some (ev, Hist.count h)
                        | _ -> None)
                      entries
              in
              Alcotest.(check bool) "the run has events" true (counted <> []);
              Alcotest.(check (list (pair string int)))
                "event mix = events/* counts" (List.sort compare counted) (List.sort compare mix))))

(* The whole probe series of a syndrome-regime run: 3,001 grid samples
   in 711 runs, closed at the horizon. *)
let test_cli_series_golden () =
  with_temp_file (fun path ->
      run_p2psim
        [ "simulate"; "-k"; "3"; "--us"; "0.3"; "--mu"; "2"; "--gamma"; "inf"; "-a"; "none=2";
          "-t"; "150"; "--seed"; "1"; "--probe-interval"; "0.05"; "--metrics-out"; path ];
      Alcotest.(check string) "series MD5" "b68c4b7ebfe16d57aafe9b9b562b4081"
        (Digest.to_hex (Digest.file path)))

(* A version 1 file written before runs existed (K = 3, U_s = 0.3, mu = 2,
   gamma = inf, lambda = 2, seed 1, -t 100, --probe-interval 0.25): it
   reads to the samples of the same command's version 2 file, and
   [report] renders both byte for byte alike. *)
let v1_fixture =
  List.fold_left Filename.concat (Filename.dirname Sys.executable_name) [ "fixtures"; "probe_v1.jsonl" ]

let test_series_reads_v1 () =
  with_temp_file (fun v2 ->
      with_temp_file (fun out1 ->
          with_temp_file (fun out2 ->
              run_p2psim
                [ "simulate"; "-k"; "3"; "--us"; "0.3"; "--mu"; "2"; "--gamma"; "inf"; "-a";
                  "none=2"; "-t"; "100"; "--seed"; "1"; "--probe-interval"; "0.25";
                  "--metrics-out"; v2 ];
              Alcotest.(check bool) "the version 2 file is smaller" true
                ((Unix.stat v2).Unix.st_size < (Unix.stat v1_fixture).Unix.st_size);
              (match (Series.read_file v1_fixture, Series.read_file v2) with
              | Ok a, Ok b ->
                  Alcotest.(check int) "count" 401 (Series.count a);
                  Alcotest.(check bool) "samples" true (Series.samples a = Series.samples b);
                  Alcotest.(check bool) "sample times bits" true
                    (bits_of_times a = bits_of_times b);
                  (* the last sample is the horizon, so both close there *)
                  Alcotest.(check (list int64)) "time averages bits" (bits_of_averages a)
                    (bits_of_averages b)
              | Error msg, _ | _, Error msg -> Alcotest.failf "read_file failed: %s" msg);
              run_p2psim ~stdout:out1 [ "report"; v1_fixture ];
              run_p2psim ~stdout:out2 [ "report"; v2 ];
              Alcotest.(check string) "report renders both alike" (read_file out1)
                (read_file out2))))

(* Every time average's bits, pinned on three series: the version 1
   fixture; a version 2 syndrome series at grid 0.05, whose rarest piece
   sits at 0 copies so most samples repeat, written and read back; and a
   stable flash crowd with seed dwell (every signal moves) on a
   non-dyadic grid (0.7), closed at the horizon 50, past its last sample
   at 49.7.  The values are the ones per-signal [Timeavg]
   accumulators gave, so a rewrite of how the averages are taken must
   keep every bit. *)
let test_series_averages_pinned () =
  let check name s expected =
    Alcotest.(check (list string)) (name ^ ": time averages bits") expected
      (List.map (Printf.sprintf "%Lx") (bits_of_averages s))
  in
  let probed params ~interval ~horizon ~seed =
    let series = Series.create ~k:3 ~interval in
    let probe = Probe.make ~interval ~on_sample:(Series.record series) () in
    ignore (Sim_markov.run_seeded ~probe ~seed (Sim_markov.default_config params) ~horizon);
    Series.close series ~time:horizon;
    series
  in
  (* N, seeds, one-club, rarest copies, then each piece *)
  let version_1 =
    [ "405506e147ae147b"; "0"; "40547cf5c28f5c29"; "0";
      "4054b1999999999a"; "0"; "4054973333333333" ]
  and version_2 =
    [ "404995ddddddde22"; "0"; "4048691111111134"; "0";
      "4048f62fc962fcc1"; "0"; "40488fae147ae162" ]
  and closed_bits =
    [ "403766e978d4fdf4"; "3fe5810624dd2f24"; "40318395810624df"; "3feae147ae147aec";
      "403336c8b4395811"; "3ff020c49ba5e35a"; "4033cb4395810624" ]
  in
  (match Series.read_file v1_fixture with
  | Error msg -> Alcotest.failf "read_file failed: %s" msg
  | Ok v1 -> check "version 1 fixture" v1 version_1);
  let repeats =
    probed (Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity)
      ~interval:0.05 ~horizon:60.0 ~seed:1
  in
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> Series.write repeats oc);
      (* a header and fewer rows than samples: some rows are runs *)
      Alcotest.(check bool) "version 2: rows with repeats" true
        (List.length (lines_of (read_file path)) - 1 < Series.count repeats);
      match Series.read_file path with
      | Error msg -> Alcotest.failf "read_file failed: %s" msg
      | Ok back ->
          check "version 2, recorded" repeats version_2;
          check "version 2, read back" back version_2);
  let closed =
    probed (Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.8 ~mu:1.0 ~gamma:2.0) ~interval:0.7
      ~horizon:50.0 ~seed:3
  in
  let samples = Series.samples closed in
  Alcotest.(check bool) "the last sample is before the close" true
    (samples.(Array.length samples - 1).Probe.time < 50.0);
  check "closed past its last sample" closed closed_bits

(* ---- one pass over the stored runs ---- *)

(* A sample as its time's bits and its counts. *)
let sample_bits time (x : Probe.sample) =
  ( Int64.bits_of_float time,
    [ x.Probe.n; x.seeds; x.one_club; x.rarest_piece; x.rarest_count ],
    Array.to_list x.piece_counts )

let iterated s =
  let out = ref [] in
  Series.iter s (fun (at : Series.cursor) x -> out := sample_bits at.time x :: !out);
  List.rev !out

let expanded samples =
  List.map (fun (x : Probe.sample) -> sample_bits x.Probe.time x) (Array.to_list samples)

(* [iter] yields, in order, one call per sample with its time bit for bit
   and its counts: what [samples] re-expands and, independently, the
   samples the probe recorded. *)
let test_series_iter_matches_samples () =
  let check name ?recorded s =
    let got = iterated s in
    Alcotest.(check int) (name ^ ": one call per sample") (Series.count s) (List.length got);
    Alcotest.(check bool) (name ^ ": = samples") true (got = expanded (Series.samples s));
    Option.iter
      (fun r -> Alcotest.(check bool) (name ^ ": = the recorded samples") true (got = expanded r))
      recorded
  in
  let read_back s =
    with_temp_file (fun path ->
        let oc = open_out_bin path in
        Series.write s oc;
        close_out oc;
        match Series.read_file path with Ok s -> s | Error msg -> Alcotest.failf "read: %s" msg)
  in
  (* The syndrome run of [v1_fixture] and, at grid 0.05, a version 2
     series, recorded in process. *)
  let syndrome ~interval ~horizon =
    let params = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity in
    let series = Series.create ~k:3 ~interval and recorded = ref [] in
    let on_sample x = recorded := x :: !recorded; Series.record series x in
    let probe = Probe.make ~interval ~on_sample () in
    ignore (Sim_markov.run_seeded ~probe ~seed:1 (Sim_markov.default_config params) ~horizon);
    Series.close series ~time:horizon;
    (series, Array.of_list (List.rev !recorded))
  in
  (match Series.read_file v1_fixture with
  | Error msg -> Alcotest.failf "read_file failed: %s" msg
  | Ok v1 -> check "version 1 fixture" ~recorded:(snd (syndrome ~interval:0.25 ~horizon:100.0)) v1);
  let series, recorded = syndrome ~interval:0.05 ~horizon:150.0 in
  check "syndrome, recorded" ~recorded series;
  check "syndrome, read back" ~recorded (read_back series);
  (* a series whose last run has repeats *)
  let tail = Series.create ~k:2 ~interval:0.5 in
  let recorded =
    Array.of_list
      (mk_sample ~time:0.0 ~n:1 ~club:0 ~pieces:[| 0; 1 |]
      :: List.init 4 (fun i ->
             mk_sample ~time:(0.5 *. float_of_int (i + 1)) ~n:2 ~club:1 ~pieces:[| 1; 1 |]))
  in
  Array.iter (Series.record tail) recorded;
  Series.close tail ~time:2.0;
  check "ends in a run" ~recorded tail;
  check "ends in a run, read back" ~recorded (read_back tail);
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Series.write tail oc;
      close_out oc;
      let _, r, _ = List.nth (rows_of_file ~k:2 path) 1 in
      Alcotest.(check int) "the last row is a run of 3 repeats" 3 r);
  let empty = Series.create ~k:3 ~interval:1.0 in
  check "empty" ~recorded:[||] empty;
  check "empty, read back" ~recorded:[||] (read_back empty)

(* The repeat path of [iter] is a float add and a call. *)
let test_series_iter_alloc_free () =
  let interval = 0.05 in
  let s = Series.create ~k:3 ~interval in
  let time = ref 0.0 in
  for i = 0 to 10_000 do
    if i > 0 then time := !time +. interval;
    Series.record s (mk_sample ~time:!time ~n:7 ~club:5 ~pieces:[| 0; 5; 7 |])
  done;
  let sum = [| 0.0 |] and calls = ref 0 in
  let f (at : Series.cursor) (x : Probe.sample) =
    sum.(0) <- sum.(0) +. at.time;
    calls := !calls + x.Probe.one_club
  in
  let before = Gc.minor_words () in
  Series.iter s f;
  let grown = Gc.minor_words () -. before in
  (* one word per sample would show as >= 10k words *)
  Alcotest.(check bool)
    (Printf.sprintf "10k repeats allocate nothing (%g words, ceiling 32)" grown)
    true (grown <= 32.0);
  Alcotest.(check int) "one call per sample" (5 * 10_001) !calls;
  let expected = ref 0.0 and time = ref 0.0 in
  for i = 0 to 10_000 do
    if i > 0 then time := !time +. interval;
    expected := !expected +. !time
  done;
  Alcotest.(check int64) "the times, bit for bit" (Int64.bits_of_float !expected)
    (Int64.bits_of_float sum.(0))

(* [report] on series that span no time: 20 rows at t = 1 (version 1
   and 2) and a version 2 header alone.  No growth fit is possible and
   every average is nan, so [report] says so, exits 0 and marks no piece
   rarest. *)
let test_cli_report_timeless_series () =
  let row = {|{"t":1,"n":5,"seeds":0,"club":3,"rarest":1,"rarest_n":0,"pieces":[0,3,5]}|} in
  let rows = String.concat "" (List.init 20 (fun _ -> row ^ "\n")) in
  let header v rest = Printf.sprintf {|{"schema":"p2p-swarm-probe","version":%d,"k":3%s}|} v rest in
  List.iter
    (fun (name, content, expected) ->
      with_temp_file (fun path ->
          with_temp_file (fun out ->
              Out_channel.with_open_bin path (fun oc -> output_string oc content);
              run_p2psim ~stdout:out [ "report"; path ];
              let lines = lines_of (read_file out) in
              List.iter
                (fun line ->
                  Alcotest.(check bool) (Printf.sprintf "%s: prints %S" name line) true
                    (List.mem line lines))
                expected;
              Alcotest.(check bool) (name ^ ": no piece marked rarest") false
                (List.exists
                   (fun l ->
                     let rec at i =
                       i + 9 <= String.length l && (String.sub l i 9 = "<- rarest" || at (i + 1))
                     in
                     at 0)
                   lines))))
    [
      ( "version 1, 20 rows at t = 1",
        header 1 "" ^ "\n" ^ rows,
        [ "the last 10 samples are at one time; no growth fit"; "detector quiet over the whole series" ] );
      ( "version 2, 20 rows at t = 1",
        header 2 {|,"interval":0.5,"end":1|} ^ "\n" ^ rows,
        [ "the last 10 samples are at one time; no growth fit" ] );
      ( "version 2 header alone",
        header 2 {|,"interval":0.5,"end":0|} ^ "\n",
        [ "only 0 samples; need at least 16 for a growth fit"; "no samples to replay" ] );
    ]

(* [report] prints an [--alerts-out] timeline's alerts in the detector's
   own format: the lines equal those of the replay of the same run's
   series. *)
let test_cli_report_alerts_file () =
  with_temp_file (fun series ->
      with_temp_file (fun alerts ->
          with_temp_file (fun out1 ->
              with_temp_file (fun out2 ->
                  run_p2psim
                    [ "simulate"; "-k"; "3"; "--us"; "0.3"; "--mu"; "2"; "--gamma"; "inf"; "-a";
                      "none=2"; "-t"; "150"; "--seed"; "1"; "--probe-interval"; "0.05";
                      "--metrics-out"; series; "--alerts-out"; alerts ];
                  run_p2psim ~stdout:out1 [ "report"; alerts ];
                  run_p2psim ~stdout:out2 [ "report"; series ];
                  let alert_lines file =
                    List.filter
                      (String.starts_with ~prefix:"  missing_piece_syndrome at ")
                      (lines_of (read_file file))
                  in
                  Alcotest.(check int) "54 alerts" 54 (List.length (alert_lines out1));
                  Alcotest.(check (list string)) "timeline = replay" (alert_lines out2)
                    (alert_lines out1)))))

(* [simulate --agent] with a sparse overlay or peer classes prints what
   the per-peer backend's former [overlay] and [hetero] commands printed
   for the same arguments: the figures below were recorded from them.
   Each expected line must appear in stdout, blanks squeezed; a verdict
   line may go on past the expected text. *)
let test_cli_agent_equivalence () =
  let stdout_lines args =
    with_temp_file (fun path ->
        let out = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid = Unix.create_process p2psim (Array.of_list (p2psim :: args)) Unix.stdin out devnull in
        Unix.close out;
        Unix.close devnull;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.failf "p2psim %s failed" (String.concat " " args));
        List.map
          (fun l -> String.concat " " (List.filter (( <> ) "") (String.split_on_char ' ' l)))
          (lines_of (read_file path)))
  in
  List.iter
    (fun (args, expected) ->
      let lines = stdout_lines args in
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: prints %S" (String.concat " " args) e)
            true
            (List.exists (fun l -> l = e || String.starts_with ~prefix:(e ^ " (") l) lines))
        expected)
    [
      ( [ "simulate"; "--agent"; "-k"; "3"; "--us"; "0.8"; "--gamma"; "2"; "-a"; "none=0.9";
          "--degree"; "4"; "--seed"; "3"; "-t"; "500" ],
        [ "transfers : 1411"; "time-avg N : 7.628"; "silent contacts : 2907";
          "mean overlay degree : 3.489"; "components at end : 1";
          "empirical verdict: appears-stable" ] );
      ( [ "simulate"; "--agent"; "-k"; "3"; "--us"; "0.4"; "-c"; "fast=3,6,0.3"; "-c";
          "slow=0.3,0.6,0.3"; "-t"; "500" ],
        [ "heuristic verdict : positive-recurrent"; "m_bar (seed branching) : 0.5";
          "heuristic threshold : 0.8"; "time-avg N : 12.79"; "fast 6.376 21.19";
          "slow 6.417 22.15"; "empirical verdict: appears-stable" ] );
    ]

(* Invalid model parameters are usage errors: exit 124 (as for a
   malformed flag) with a message naming the value, never an uncaught
   exception; so is a per-peer flag without the flag it needs, and an
   explicit --mu, --gamma or --arrive beside the --class that replaces it. *)
let test_cli_model_errors () =
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (args, expected) ->
      with_temp_file (fun path ->
          let err = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
          let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process p2psim (Array.of_list (p2psim :: args)) Unix.stdin devnull err
          in
          Unix.close devnull;
          Unix.close err;
          let name = String.concat " " args in
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED code -> Alcotest.(check int) (name ^ ": exit status") 124 code
          | _ -> Alcotest.failf "%s: p2psim did not exit" name);
          let msg = read_file path in
          Alcotest.(check bool) (Printf.sprintf "%s: message names %S" name expected) true
            (contains msg expected);
          Alcotest.(check bool) (name ^ ": no internal error") false
            (contains msg "internal error")))
    [
      ([ "simulate"; "-k"; "0" ], "k must be in [1, 62], got 0");
      ([ "simulate"; "--mu"; "0" ], "mu must be finite > 0, got 0");
      ([ "simulate"; "-a"; "none=-1" ], "got -1");
      ( [ "simulate"; "--agent"; "-c"; "x=0,1,1" ],
        "class \"x\": mu must be finite > 0, got 0" );
      ([ "simulate"; "--degree"; "4" ], "--agent");
      ([ "simulate"; "-c"; "fast=3,6,0.3" ], "--agent");
      ([ "simulate"; "--agent"; "--policy"; "rarest-local" ], "--degree");
      ([ "simulate"; "--agent"; "--mu"; "5"; "-c"; "a=1,2,1" ], "drop --mu");
      ([ "simulate"; "--agent"; "--gamma"; "0.1"; "-c"; "a=1,2,1" ], "drop --gamma");
      ([ "simulate"; "--agent"; "-a"; "none=9"; "-c"; "a=1,2,1" ], "drop --arrive");
      ([ "exact"; "--n-max"; "0" ], "n_max must be >= 1");
      ([ "exact"; "-k"; "4"; "--n-max"; "60" ], "state space too large");
      ([ "reachable"; "--n-max"; "0" ], "n_max must be >= 1");
      ( [ "coded"; "--sim"; "-q"; "16"; "-k"; "3"; "-f"; "2" ],
        "arrival rates must be nonnegative with positive sum" );
      ([ "borderline"; "-k"; "0" ], "k must be >= 2");
      ([ "simulate"; "-t"; "0" ], "horizon must be a finite positive time");
      ([ "simulate"; "-t"; "nan" ], "horizon must be a finite positive time");
      ([ "coded"; "--horizon=-5" ], "horizon must be a finite positive time");
      ([ "fluid"; "--horizon"; "inf" ], "horizon must be a finite positive time");
      ([ "coded"; "-q"; "6" ], "q must be a prime power, got 6");
      ([ "coded"; "-q"; "6"; "--sim" ], "q must be a prime power, got 6");
    ]

(* [exact] at its defaults solves a stable swarm within the space guard.
   Its mass at the cap falls below the solver's tolerance there, so it
   prints as a bound, not as noise digits. *)
let test_cli_exact_defaults () =
  with_temp_file (fun path ->
      run_p2psim ~stdout:path [ "exact" ];
      Alcotest.(check bool) "mass at cap printed as a bound" true
        (List.mem "  mass at cap (bias check) : < 1e-10" (lines_of (read_file path))))

(* ---- the missing-piece-syndrome monitor ---- *)

let run_monitored ~params ~horizon ~seed =
  let m = Monitor.create () in
  let probe =
    (* the CLI's default grid: 200 samples per run *)
    Probe.make ~interval:(horizon /. 200.0)
      ~on_sample:(fun (s : Probe.sample) ->
        Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
          ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
      ()
  in
  let stats, _ = Sim_markov.run_seeded ~probe ~seed (Sim_markov.default_config params) ~horizon in
  (m, stats)

(* The Theorem 1 boundary (Zhu & Hajek): with instant departures the
   swarm is unstable iff λ > U_s.  The detector must fire on the
   unstable side — one piece pinned scarce while the one-club grows
   linearly — and stay silent on a comfortably stable swarm. *)
let test_monitor_verdict_flips_across_boundary () =
  let unstable = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity in
  let m_bad, stats = run_monitored ~params:unstable ~horizon:60.0 ~seed:5 in
  Alcotest.(check bool) "samples flowed" true (Monitor.samples_seen m_bad > 100);
  Alcotest.(check bool) "unstable side alerts" true (List.length (Monitor.alerts m_bad) >= 1);
  Alcotest.(check bool) "an episode opened" true (List.length (Monitor.episodes m_bad) >= 1);
  Alcotest.(check bool) "the swarm really blew up" true (stats.Sim_markov.final_n > 30);
  let a = List.hd (Monitor.alerts m_bad) in
  Alcotest.(check bool) "alert carries the syndrome shape" true
    (a.Monitor.one_club >= 8 && a.Monitor.rarest_count <= 2 && a.Monitor.slope > 0.0
   && a.Monitor.t_stat >= 4.0
    && a.Monitor.rarest_piece >= 0
    && a.Monitor.rarest_piece < 3);
  (* same contact and departure dynamics, λ on the stable side of U_s *)
  let stable = Scenario.flash_crowd ~k:3 ~lambda:0.5 ~us:2.0 ~mu:2.0 ~gamma:infinity in
  let m_ok, _ = run_monitored ~params:stable ~horizon:60.0 ~seed:5 in
  Alcotest.(check bool) "samples flowed" true (Monitor.samples_seen m_ok > 100);
  Alcotest.(check int) "stable side stays silent" 0 (List.length (Monitor.alerts m_ok))

let test_monitor_on_alert_once_per_episode () =
  let fired = ref 0 in
  let m = Monitor.create ~on_alert:(fun _ -> incr fired) () in
  let probe =
    Probe.make ~interval:0.3
      ~on_sample:(fun (s : Probe.sample) ->
        Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
          ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
      ()
  in
  let params = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity in
  let _ = Sim_markov.run_seeded ~probe ~seed:5 (Sim_markov.default_config params) ~horizon:60.0 in
  Alcotest.(check int) "hook fires once per episode" (List.length (Monitor.episodes m)) !fired

(* The detector keeps its window in preallocated arrays: a sample whose
   window fails the scarcity test allocates nothing, and one that passes
   allocates only the fit (and, while alerting, its slope/t-stat pair). *)
let test_monitor_observe_alloc () =
  let words_per_sample ~rarest_count =
    let m = Monitor.create () in
    let samples =
      Array.init 10_000 (fun i ->
          mk_sample ~time:(float_of_int i) ~n:(100 + i) ~club:(50 + i)
            ~pieces:[| rarest_count; 100; 100 |])
    in
    let feed (s : Probe.sample) =
      Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
        ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count
    in
    Array.iter feed (Array.sub samples 0 100);
    let before = Gc.minor_words () in
    for i = 100 to 9_999 do
      feed samples.(i)
    done;
    let grown = Gc.minor_words () -. before in
    (grown /. 9_900.0, List.length (Monitor.alerts m))
  in
  let quiet, quiet_alerts = words_per_sample ~rarest_count:50 in
  Alcotest.(check int) "quiet window raises nothing" 0 quiet_alerts;
  Alcotest.(check bool)
    (Printf.sprintf "quiet samples allocate nothing (%.4f words each)" quiet)
    true (quiet *. 9_900.0 <= 16.0);
  let pinned, pinned_alerts = words_per_sample ~rarest_count:0 in
  Alcotest.(check int) "pinned, growing window raises one alert" 1 pinned_alerts;
  Alcotest.(check bool)
    (Printf.sprintf "pinned samples allocate one fit (%.2f words each)" pinned)
    true (pinned <= 32.0)

(* Full instrumentation — recorder, hists, and monitor all attached —
   must leave the trajectory bit-identical to a bare run: probes never
   touch the sim RNG and detectors ride the sample grid. *)
let test_full_instrumentation_bit_identity () =
  let config = faulty_config_markov () in
  let bare, _ = Sim_markov.run_seeded ~seed:99 config ~horizon:250.0 in
  let m = Monitor.create () in
  let probe =
    Probe.make ~interval:5.0
      ~on_sample:(fun (s : Probe.sample) ->
        Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
          ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
      ~recorder:(Recorder.create ()) ~hists:(Hist.group ()) ()
  in
  let probed, _ = Sim_markov.run_seeded ~probe ~seed:99 config ~horizon:250.0 in
  check_markov_stats_equal "fully instrumented" bare probed;
  Alcotest.(check bool) "the monitor saw the run" true (Monitor.samples_seen m > 0)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float bit-exact" `Quick test_json_float_bit_exact;
          Alcotest.test_case "float text = Printf %g" `Quick test_json_float_matches_printf;
          Alcotest.test_case "float text = Printf %g, 2M values" `Slow
            test_json_float_matches_printf_many;
          Alcotest.test_case "int text = string_of_int" `Quick test_json_add_int;
          Alcotest.test_case "non-finite as null" `Quick test_json_nonfinite_as_null;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl format" `Quick test_trace_jsonl;
          Alcotest.test_case "chrome format" `Quick test_trace_chrome;
          Alcotest.test_case "a dump is the log's tail" `Quick test_trace_dump_is_log_tail;
        ] );
      ( "probe",
        [
          Alcotest.test_case "none is inert" `Quick test_probe_none_is_inert;
          Alcotest.test_case "make validation" `Quick test_probe_make_validation;
          Alcotest.test_case "sample construction" `Quick test_probe_sample_construction;
          Alcotest.test_case "event names serialise" `Quick test_probe_event_names;
        ] );
      ( "probe-sim",
        [
          Alcotest.test_case "markov bit-identity under probes" `Quick
            test_markov_probe_bit_identity;
          Alcotest.test_case "agent bit-identity under probes" `Quick test_agent_probe_bit_identity;
          Alcotest.test_case "grid rides sim time" `Quick test_probe_grid_is_sim_time;
          Alcotest.test_case "interval longer than run" `Quick test_probe_interval_longer_than_run;
          Alcotest.test_case "samples deterministic" `Quick test_probe_samples_deterministic;
          Alcotest.test_case "markov probe reuse is never stale" `Quick
            test_markov_probe_reuse_is_fresh;
        ] );
      ( "series",
        [
          Alcotest.test_case "time-weighted averages" `Quick test_series_averages;
          Alcotest.test_case "file roundtrip" `Quick test_series_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_series_read_rejects_garbage;
          Alcotest.test_case "read path pinned on a syndrome run" `Quick test_series_read_pinned;
          Alcotest.test_case "reader row contract" `Quick test_series_read_row_contract;
          Alcotest.test_case "roundtrip across regimes" `Quick test_series_roundtrip_regimes;
          Alcotest.test_case "repeat allocates nothing" `Quick test_series_repeat_alloc_free;
          Alcotest.test_case "reads a version 1 file" `Quick test_series_reads_v1;
          Alcotest.test_case "iter yields the samples" `Quick test_series_iter_matches_samples;
          Alcotest.test_case "time averages pinned" `Quick test_series_averages_pinned;
          Alcotest.test_case "iter allocates nothing" `Quick test_series_iter_alloc_free;
          Alcotest.test_case "first-record dispatch contract" `Quick test_first_record_contract;
          Alcotest.test_case "version 3 round trip is lossless" `Quick test_series_v3_lossless;
          Alcotest.test_case "hybrid non-dyadic grid: one keyed row" `Quick
            test_series_hybrid_one_keyed_row;
        ] );
      ( "jobs-independence",
        [
          Alcotest.test_case "probe series identical across jobs" `Quick
            test_probe_series_jobs_independent;
        ] );
      ( "progress",
        [
          Alcotest.test_case "silent" `Quick test_progress_silent;
          Alcotest.test_case "counters and final line" `Quick test_progress_counters_and_final_line;
        ] );
      ( "profile",
        [
          Alcotest.test_case "disabled" `Quick test_profile_disabled;
          Alcotest.test_case "phases" `Quick test_profile_phases;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic nondecreasing" `Quick test_clock_nondecreasing ] );
      ( "hist",
        [
          Alcotest.test_case "bucket bounds and tails" `Quick test_hist_bucket_bounds;
          Alcotest.test_case "record allocates nothing" `Quick test_hist_record_alloc_free;
          Alcotest.test_case "record_unit is record 1.0" `Quick test_hist_record_unit_equiv;
          Alcotest.test_case "group file roundtrip" `Quick test_hist_group_file_roundtrip;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "capacity rounds to a power of two" `Quick
            test_recorder_pow2_capacity;
          Alcotest.test_case "dump at every fill level" `Quick test_recorder_dump_every_fill_level;
          Alcotest.test_case "record allocates nothing" `Quick test_recorder_record_alloc_free;
          Alcotest.test_case "disabled is inert" `Quick test_recorder_disabled_inert;
          Alcotest.test_case "auto-snapshot leaves a parseable ring" `Quick
            test_recorder_auto_snapshot;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "trace rows match recorder rows" `Quick
            test_trace_rows_match_recorder;
          Alcotest.test_case "cli trace golden" `Quick test_cli_trace_golden;
          Alcotest.test_case "cli report renders a trace" `Quick test_cli_report_renders_trace;
          Alcotest.test_case "cli series golden" `Quick test_cli_series_golden;
          Alcotest.test_case "cli report on a series spanning no time" `Quick
            test_cli_report_timeless_series;
          Alcotest.test_case "cli report of an alert timeline" `Quick test_cli_report_alerts_file;
          Alcotest.test_case "cli agent overlay and classes" `Quick test_cli_agent_equivalence;
        ] );
      ( "cli",
        [
          Alcotest.test_case "model errors are usage errors" `Quick test_cli_model_errors;
          Alcotest.test_case "exact runs at its defaults" `Quick test_cli_exact_defaults;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "verdict flips across the Theorem 1 boundary" `Quick
            test_monitor_verdict_flips_across_boundary;
          Alcotest.test_case "on_alert fires once per episode" `Quick
            test_monitor_on_alert_once_per_episode;
          Alcotest.test_case "observe allocates only a passing fit" `Quick
            test_monitor_observe_alloc;
          Alcotest.test_case "full instrumentation bit-identity" `Quick
            test_full_instrumentation_bit_identity;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "jsonl truncation at every offset" `Quick
            test_jsonl_truncation_at_every_offset;
          Alcotest.test_case "valid-looking tail is remnant" `Quick
            test_jsonl_valid_looking_tail_is_remnant;
          Alcotest.test_case "interior corruption is error" `Quick
            test_jsonl_interior_corruption_is_error;
          Alcotest.test_case "blank lines skipped" `Quick test_jsonl_blank_lines_skipped;
          Alcotest.test_case "write_file_atomic" `Quick test_write_file_atomic_basic;
          Alcotest.test_case "writer raise leaves target" `Quick
            test_write_file_atomic_writer_raise_leaves_target;
          Alcotest.test_case "read_jsonl_file with torn tail" `Quick
            test_read_jsonl_file_roundtrip;
        ] );
    ]
