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
module Trace = P2p_obs.Trace
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

(* Float emission calls the C routine behind Printf's %g directly; it
   must stay byte-identical to the Printf formulation it replaced, here
   restated as the reference, on random bit patterns and edge cases. *)
let test_json_float_matches_printf () =
  let reference f =
    let shortest = Printf.sprintf "%.15g" f in
    let s = if float_of_string shortest = f then shortest else Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then s
    else s ^ ".0"
  in
  let check f =
    Alcotest.(check string) (Printf.sprintf "%h" f) (reference f) (Json.to_string (Json.Float f))
  in
  List.iter check [ 0.1 +. 0.2; -0.0; 0.0; 5e-324; 1e22; 3.0; 1e-7; -1.5e300; 0.05 *. 3.0 ];
  let rng = P2p_prng.Rng.of_seed 99 in
  for _ = 1 to 20_000 do
    let f = Int64.float_of_bits (P2p_prng.Rng.bits64 rng) in
    if Float.is_finite f then check f;
    (* and values on a probe grid's scale *)
    check (P2p_prng.Rng.float rng *. 1500.0)
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

(* ---- Trace ---- *)

let test_trace_jsonl () =
  with_temp_file (fun path ->
      let tr = Trace.to_file path in
      Alcotest.(check bool) "enabled" true (Trace.enabled tr);
      Trace.emit tr ~time:1.5 ~name:"arrival" ~args:[ ("pieces", Json.Int 0) ];
      Trace.emit tr ~time:2.0 ~name:"transfer" ~args:[ ("piece", Json.Int 2) ];
      Trace.close tr;
      Trace.close tr;
      (* idempotent *)
      Alcotest.(check int) "events_written" 2 (Trace.events_written tr);
      let lines = lines_of (read_file path) in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun line ->
          let v = Json.of_string_exn line in
          Alcotest.(check bool) "has t" true (Json.member "t" v <> None);
          Alcotest.(check bool) "has ev" true (Json.member "ev" v <> None))
        lines)

let test_trace_chrome () =
  let path = Filename.temp_file "p2p_obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let tr = Trace.to_file path in
      Trace.emit tr ~time:0.5 ~name:"arrival" ~args:[];
      Trace.emit_span tr ~start:0.0 ~dur:1.0 ~name:"event-loop";
      Trace.close tr;
      (* the whole file must be one valid JSON array (chrome://tracing) *)
      match Json.of_string_exn (read_file path) with
      | Json.List entries ->
          Alcotest.(check int) "array length = events written" (Trace.events_written tr)
            (List.length entries);
          let phs =
            List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt) entries
          in
          Alcotest.(check bool) "instant event present" true (List.mem "i" phs);
          Alcotest.(check bool) "span event present" true (List.mem "X" phs);
          let ts =
            List.filter_map (fun e -> Option.bind (Json.member "ts" e) Json.to_float_opt) entries
          in
          (* sim time 0.5 s -> 5e5 microseconds *)
          Alcotest.(check bool) "ts in microseconds" true (List.mem 500000.0 ts)
      | _ -> Alcotest.fail "chrome trace should parse as a JSON array")

let test_trace_null_sink () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null ~time:0.0 ~name:"x" ~args:[];
  Trace.close Trace.null;
  Alcotest.(check int) "null counts nothing" 0 (Trace.events_written Trace.null)

(* ---- Probe ---- *)

let test_probe_none_is_inert () =
  Alcotest.(check bool) "none does not trace" false Probe.none.Probe.tracing;
  Alcotest.(check bool) "none does not sample" false (Probe.sampling Probe.none);
  (* calling the hooks anyway is harmless *)
  Probe.event Probe.none ~time:1.0 (Probe.Transfer_lost);
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
  let p = Probe.make ~on_event:(fun ~time:_ _ -> ()) () in
  Alcotest.(check bool) "on_event implies tracing" true p.Probe.tracing;
  Alcotest.(check bool) "no interval means no sampling" false (Probe.sampling p);
  let q = Probe.make ~interval:2.0 () in
  Alcotest.(check bool) "interval means sampling" true (Probe.sampling q);
  Alcotest.(check bool) "no on_event means no tracing" false q.Probe.tracing

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

let test_probe_event_names () =
  let named ev = Probe.event_name ev in
  Alcotest.(check string) "arrival" "arrival" (named (Probe.Arrival { pieces = Pieceset.empty }));
  Alcotest.(check string) "seed toggle" "seed_toggle" (named (Probe.Seed_toggle { up = false }));
  (* every event's args serialise *)
  List.iter
    (fun ev -> ignore (Json.to_string (Json.Obj (Probe.event_args ev))))
    [
      Probe.Arrival { pieces = Pieceset.singleton 0 };
      Probe.Contact { seed = true; useful = false };
      Probe.Transfer { piece = 1; completed = true };
      Probe.Transfer_lost;
      Probe.Departure { kind = Probe.Completed };
      Probe.Departure { kind = Probe.Aborted };
      Probe.Departure { kind = Probe.Seed_departed };
      Probe.Seed_toggle { up = true };
    ]

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

let busy_probe () =
  (* listens to everything, into throwaway sinks *)
  let series = Series.create ~k:3 in
  let events = ref 0 in
  ( Probe.make ~interval:7.0
      ~on_event:(fun ~time:_ _ -> incr events)
      ~on_sample:(Series.record series)
      ~profile:(Profile.create ()) (),
    events )

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
  let probe, events = busy_probe () in
  let probed, _ = Sim_markov.run_seeded ~probe ~seed:77 config ~horizon:250.0 in
  check_markov_stats_equal "markov" bare probed;
  Alcotest.(check bool) "the probe actually saw traffic" true (!events > 0)

let test_agent_probe_bit_identity () =
  let config = faulty_config_agent () in
  let bare, _ = Sim_agent.run_seeded ~seed:77 config ~horizon:250.0 in
  let probe, events = busy_probe () in
  let probed, _ = Sim_agent.run_seeded ~probe ~seed:77 config ~horizon:250.0 in
  Alcotest.(check int) "agent events" bare.Sim_agent.events probed.Sim_agent.events;
  Alcotest.(check int) "agent transfers" bare.Sim_agent.transfers probed.Sim_agent.transfers;
  Alcotest.(check int) "agent departures" bare.Sim_agent.departures probed.Sim_agent.departures;
  Alcotest.(check int) "agent final_n" bare.Sim_agent.final_n probed.Sim_agent.final_n;
  Alcotest.(check bool)
    "agent time_avg_n bit-identical" true
    (Int64.bits_of_float bare.Sim_agent.time_avg_n
    = Int64.bits_of_float probed.Sim_agent.time_avg_n);
  Alcotest.(check bool)
    "agent mean_sojourn bit-identical" true
    (Int64.bits_of_float bare.Sim_agent.mean_sojourn
    = Int64.bits_of_float probed.Sim_agent.mean_sojourn);
  Alcotest.(check bool) "agent sample grid" true (bare.Sim_agent.samples = probed.Sim_agent.samples);
  Alcotest.(check bool) "the probe actually saw traffic" true (!events > 0)

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
  let series = Series.create ~k:3 in
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
    (Int64.bits_of_float (Series.avg_n a) = Int64.bits_of_float (Series.avg_n b))

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
      ignore (Series.create ~k:0));
  let s = Series.create ~k:2 in
  Alcotest.(check bool) "avg before time elapses is nan" true (Float.is_nan (Series.avg_n s));
  Series.record s (mk_sample ~time:0.0 ~n:2 ~club:0 ~pieces:[| 1; 1 |]);
  Series.record s (mk_sample ~time:10.0 ~n:6 ~club:4 ~pieces:[| 1; 5 |]);
  Series.close s ~time:20.0;
  (* n: 2 for 10 time units then 6 for 10 -> 4.0; club: 0 then 4 -> 2.0 *)
  Alcotest.(check (float 1e-12)) "time-weighted avg n" 4.0 (Series.avg_n s);
  Alcotest.(check (float 1e-12)) "time-weighted avg one-club" 2.0 (Series.avg_one_club s);
  Alcotest.(check (float 1e-12)) "per-piece avg" 3.0 (Series.avg_piece s 1);
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
          (* the reader closes at the last sample time, not the writer's
             horizon; re-close at the horizon and the averages agree *)
          Series.close s' ~time:150.0;
          Alcotest.(check bool)
            "avg_n bit-identical after re-close" true
            (Int64.bits_of_float (Series.avg_n s) = Int64.bits_of_float (Series.avg_n s')))

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
    "{\"schema\": \"p2p-swarm-probe\", \"version\": 1, \"k\": 3}\nnot json\n"

(* ---- jobs-independence of per-replication probe series (satellite b) ---- *)

let probe_sweep ~jobs =
  let module Runner = P2p_runner.Runner in
  let results, _ =
    Runner.run_map ~jobs ~chunk:2 ~master_seed:424242 ~replications:6 (fun ~rng ~index:_ ->
        let series = Series.create ~k:3 in
        let probe = Probe.make ~interval:4.0 ~on_sample:(Series.record series) () in
        let stats, _ = Sim_markov.run ~probe ~rng (faulty_config_markov ()) ~horizon:100.0 in
        Series.close series ~time:100.0;
        (stats.Sim_markov.events, Series.samples series, Series.avg_n series))
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
  Profile.record_s Profile.disabled "phase" 1.0;
  Alcotest.(check bool) "no phases recorded" true (Profile.phases Profile.disabled = []);
  Alcotest.(check (float 0.0)) "total zero" 0.0 (Profile.total_s Profile.disabled)

let test_profile_phases () =
  let p = Profile.create () in
  Profile.time p "setup" (fun () -> ());
  Profile.time p "event-loop" (fun () -> ());
  Profile.time p "event-loop" (fun () -> ());
  Profile.record_s p "finalise" 0.25;
  let phases = Profile.phases p in
  Alcotest.(check (list string))
    "phases sorted by name"
    [ "event-loop"; "finalise"; "setup" ]
    (List.map fst phases);
  let _, (loop_s, loop_n) = List.nth phases 0 in
  Alcotest.(check int) "event-loop entered twice" 2 loop_n;
  Alcotest.(check bool) "durations nonnegative" true (loop_s >= 0.0);
  let _, (fin_s, _) = List.nth phases 1 in
  Alcotest.(check (float 1e-12)) "record_s credits directly" 0.25 fin_s;
  Alcotest.(check bool) "total covers the direct credit" true (Profile.total_s p >= 0.25);
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

let random_hist seed n =
  let rng = Rng.of_seed seed in
  let h = Hist.create () in
  for _ = 1 to n do
    Hist.record h (Float.ldexp (Rng.float rng) (Rng.int_below rng 40 - 20))
  done;
  h

(* Integral-part equality: buckets, count, min/max.  The running [sum]
   is a float accumulator, associative only up to rounding, so it gets
   a tolerance instead. *)
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

let test_hist_merge_laws () =
  let a = random_hist 1 500 and b = random_hist 2 300 and c = random_hist 3 800 in
  check_hist_equal "associative" (Hist.merge (Hist.merge a b) c) (Hist.merge a (Hist.merge b c));
  check_hist_equal "commutative" (Hist.merge a b) (Hist.merge b a);
  check_hist_equal "disabled is a right zero" (Hist.merge a Hist.disabled) a;
  check_hist_equal "disabled is a left zero" (Hist.merge Hist.disabled a) a;
  check_hist_equal "empty live hist is a zero" (Hist.merge a (Hist.create ())) a;
  let into = Hist.create () in
  Hist.merge_into ~into a;
  Hist.merge_into ~into b;
  check_hist_equal "merge_into agrees with merge" into (Hist.merge a b)

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
      Recorder.record r ~time:(float_of_int i) ~code:(i mod Probe.n_event_codes) ~a:i ~b:(2 * i)
    done;
    Alcotest.(check int) (Printf.sprintf "recorded after %d" n) n (Recorder.recorded r);
    Alcotest.(check int) (Printf.sprintf "dropped after %d" n) (max 0 (n - 8)) (Recorder.dropped r);
    with_temp_file (fun path ->
        Recorder.dump r ~code_name:Probe.code_name path;
        match Recorder.read_summary path with
        | Error e -> Alcotest.failf "read_summary at fill %d: %s" n e
        | Ok ((cap, recorded, dropped), rows) ->
            Alcotest.(check int) "header capacity" 8 cap;
            Alcotest.(check int) "header recorded" n recorded;
            Alcotest.(check int) "header dropped" (max 0 (n - 8)) dropped;
            Alcotest.(check int) "rows kept" (min n 8) (Array.length rows);
            Array.iteri
              (fun j (t, c, a, b) ->
                let i = max 0 (n - 8) + j in
                Alcotest.(check bool)
                  (Printf.sprintf "fill %d row %d" n j)
                  true
                  (t = float_of_int i && c = i mod Probe.n_event_codes && a = i && b = 2 * i))
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
      Recorder.dump Recorder.disabled ~code_name:Probe.code_name path;
      Alcotest.(check string) "disabled dumps nothing" "" (read_file path))

let test_recorder_auto_snapshot () =
  with_temp_file (fun path ->
      let r = Recorder.create ~capacity:8 () in
      Recorder.auto_snapshot r ~every:4 ~min_gap_s:0.0 ~code_name:Probe.code_name path;
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

(* ---- typed emitters vs the dynamic entry point ---- *)

let test_probe_emitters_match_dynamic () =
  let fixture =
    [
      (1.0, Probe.Arrival { pieces = Pieceset.add 2 (Pieceset.singleton 0) });
      (2.0, Probe.Contact { seed = true; useful = false });
      (2.5, Probe.Contact { seed = false; useful = true });
      (3.0, Probe.Transfer { piece = 1; completed = true });
      (4.0, Probe.Transfer_lost);
      (5.0, Probe.Departure { kind = Probe.Completed });
      (6.0, Probe.Departure { kind = Probe.Aborted });
      (7.0, Probe.Departure { kind = Probe.Seed_departed });
      (8.0, Probe.Seed_toggle { up = false });
      (9.0, Probe.Handoff { fluid = true; n = 12.4 });
      (10.0, Probe.Handoff { fluid = false; n = 3.6 });
    ]
  in
  let mk () =
    let r = Recorder.create ~capacity:64 () in
    let g = Hist.group () in
    (Probe.make ~recorder:r ~hists:g (), r, g)
  in
  let typed, rt, gt = mk () and dynamic, rd, gd = mk () in
  List.iter
    (fun (time, ev) ->
      Probe.event dynamic ~time ev;
      match ev with
      | Probe.Arrival { pieces } -> Probe.arrival typed ~time ~pieces
      | Probe.Contact { seed; useful } -> Probe.contact typed ~time ~seed ~useful
      | Probe.Transfer { piece; completed } -> Probe.transfer typed ~time ~piece ~completed
      | Probe.Transfer_lost -> Probe.transfer_lost typed ~time
      | Probe.Departure { kind } -> Probe.departure typed ~time kind
      | Probe.Seed_toggle { up } -> Probe.seed_toggle typed ~time ~up
      | Probe.Handoff { fluid; n } -> Probe.handoff typed ~time ~fluid ~n)
    fixture;
  let rows_of r =
    with_temp_file (fun path ->
        Recorder.dump r ~code_name:Probe.code_name path;
        match Recorder.read_summary path with
        | Ok (_, rows) -> rows
        | Error e -> Alcotest.failf "dump unreadable: %s" e)
  in
  let expected =
    fixture
    |> List.map (fun (t, ev) -> (t, Probe.event_code ev, Probe.payload_a ev, Probe.payload_b ev))
    |> Array.of_list
  in
  Alcotest.(check bool) "typed rows match the packing spec" true (rows_of rt = expected);
  Alcotest.(check bool) "dynamic rows identical" true (rows_of rd = expected);
  for c = 0 to Probe.n_event_codes - 1 do
    let name = "events/" ^ Probe.code_name c in
    Alcotest.(check int)
      (name ^ " count agrees")
      (Hist.count (Hist.get gd name))
      (Hist.count (Hist.get gt name))
  done

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

let test_monitor_config_validation () =
  let bad config name =
    match Monitor.create ~config () with
    | _ -> Alcotest.failf "%s should be rejected" name
    | exception Invalid_argument _ -> ()
  in
  bad { Monitor.default with Monitor.window = 3 } "window < 4";
  bad { Monitor.default with Monitor.pin_fraction = 1.5 } "pin_fraction > 1"

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
          Alcotest.test_case "non-finite as null" `Quick test_json_nonfinite_as_null;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl format" `Quick test_trace_jsonl;
          Alcotest.test_case "chrome format" `Quick test_trace_chrome;
          Alcotest.test_case "null sink" `Quick test_trace_null_sink;
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
        ] );
      ( "series",
        [
          Alcotest.test_case "time-weighted averages" `Quick test_series_averages;
          Alcotest.test_case "file roundtrip" `Quick test_series_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_series_read_rejects_garbage;
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
          Alcotest.test_case "merge laws" `Quick test_hist_merge_laws;
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
          Alcotest.test_case "typed emitters match dynamic event" `Quick
            test_probe_emitters_match_dynamic;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "verdict flips across the Theorem 1 boundary" `Quick
            test_monitor_verdict_flips_across_boundary;
          Alcotest.test_case "on_alert fires once per episode" `Quick
            test_monitor_on_alert_once_per_episode;
          Alcotest.test_case "config validation" `Quick test_monitor_config_validation;
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
