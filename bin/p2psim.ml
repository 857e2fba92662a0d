(* p2psim: command-line front end to the stability library.

   Subcommands:
     classify  - Theorem 1 verdict for a parameter set
     simulate  - run the exact Markov (or agent-level) simulator
     fluid     - integrate the mean-field limit (--hybrid for CTMC handoff)
     region    - sweep lambda x us and print the phase diagram
     overlay   - simulate on a sparse random overlay topology
     hetero    - heterogeneous peer classes (heuristic region + simulation)
     coded     - Theorem 15 thresholds and coded-swarm simulation
     drift     - Lyapunov drift scan (the Foster-Lyapunov certificate)
     exact     - exact stationary distribution on a truncated state space
     reachable - minimal closed set of states under a selection policy
     borderline- the mu = infinity watched process of Section VIII-D
     campaign  - checkpointed sweeps over a crash-safe result store *)

open Cmdliner
module Pieceset = P2p_pieceset.Pieceset
module Runner = P2p_runner.Runner
module Welford = P2p_stats.Welford
module Probe = P2p_obs.Probe
module Trace = P2p_obs.Trace
module Series = P2p_obs.Series
module Profile = P2p_obs.Profile
module Hist = P2p_obs.Hist
module Recorder = P2p_obs.Recorder
module Monitor = P2p_obs.Monitor
module Progress = P2p_obs.Progress
module Json = P2p_obs.Json
module Campaign = P2p_campaign.Campaign
module Campaign_spec = P2p_campaign.Spec
module Store = P2p_campaign.Store
open P2p_core

(* ---- shared argument parsing ---- *)

(* Arrival streams parse straight to (Pieceset.t, rate) through a Cmdliner
   conv, so a typo produces a usage error naming the offending token plus
   the expected shape — not an uncaught Failure with a backtrace. *)
let arrival_conv =
  let hint = "expected PIECES=RATE, e.g. 'none=1.0' or '1,3=0.25'" in
  let parse spec =
    let fail fmt = Printf.ksprintf (fun m -> Error (`Msg (m ^ "; " ^ hint))) fmt in
    match String.split_on_char '=' spec with
    | [ pieces; rate ] -> begin
        match float_of_string_opt rate with
        | None -> fail "bad rate %S in arrival spec %S" rate spec
        | Some rate ->
            let rec pieces_of acc = function
              | [] -> Ok (Pieceset.of_list acc, rate)
              | s :: rest -> (
                  match int_of_string_opt (String.trim s) with
                  | Some i when i >= 1 -> pieces_of ((i - 1) :: acc) rest
                  | Some _ | None -> fail "bad piece %S in arrival spec %S" s spec)
            in
            if pieces = "none" || pieces = "" then Ok (Pieceset.empty, rate)
            else pieces_of [] (String.split_on_char ',' pieces)
      end
    | _ -> fail "arrival spec %S is not of the form PIECES=RATE" spec
  in
  let pp fmt (set, rate) =
    Format.fprintf fmt "%s=%g" (if Pieceset.is_empty set then "none" else Pieceset.to_string set) rate
  in
  Arg.conv (parse, pp)

let arrivals_arg =
  let doc =
    "Arrival stream $(docv) as PIECES=RATE, repeatable; PIECES is a comma-separated list of \
     1-based piece numbers, or 'none' for empty-handed peers. Example: --arrive none=1.0 \
     --arrive 1,2=0.3"
  in
  Arg.(value & opt_all arrival_conv [ (Pieceset.empty, 1.0) ]
       & info [ "arrive"; "a" ] ~docv:"SPEC" ~doc)

let k_arg = Arg.(value & opt int 4 & info [ "k"; "num-pieces" ] ~docv:"K" ~doc:"Number of pieces.")
let us_arg = Arg.(value & opt float 1.0 & info [ "us" ] ~docv:"RATE" ~doc:"Fixed seed contact rate U_s.")
let mu_arg = Arg.(value & opt float 1.0 & info [ "mu" ] ~docv:"RATE" ~doc:"Peer contact rate mu.")

let gamma_arg =
  let doc = "Peer-seed departure rate gamma; 'inf' means peers leave on completion." in
  let parse s =
    if s = "inf" || s = "infinity" then Ok infinity
    else match float_of_string_opt s with Some g -> Ok g | None -> Error (`Msg "bad gamma")
  in
  let gamma_conv = Arg.conv (parse, fun fmt g -> Format.fprintf fmt "%g" g) in
  Arg.(value & opt gamma_conv infinity & info [ "gamma" ] ~docv:"RATE" ~doc)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc:"PRNG seed.")

let jobs_arg =
  let doc =
    "Domains for replication sweeps; 0 = one per recommended core. Results are identical for \
     every value of $(docv) (deterministic seeding + ordered merge)."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"D" ~doc)

let resolve_jobs jobs = if jobs <= 0 then Runner.default_jobs () else jobs

let reps_arg ~default =
  Arg.(value & opt int default & info [ "reps"; "r" ] ~docv:"R"
       ~doc:"Independent replications (replication i uses the RNG stream (seed, i)).")

let horizon_arg =
  Arg.(value & opt float 1000.0 & info [ "horizon"; "t" ] ~docv:"TIME" ~doc:"Simulation horizon.")

let make_params k us mu gamma arrivals = Params.make ~k ~us ~mu ~gamma ~arrivals

let params_term = Term.(const make_params $ k_arg $ us_arg $ mu_arg $ gamma_arg $ arrivals_arg)

(* ---- fault injection flags (shared by simulate) ---- *)

let outage_arg =
  let doc =
    "Take the fixed seed through alternating Exp(UP)/Exp(DOWN) up and down periods (mean \
     durations). While down the seed uploads nothing; Theorem 1 at the effective rate U_s \
     x UP/(UP+DOWN) predicts where the missing piece syndrome sets in."
  in
  let parse s =
    let bad () =
      Error
        (`Msg
           (Printf.sprintf "seed outage %S is not UP,DOWN (two positive mean durations, e.g. '50,10')" s))
    in
    match String.split_on_char ',' s with
    | [ up; down ] -> (
        match (float_of_string_opt up, float_of_string_opt down) with
        | Some u, Some d when u > 0.0 && d > 0.0 && Float.is_finite u && Float.is_finite d ->
            Ok (u, d)
        | _ -> bad ())
    | _ -> bad ()
  in
  let outage_c = Arg.conv (parse, fun fmt (u, d) -> Format.fprintf fmt "%g,%g" u d) in
  Arg.(value & opt (some outage_c) None & info [ "seed-outage" ] ~docv:"UP,DOWN" ~doc)

let nonneg_rate_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0.0 -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%s must be a finite non-negative number, got %S" what s))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let abort_rate_arg =
  Arg.(value & opt (nonneg_rate_conv "abort rate") 0.0
       & info [ "abort-rate" ] ~docv:"RATE"
           ~doc:"Churn: each unfinished peer aborts (leaves without the file) at rate $(docv).")

let loss_prob_arg =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | Some _ | None -> Error (`Msg (Printf.sprintf "loss probability must be in [0, 1], got %S" s))
  in
  let prob_c = Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v) in
  Arg.(value & opt prob_c 0.0
       & info [ "loss-prob" ] ~docv:"P"
           ~doc:"Each would-be upload is lost (no piece transferred) with probability $(docv).")

let faults_term =
  let make outage abort_rate loss_prob = Faults.make ?outage ~abort_rate ~loss_prob () in
  Term.(const make $ outage_arg $ abort_rate_arg $ loss_prob_arg)

let on_error_arg =
  let doc =
    "What to do when a replication raises: 'abort' (default; re-raise with backtrace), 'skip' \
     (drop it, keep the sweep), or 'retry:N' (up to N fresh deterministic streams, then skip)."
  in
  let parse s =
    match String.lowercase_ascii s with
    | "abort" -> Ok Runner.Abort
    | "skip" -> Ok Runner.Skip
    | s when String.length s > 6 && String.sub s 0 6 = "retry:" -> (
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some n when n >= 1 -> Ok (Runner.Retry n)
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "retry count in %S must be a positive integer" s)))
    | _ -> Error (`Msg (Printf.sprintf "unknown policy %S (expected abort, skip, or retry:N)" s))
  in
  let pp fmt = function
    | Runner.Abort -> Format.pp_print_string fmt "abort"
    | Runner.Skip -> Format.pp_print_string fmt "skip"
    | Runner.Retry n -> Format.fprintf fmt "retry:%d" n
  in
  Arg.(value & opt (conv (parse, pp)) Runner.Abort & info [ "on-error" ] ~docv:"POLICY" ~doc)

let max_events_arg =
  Arg.(value & opt (some int) None
       & info [ "max-events" ] ~docv:"N"
           ~doc:"Per-replication event budget; a run that exhausts it is frozen at its current \
                 state and counted as partial.")

let timeout_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%s must be a finite positive number of seconds, got %S" what s))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let rep_timeout_arg =
  Arg.(value & opt (some (timeout_conv "replication timeout")) None
       & info [ "rep-timeout" ] ~docv:"SECS"
           ~doc:"Per-replication wall-clock watchdog: an attempt running longer than $(docv) \
                 seconds is recorded as a failure and handled by --on-error (a retried attempt \
                 gets a fresh deterministic stream and a fresh watchdog). Wall-clock limits are \
                 scheduling-dependent; pick a wide margin if results must be reproducible.")

(* ---- telemetry flags (simulate / region) ---- *)

type telemetry = {
  trace : string option;
  probe_interval : float option;
  metrics_out : string option;
  progress : bool;
  profile : bool;
  flight_recorder : string option;
  monitor : bool;
  alerts_out : string option;
  hist_out : string option;
}

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a structured event trace of the run to $(docv): Chrome trace-event JSON \
                 when the name ends in .json (open in chrome://tracing or Perfetto), JSONL \
                 otherwise. Timestamps are simulation time. Requires --reps 1.")

let probe_interval_arg =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "probe interval must be a finite positive number, got %S" s))
  in
  let c = Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v) in
  Arg.(value & opt (some c) None
       & info [ "probe-interval" ] ~docv:"T"
           ~doc:"Sample the swarm (population, peer seeds, one-club size, per-piece copies) \
                 every $(docv) units of simulation time and print the time-averaged summary. \
                 Simulation time, never wall clock: the series is reproducible bit for bit.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the probe sample series as JSONL to $(docv) (render it later with \
                 'p2psim report'). Implies probing (default interval horizon/200 unless \
                 --probe-interval is given). Requires --reps 1.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Live progress meter on stderr for replication sweeps: replications done, \
                 aggregate events/s, ETA.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Wall-clock phase profile of the simulator (setup / event loop / finalisation), \
                 printed after the run.")

let flight_recorder_arg =
  Arg.(value & opt (some string) None
       & info [ "flight-recorder" ] ~docv:"FILE"
           ~doc:"Keep the last few thousand engine events in a preallocated ring buffer and dump \
                 them to $(docv) when the run ends, crashes, or is signalled (SIGINT/SIGTERM); \
                 the ring is also republished atomically every few thousand events, so even a \
                 SIGKILL leaves the last complete snapshot behind. Chrome trace JSON when the \
                 name ends in .json, JSONL otherwise. Requires --reps 1.")

let monitor_arg =
  Arg.(value & flag
       & info [ "monitor" ]
           ~doc:"Watch the probe samples for the missing piece syndrome as the run executes: a \
                 structured alert fires on stderr when the rarest-piece replica count pins near \
                 one while the one-club drifts linearly upward (the Theorem 1 instability \
                 signature). Implies probing (default interval horizon/200). Detection runs on \
                 simulation time only, so monitored runs are bit-identical to bare runs. \
                 Requires --reps 1.")

let alerts_out_arg =
  Arg.(value & opt (some string) None
       & info [ "alerts-out" ] ~docv:"FILE"
           ~doc:"Write the monitor's detector timeline (alerts and syndrome episodes) as JSON \
                 to $(docv). Implies --monitor.")

let hist_out_arg =
  Arg.(value & opt (some string) None
       & info [ "hist-out" ] ~docv:"FILE"
           ~doc:"Record per-event-type counts and sampled per-phase wall-clock cost into \
                 log2-bucket histograms and write them to $(docv) (render with 'p2psim \
                 report'). Requires --reps 1.")

let telemetry_term =
  let make trace probe_interval metrics_out progress profile flight_recorder monitor alerts_out
      hist_out =
    { trace; probe_interval; metrics_out; progress; profile; flight_recorder; monitor;
      alerts_out; hist_out }
  in
  Term.(const make $ trace_arg $ probe_interval_arg $ metrics_out_arg $ progress_arg
        $ profile_arg $ flight_recorder_arg $ monitor_arg $ alerts_out_arg $ hist_out_arg)

let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline ("p2psim: " ^ m); exit 2) fmt

(* Build the probe for a single run, hand it to [f], then flush the
   attached sinks (metrics file, trace file, flight dump, histogram
   file, monitor timeline, profile report).  The flight recorder is the
   crash-path sink: it dumps from the SIGINT/SIGTERM handlers and from
   the exception path, not just on clean exit, and keeps a rate-limited
   auto-snapshot on disk so even SIGKILL leaves the last complete ring
   behind. *)
let with_single_run_probe tel ~k ~horizon f =
  let tracer = Option.map Trace.to_file tel.trace in
  let monitoring = tel.monitor || tel.alerts_out <> None in
  let series =
    if tel.probe_interval <> None || tel.metrics_out <> None then Some (Series.create ~k)
    else None
  in
  let monitor =
    if monitoring then
      Some
        (Monitor.create
           ~on_alert:(fun a -> Format.eprintf "p2psim: %a@." Monitor.pp_alert a)
           ())
    else None
  in
  let recorder =
    match tel.flight_recorder with
    | None -> Recorder.disabled
    | Some file ->
        let r = Recorder.create () in
        Recorder.auto_snapshot r ~every:(Recorder.capacity r) ~min_gap_s:1.0
          ~code_name:Probe.code_name file;
        r
  in
  let hists = match tel.hist_out with None -> Hist.disabled_group | Some _ -> Hist.group () in
  let prof = if tel.profile then Profile.create () else Profile.disabled in
  let bare =
    tracer = None && series = None && monitor = None && not tel.profile
    && not (Recorder.live recorder)
    && not (Hist.enabled hists)
  in
  let probe =
    if bare then Probe.none
    else
      let on_sample =
        if series = None && monitor = None then None
        else
          Some
            (fun (s : Probe.sample) ->
              Option.iter (fun sr -> Series.record sr s) series;
              Option.iter
                (fun m ->
                  Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
                    ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
                monitor)
      in
      Probe.make
        ?interval:
          (match tel.probe_interval with
          | Some dt -> Some dt
          | None ->
              if series <> None || monitor <> None then Some (horizon /. 200.0) else None)
        ?on_event:(Option.map Probe.trace_hook tracer)
        ?on_sample ~profile:prof ~recorder ~hists ()
  in
  let dump_recorder ~out =
    match tel.flight_recorder with
    | Some file when Recorder.live recorder ->
        Recorder.dump recorder ~code_name:Probe.code_name file;
        Printf.fprintf out "flight recorder: %d events kept (%d overwritten) -> %s\n%!"
          (min (Recorder.recorded recorder) (Recorder.capacity recorder))
          (Recorder.dropped recorder) file
    | _ -> ()
  in
  let result =
    match tel.flight_recorder with
    | None -> f probe
    | Some _ ->
        (* Dump the ring on the way out of every abnormal exit the
           process can still observe; SIGKILL is covered by the
           auto-snapshot above. *)
        let on_signal code _ =
          dump_recorder ~out:stderr;
          exit code
        in
        let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (on_signal 130)) in
        let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (on_signal 143)) in
        let restore () =
          Sys.set_signal Sys.sigint prev_int;
          Sys.set_signal Sys.sigterm prev_term
        in
        (try f probe
         with e ->
           dump_recorder ~out:stderr;
           restore ();
           raise e)
        |> fun r ->
        restore ();
        r
  in
  dump_recorder ~out:stdout;
  Option.iter
    (fun m ->
      let n_alerts = List.length (Monitor.alerts m) in
      Report.kv
        [
          ("monitor samples", string_of_int (Monitor.samples_seen m));
          ("missing-piece alerts", string_of_int n_alerts);
          ("syndrome episodes", string_of_int (List.length (Monitor.episodes m)));
          ( "currently alerting",
            if Monitor.alerting m then "yes (syndrome open at horizon)" else "no" );
        ];
      match tel.alerts_out with
      | None -> ()
      | Some file ->
          Json.write_file_atomic file (fun oc ->
              Json.to_channel oc (Monitor.to_json m);
              output_char oc '\n');
          Printf.printf "wrote detector timeline (%d alerts) to %s\n" n_alerts file)
    monitor;
  (match tel.hist_out with
  | None -> ()
  | Some file ->
      Hist.write_group_file hists file;
      Printf.printf "wrote %d histograms to %s\n" (List.length (Hist.hists hists)) file);
  Option.iter
    (fun s ->
      Series.close s ~time:horizon;
      Report.kv
        [
          ("probe samples", string_of_int (Series.count s));
          ("time-avg one-club size", Report.fmt_float (Series.avg_one_club s));
          ("time-avg rarest-piece copies", Report.fmt_float (Series.avg_rarest_count s));
          ("time-avg peer seeds", Report.fmt_float (Series.avg_seeds s));
        ];
      match tel.metrics_out with
      | None -> ()
      | Some file ->
          Json.write_file_atomic file (fun oc -> Series.write s oc);
          Printf.printf "wrote %d probe samples to %s\n" (Series.count s) file)
    series;
  Option.iter
    (fun t ->
      let n = Trace.events_written t in
      Trace.close t;
      Printf.printf "wrote %d trace events to %s\n" n (Option.get tel.trace))
    tracer;
  if tel.profile then Format.printf "%a@." Profile.pp prof;
  result

(* Degraded-seed commentary shared by the simulate paths: what Theorem 1
   predicts once U_s is scaled by the outage duty cycle. *)
let report_effective_verdict (params : Params.t) faults =
  match (faults : Faults.t).outage with
  | None -> ()
  | Some _ ->
      let uf = Faults.uptime_fraction faults in
      Printf.printf "seed uptime fraction %.4f: effective U_s = %s; Theorem 1 there: %s\n"
        uf
        (Report.fmt_float (Faults.effective_us faults ~us:params.us))
        (Stability.verdict_to_string (Stability.classify_effective params ~uptime_fraction:uf))

let report_failures (timing : Runner.timing) =
  if timing.failures <> [] then begin
    Printf.printf "failed replications (excluded from aggregates):\n";
    List.iter (fun f -> Format.printf "  @[<v>%a@]@." Runner.pp_failure f) timing.failures
  end;
  if timing.interrupted then
    print_endline "interrupted by SIGINT: aggregates cover completed chunks only"

(* Shared replication driver for the simulate/coded/overlay paths:
   R independent replications, merged Welford per metric, printed as a
   mean ± CI table.  Aggregates are bit-identical for every --jobs value
   (and under skip/retry: surviving replications keep their streams).
   [after_table] slots model-specific commentary between the table and
   the partial/failure report. *)
let replication_table ~reps ~seed ~jobs ~on_error ?rep_timeout_s ~progress ~metrics
    ?(after_table = fun () -> ()) thunk =
  let summary =
    Runner.run_summary ~jobs:(resolve_jobs jobs) ~on_error ?rep_timeout_s ~handle_sigint:true
      ~progress
      ~hist:{ Runner.lo = 0.0; hi = 400.0; bins = 20 }
      ~metrics ~master_seed:seed ~replications:reps thunk
  in
  Printf.printf "%d replications (master seed %d)\n" reps seed;
  Report.table
    ~header:[ "metric"; "mean"; "std err"; "95% CI"; "min"; "max" ]
    (List.map
       (fun (name, w) ->
         let lo, hi = Welford.confidence_interval w ~z:1.96 in
         [
           name;
           Report.fmt_float (Welford.mean w);
           Report.fmt_float (Welford.std_error w);
           Printf.sprintf "[%s, %s]" (Report.fmt_float lo) (Report.fmt_float hi);
           Report.fmt_float (Welford.min_value w);
           Report.fmt_float (Welford.max_value w);
         ])
       summary.stats);
  after_table ();
  if summary.partial > 0 then
    Printf.printf "%d replication%s partial (event budget or wall budget exhausted)\n"
      summary.partial
      (if summary.partial = 1 then "" else "s");
  report_failures summary.timing;
  Format.printf "%a@." Runner.pp_timing summary.timing

(* Extra metric columns that only appear when faults are injected. *)
let fault_metric_names faults =
  if Faults.is_none faults then []
  else [ "outage time"; "aborted peers"; "lost transfers" ]

let fault_rows faults (outage_time, aborted, lost) =
  if Faults.is_none faults then []
  else
    [
      ("seed outage time", Report.fmt_float outage_time);
      ("aborted peers", string_of_int aborted);
      ("lost transfers", string_of_int lost);
    ]

let truncation_warning truncated =
  if truncated then
    print_endline "WARNING: max_events budget exhausted before the horizon; \
                   time-based statistics are biased"

(* Trajectory CSVs go through write-tmp-then-rename like every other
   emitter: a crash mid-write leaves the previous file (or nothing),
   never a torn one. *)
let write_samples_csv file samples =
  Json.write_file_atomic file (fun oc ->
      output_string oc "time,population\n";
      Array.iter (fun (t, n) -> Printf.fprintf oc "%g,%d\n" t n) samples);
  Printf.printf "wrote %s\n" file

let reject_single_run_telemetry tel =
  if tel.trace <> None then
    usage_error "--trace requires --reps 1 (per-replication traces would interleave)";
  if tel.metrics_out <> None then
    usage_error "--metrics-out requires --reps 1 (one probe series per run)";
  if tel.flight_recorder <> None then
    usage_error "--flight-recorder requires --reps 1 (one ring per run; campaigns have their own)";
  if tel.monitor || tel.alerts_out <> None then
    usage_error "--monitor requires --reps 1 (one detector per run)";
  if tel.hist_out <> None then
    usage_error "--hist-out requires --reps 1 (per-replication histograms would interleave)"

(* ---- classify ---- *)

let classify_cmd =
  let run params =
    Format.printf "%a@." Params.pp params;
    let verdict, piece, margin = Stability.classify_detail params in
    Report.kv
      [
        ("verdict (Theorem 1)", Stability.verdict_to_string verdict);
        ("binding piece", string_of_int (piece + 1));
        ("threshold", Report.fmt_float (Stability.threshold params ~piece));
        ("lambda_total", Report.fmt_float (Params.lambda_total params));
        ("margin", Report.fmt_float margin);
        ("max stable lambda (same mix)", Report.fmt_float (Stability.stable_lambda_limit params));
      ];
    Report.subsection "Delta_S for every proper subset S (Eq. 4; all < 0 iff stable)";
    List.iter
      (fun s ->
        Printf.printf "  Delta_%-12s = %s\n" (Pieceset.to_string s)
          (Report.fmt_float (Stability.delta params ~s)))
      (Pieceset.all_proper ~k:params.k)
  in
  Cmd.v (Cmd.info "classify" ~doc:"Theorem 1 verdict for a parameter set")
    Term.(const run $ params_term)

(* ---- simulate ---- *)

let simulate_cmd =
  let agent_arg =
    Arg.(value & flag & info [ "agent" ] ~doc:"Use the agent-level simulator (tracks groups).")
  in
  let policy_arg =
    let policy_conv =
      Arg.enum
        [
          ("random", Policy.random_useful);
          ("rarest", Policy.rarest_first);
          ("common", Policy.most_common_first);
          ("sequential", Policy.sequential);
        ]
    in
    Arg.(value & opt policy_conv Policy.random_useful & info [ "policy" ] ~docv:"NAME"
         ~doc:"Piece selection: random|rarest|common|sequential.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Write the sampled (t, N_t) trajectory as CSV.")
  in
  let replicated params horizon seed agent policy reps jobs faults on_error rep_timeout
      max_events ~progress:want_progress =
    let progress = if want_progress then Progress.create ~total:reps () else Progress.silent in
    let with_faults = not (Faults.is_none faults) in
    let metrics =
      [ "time-avg N"; "final N"; "transfers"; "departures"; "growth dN/dt" ]
      @ fault_metric_names faults
    in
    let thunk ~rng ~index:_ =
      let time_avg_n, final_n, transfers, departures, samples, truncated, fault_counts =
        if agent then begin
          let config = { (Sim_agent.default_config params) with policy; faults } in
          let s, _ = Sim_agent.run ?max_events ~rng config ~horizon in
          Progress.add_events progress s.events;
          ( s.time_avg_n, s.final_n, s.transfers, s.departures, s.samples, s.truncated,
            [| s.outage_time; float_of_int s.aborted_peers; float_of_int s.lost_transfers |] )
        end
        else begin
          let config = { (Sim_markov.default_config params) with policy; faults } in
          let s, _ =
            Sim_markov.run ?max_events ~rng
              ~until:(fun ~time:_ ~n:_ -> Runner.deadline_exceeded ())
              config ~horizon
          in
          if s.stopped then raise Runner.Rep_timeout;
          Progress.add_events progress s.events;
          ( s.time_avg_n, s.final_n, s.transfers, s.departures, s.samples, s.truncated,
            [| s.outage_time; float_of_int s.aborted_peers; float_of_int s.lost_transfers |] )
        end
      in
      let growth = (Classify.of_samples samples).growth_rate in
      let values =
        Array.append
          [| time_avg_n; float_of_int final_n; float_of_int transfers;
             float_of_int departures; growth |]
          (if with_faults then fault_counts else [||])
      in
      Runner.rep ~flagged:truncated ~obs:[| time_avg_n |] values
    in
    replication_table ~reps ~seed ~jobs ~on_error ?rep_timeout_s:rep_timeout ~progress ~metrics
      ~after_table:(fun () -> report_effective_verdict params faults)
      thunk
  in
  let run params horizon seed agent policy csv reps jobs faults on_error
      rep_timeout max_events tel =
    let write_csv samples =
      match csv with
      | None -> ()
      | Some file -> write_samples_csv file samples
    in
    let fault_rows = fault_rows faults in
    if reps > 1 then begin
      reject_single_run_telemetry tel;
      replicated params horizon seed agent policy reps jobs faults on_error rep_timeout
        max_events ~progress:tel.progress
    end
    else if agent then begin
      let config = { (Sim_agent.default_config params) with policy; faults } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_agent.run_seeded ~probe ?max_events ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("events", string_of_int stats.events);
           ("arrivals", string_of_int stats.arrivals);
           ("transfers", string_of_int stats.transfers);
           ("departures", string_of_int stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", string_of_int stats.final_n);
           ("mean sojourn", Report.fmt_float stats.mean_sojourn);
           ("one-club fraction", Report.fmt_float stats.one_club_time_fraction);
         ]
        @ fault_rows (stats.outage_time, stats.aborted_peers, stats.lost_transfers));
      let r = Classify.of_samples stats.samples in
      Printf.printf "empirical verdict: %s (growth %s/t)\n"
        (Classify.verdict_to_string r.verdict)
        (Report.fmt_float r.growth_rate);
      report_effective_verdict params faults;
      write_csv stats.samples
    end
    else begin
      let config = { (Sim_markov.default_config params) with policy; faults } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_markov.run_seeded ~probe ?max_events ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("events", string_of_int stats.events);
           ("arrivals", string_of_int stats.arrivals);
           ("transfers", string_of_int stats.transfers);
           ("departures", string_of_int stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", string_of_int stats.final_n);
           ("visits to empty", string_of_int stats.visits_to_empty);
         ]
        @ fault_rows (stats.outage_time, stats.aborted_peers, stats.lost_transfers));
      let r = Classify.of_samples stats.samples in
      Printf.printf "empirical verdict: %s (growth %s/t)\n"
        (Classify.verdict_to_string r.verdict)
        (Report.fmt_float r.growth_rate);
      report_effective_verdict params faults;
      write_csv stats.samples
    end
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the exact stochastic simulation")
    Term.(const run $ params_term $ horizon_arg $ seed_arg $ agent_arg $ policy_arg $ csv_arg
          $ reps_arg ~default:1 $ jobs_arg $ faults_term
          $ on_error_arg $ rep_timeout_arg $ max_events_arg $ telemetry_term)

(* ---- fluid ---- *)

let fluid_cmd =
  let init_arg =
    Arg.(value & opt_all arrival_conv []
         & info [ "init" ] ~docv:"SPEC"
             ~doc:"Initial swarm density as PIECES=MASS (same shape as --arrive), repeatable; \
                   e.g. --init none=1e6 starts a million empty-handed peers. Default: empty \
                   swarm. Masses need not be integers in fluid mode; the hybrid rounds them.")
  in
  let rtol_arg =
    Arg.(value & opt float 1e-6 & info [ "rtol" ] ~docv:"TOL"
         ~doc:"Relative tolerance of the adaptive stepper.")
  in
  let atol_arg =
    Arg.(value & opt float 1e-9 & info [ "atol" ] ~docv:"TOL"
         ~doc:"Absolute tolerance floor of the adaptive stepper.")
  in
  let hybrid_arg =
    Arg.(value & flag
         & info [ "hybrid" ]
             ~doc:"Hybrid mode: exact stochastic simulation below --switch-up peers, fluid ODE \
                   above it, handing back at --switch-down. Deterministic switch points; same \
                   seed gives bit-identical runs.")
  in
  let switch_up_arg =
    Arg.(value & opt int 1000 & info [ "switch-up" ] ~docv:"N"
         ~doc:"Hybrid: population at which the stochastic segment hands off to the fluid ODE.")
  in
  let switch_down_arg =
    Arg.(value & opt int 100 & info [ "switch-down" ] ~docv:"N"
         ~doc:"Hybrid: fluid total at which the run hands back to the stochastic simulator.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Write the sampled (t, N_t) trajectory as CSV.")
  in
  let run params horizon seed init rtol atol hybrid switch_up switch_down csv faults
      max_events tel =
    let control =
      try Ode.control ~rtol ~atol ()
      with Invalid_argument m -> usage_error "%s" m
    in
    let write_csv samples =
      match csv with
      | None -> ()
      | Some file -> write_samples_csv file samples
    in
    let empirical samples =
      let r = Classify.of_samples samples in
      Printf.printf "empirical verdict: %s (growth %s/t)\n"
        (Classify.verdict_to_string r.Classify.verdict)
        (Report.fmt_float r.Classify.growth_rate)
    in
    let fluid_fault_rows (outage_time, aborted_mass, lost_mass) =
      if Faults.is_none faults then []
      else
        [
          ("seed outage time", Report.fmt_float outage_time);
          ("aborted mass", Report.fmt_float aborted_mass);
          ("lost upload mass", Report.fmt_float lost_mass);
        ]
    in
    if hybrid then begin
      if switch_up <= switch_down || switch_down < 0 then
        usage_error "--switch-up (%d) must exceed --switch-down (%d >= 0)" switch_up switch_down;
      let initial =
        List.map
          (fun (set, mass) ->
            let c = int_of_float (Float.round mass) in
            if c < 0 then usage_error "--init mass %g is negative" mass;
            (set, c))
          init
      in
      let markov = { (Sim_markov.default_config params) with initial; faults } in
      let config = { (Sim_hybrid.default_config ~up:switch_up ~down:switch_down markov)
                     with control } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_hybrid.run_seeded ~probe ?max_events ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("events", string_of_int stats.events);
           ("stochastic events", string_of_int stats.markov_events);
           ("fluid steps", string_of_int stats.fluid_steps);
           ("handoffs", string_of_int (List.length stats.switches));
           ("arrivals", Report.fmt_float stats.arrivals);
           ("transfers", Report.fmt_float stats.transfers);
           ("departures", Report.fmt_float stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", Report.fmt_float stats.final_n);
           ("visits to empty", string_of_int stats.visits_to_empty);
         ]
        @ fluid_fault_rows (stats.outage_time, stats.aborted, stats.lost));
      if stats.switches <> [] then begin
        Report.subsection "regime handoffs";
        List.iter
          (fun s ->
            Printf.printf "  t=%-12s %s at N=%s\n"
              (Report.fmt_float s.Sim_hybrid.at)
              (if s.Sim_hybrid.to_fluid then "stochastic -> fluid" else "fluid -> stochastic")
              (Report.fmt_float s.Sim_hybrid.n))
          stats.switches
      end;
      empirical stats.samples;
      report_effective_verdict params faults;
      write_csv stats.samples
    end
    else begin
      let config = { (Sim_fluid.default_config params) with initial = init; faults; control } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_fluid.run_seeded ~probe ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("accepted steps", string_of_int stats.steps);
           ("rejected steps", string_of_int stats.rejected_steps);
           ("rhs evaluations", string_of_int stats.rhs_evals);
           ("arrival mass", Report.fmt_float stats.arrivals);
           ("transfer mass", Report.fmt_float stats.transfers);
           ("departure mass", Report.fmt_float stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", Report.fmt_float stats.final_n);
         ]
        @ fluid_fault_rows (stats.outage_time, stats.aborted_mass, stats.lost_mass));
      empirical stats.samples;
      report_effective_verdict params faults;
      write_csv stats.samples
    end
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Integrate the mean-field (fluid) limit, optionally hybridised with the exact \
             stochastic simulator — the million-peer backend")
    Term.(const run $ params_term $ horizon_arg $ seed_arg $ init_arg $ rtol_arg $ atol_arg
          $ hybrid_arg $ switch_up_arg $ switch_down_arg $ csv_arg $ faults_term
          $ max_events_arg $ telemetry_term)

(* ---- region ---- *)

let region_cmd =
  let steps_arg =
    Arg.(value & opt int 9 & info [ "steps" ] ~docv:"N" ~doc:"Grid resolution per axis.")
  in
  let lmax_arg =
    Arg.(value & opt float 3.0 & info [ "lambda-max" ] ~docv:"RATE" ~doc:"Largest lambda.")
  in
  let umax_arg =
    Arg.(value & opt float 3.0 & info [ "us-max" ] ~docv:"RATE" ~doc:"Largest U_s.")
  in
  let run k mu gamma steps lmax umax seed reps jobs horizon on_error want_progress =
    let cell_params i j =
      let lambda = float_of_int (i + 1) /. float_of_int steps *. lmax in
      let us = float_of_int (j + 1) /. float_of_int steps *. umax in
      Params.make ~k ~us ~mu ~gamma ~arrivals:[ (Pieceset.empty, lambda) ]
    in
    let theory_symbol p =
      match Stability.classify p with
      | Stability.Positive_recurrent -> "+"
      | Stability.Transient -> "-"
      | Stability.Borderline -> "0"
    in
    (* With --reps > 0, every cell is simulated reps times; the whole
       (cell x replication) grid is one flat runner sweep.  A replication
       skipped by --on-error (or cut off by Ctrl-C) leaves a None slot and
       simply doesn't vote for its cell. *)
    let sim_symbols =
      if reps <= 0 then None
      else begin
        let cells = steps * steps in
        let progress =
          if want_progress then Progress.create ~total:(cells * reps) () else Progress.silent
        in
        let verdicts, timing =
          Runner.run_map ~jobs:(resolve_jobs jobs) ~on_error ~handle_sigint:true ~progress
            ~master_seed:seed ~replications:(cells * reps) (fun ~rng ~index ->
              let cell = index / reps in
              let p = cell_params (cell / steps) (cell mod steps) in
              let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config p) ~horizon in
              Progress.add_events progress stats.events;
              (Classify.of_samples stats.samples).verdict)
        in
        Format.printf "simulated %d cells x %d reps: %a@." cells reps Runner.pp_timing timing;
        report_failures timing;
        let symbol cell =
          let count v =
            let c = ref 0 in
            for r = 0 to reps - 1 do
              if verdicts.((cell * reps) + r) = Some v then incr c
            done;
            !c
          in
          let stable = count Classify.Appears_stable
          and unstable = count Classify.Appears_unstable in
          if stable > reps / 2 then "+" else if unstable > reps / 2 then "-" else "?"
        in
        Some symbol
      end
    in
    Printf.printf
      "Phase diagram for K=%d mu=%g gamma=%s, empty-handed arrivals.\n\
       Rows: lambda (down = larger). Columns: U_s. '+' stable, '-' transient, '0' borderline.\n\
       %s\n"
      k mu
      (if Float.is_finite gamma then Printf.sprintf "%g" gamma else "inf")
      (match sim_symbols with
      | None -> ""
      | Some _ -> "Cells: theory/simulated majority ('?' = no majority).\n");
    Printf.printf "%8s" "";
    for j = 0 to steps - 1 do
      Printf.printf "%7.2f" (float_of_int (j + 1) /. float_of_int steps *. umax)
    done;
    print_newline ();
    for i = steps - 1 downto 0 do
      let lambda = float_of_int (i + 1) /. float_of_int steps *. lmax in
      Printf.printf "%8.2f" lambda;
      for j = 0 to steps - 1 do
        let t = theory_symbol (cell_params i j) in
        let cell =
          match sim_symbols with
          | None -> t
          | Some symbol -> t ^ "/" ^ symbol ((i * steps) + j)
        in
        Printf.printf "%7s" cell
      done;
      print_newline ()
    done
  in
  Cmd.v (Cmd.info "region" ~doc:"Print the (lambda, U_s) phase diagram")
    Term.(const run $ k_arg $ mu_arg $ gamma_arg $ steps_arg $ lmax_arg $ umax_arg $ seed_arg
          $ reps_arg ~default:0 $ jobs_arg $ horizon_arg $ on_error_arg $ progress_arg)

(* ---- coded ---- *)

let coded_cmd =
  let q_arg = Arg.(value & opt int 16 & info [ "q"; "field" ] ~docv:"Q" ~doc:"Field size (prime power).") in
  let f_arg =
    Arg.(value & opt float 0.25 & info [ "f"; "gift-fraction" ] ~docv:"FRAC" ~doc:"Gifted fraction of arrivals.")
  in
  let sim_arg = Arg.(value & flag & info [ "sim" ] ~doc:"Also simulate the coded swarm.") in
  let replicated config ~horizon ~seed ~reps ~jobs ~faults ~on_error ~rep_timeout ~max_events
      ~progress:want_progress =
    let progress = if want_progress then Progress.create ~total:reps () else Progress.silent in
    let with_faults = not (Faults.is_none faults) in
    let metrics =
      [ "time-avg N"; "final N"; "useful transfers"; "useless transfers"; "completions";
        "growth dN/dt" ]
      @ fault_metric_names faults
    in
    let thunk ~rng ~index:_ =
      let s = Sim_coded.run ?max_events ~rng config ~horizon in
      Progress.add_events progress s.Sim_coded.events;
      let growth = (Classify.of_samples s.samples).growth_rate in
      let values =
        Array.append
          [| s.time_avg_n; float_of_int s.final_n; float_of_int s.useful_transfers;
             float_of_int s.useless_transfers; float_of_int s.completions; growth |]
          (if with_faults then
             [| s.outage_time; float_of_int s.aborted_peers; float_of_int s.lost_transfers |]
           else [||])
      in
      Runner.rep ~flagged:s.truncated ~obs:[| s.time_avg_n |] values
    in
    replication_table ~reps ~seed ~jobs ~on_error ?rep_timeout_s:rep_timeout ~progress ~metrics
      thunk
  in
  let run k q f us mu gamma horizon seed sim reps jobs faults on_error rep_timeout max_events
      tel =
    let g =
      { Stability.Coded.q; k; us; mu; gamma; lambda0 = 1.0 -. f; lambda1 = f }
    in
    Report.kv
      [
        ("transient if f <", Report.fmt_float (Stability.Coded.transient_f_threshold ~q ~k));
        ( "recurrent if f > (exact)",
          Report.fmt_float (Stability.Coded.recurrent_f_threshold_exact ~q ~k) );
        ("verdict at f", Stability.verdict_to_string (Stability.Coded.classify g));
      ];
    if sim || reps > 1 then begin
      let config = { (Sim_coded.of_gift g) with faults } in
      if reps > 1 then begin
        reject_single_run_telemetry tel;
        replicated config ~horizon ~seed ~reps ~jobs ~faults ~on_error ~rep_timeout ~max_events
          ~progress:tel.progress
      end
      else begin
        (* In coded traces and probes the subspace dimension plays the
           role of the piece index, so the probe series has k slots. *)
        let s =
          with_single_run_probe tel ~k ~horizon (fun probe ->
              Sim_coded.run_seeded ~probe ?max_events ~seed config ~horizon)
        in
        truncation_warning s.truncated;
        Report.kv
          ([
             ("time-avg N", Report.fmt_float s.time_avg_n);
             ("final N", string_of_int s.final_n);
             ("useful transfers", string_of_int s.useful_transfers);
             ("useless transfers", string_of_int s.useless_transfers);
             ("completions", string_of_int s.completions);
             ("near-complete fraction", Report.fmt_float s.near_complete_fraction);
             ( "empirical verdict",
               Classify.verdict_to_string (Classify.of_samples s.samples).verdict );
           ]
          @ fault_rows faults (s.outage_time, s.aborted_peers, s.lost_transfers))
      end
    end
  in
  Cmd.v (Cmd.info "coded" ~doc:"Theorem 15: network coding thresholds and simulation")
    Term.(const run $ k_arg $ q_arg $ f_arg $ us_arg $ mu_arg $ gamma_arg $ horizon_arg
          $ seed_arg $ sim_arg $ reps_arg ~default:1 $ jobs_arg $ faults_term $ on_error_arg
          $ rep_timeout_arg $ max_events_arg $ telemetry_term)

(* ---- drift ---- *)

let drift_cmd =
  let sizes_arg =
    Arg.(value & opt (list int) [ 100; 1000; 5000 ] & info [ "sizes" ] ~docv:"N,N,..."
         ~doc:"Population sizes to probe.")
  in
  let run params sizes =
    (match Stability.classify params with
    | Stability.Positive_recurrent -> ()
    | v ->
        Printf.printf "note: parameters are %s; negative drift is not expected.\n"
          (Stability.verdict_to_string v));
    let coeffs = Lyapunov.default_coeffs params in
    Printf.printf "coefficients: r=%g d=%g beta=%g alpha=%g p=%g\n" coeffs.r coeffs.d
      coeffs.beta coeffs.alpha coeffs.p_const;
    Report.table
      ~header:[ "state"; "n"; "QW"; "QW/n" ]
      (List.map
         (fun (pt : Lyapunov.scan_point) ->
           [
             pt.state_desc;
             string_of_int pt.n;
             Report.fmt_float pt.drift_value;
             Report.fmt_float pt.drift_per_peer;
           ])
         (Lyapunov.scan_class_one params coeffs ~sizes))
  in
  Cmd.v (Cmd.info "drift" ~doc:"Exact Lyapunov drift scan (Foster-Lyapunov certificate)")
    Term.(const run $ params_term $ sizes_arg)

(* ---- overlay ---- *)

let overlay_cmd =
  let degree_arg =
    let doc = "Overlay attachment degree; 'inf' = fully connected (the paper's model)." in
    let parse s =
      if s = "inf" then Ok None
      else
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok (Some d)
        | Some _ | None -> Error (`Msg "degree must be a positive integer or 'inf'")
    in
    let pp fmt = function
      | None -> Format.pp_print_string fmt "inf"
      | Some d -> Format.pp_print_int fmt d
    in
    Arg.(value & opt (conv (parse, pp)) (Some 4) & info [ "degree" ] ~docv:"D" ~doc)
  in
  let choice_arg =
    let choice_conv =
      Arg.enum
        [
          ("random", (Policy.random_useful, Sim_agent.Swarm));
          ("rarest-global", (Policy.rarest_first, Sim_agent.Swarm));
          ("rarest-local", (Policy.random_useful, Sim_agent.Neighbourhood));
        ]
    in
    Arg.(value & opt choice_conv (Policy.random_useful, Sim_agent.Swarm)
         & info [ "choice" ] ~docv:"NAME"
         ~doc:"Piece choice: random|rarest-global|rarest-local (rarest-local needs a finite \
               --degree; the fixed seed then sends a random useful piece).")
  in
  let replicated cfg ~horizon ~seed ~reps ~jobs ~faults ~on_error ~rep_timeout ~max_events
      ~progress:want_progress =
    let progress = if want_progress then Progress.create ~total:reps () else Progress.silent in
    let with_faults = not (Faults.is_none faults) in
    let metrics =
      [ "time-avg N"; "final N"; "transfers"; "silent contacts"; "mean overlay degree";
        "growth dN/dt" ]
      @ fault_metric_names faults
    in
    let thunk ~rng ~index:_ =
      let s, _ = Sim_agent.run ?max_events ~rng cfg ~horizon in
      Progress.add_events progress s.Sim_agent.events;
      let growth = (Classify.of_samples s.samples).growth_rate in
      let degree =
        if Float.is_nan s.mean_degree_time_avg then 0.0 else s.mean_degree_time_avg
      in
      let values =
        Array.append
          [| s.time_avg_n; float_of_int s.final_n; float_of_int s.transfers;
             float_of_int s.silent_contacts; degree; growth |]
          (if with_faults then
             [| s.outage_time; float_of_int s.aborted_peers; float_of_int s.lost_transfers |]
           else [||])
      in
      Runner.rep ~flagged:s.truncated ~obs:[| s.time_avg_n |] values
    in
    replication_table ~reps ~seed ~jobs ~on_error ?rep_timeout_s:rep_timeout ~progress ~metrics
      thunk
  in
  let run params horizon seed degree choice reps jobs faults on_error rep_timeout max_events
      tel =
    let policy, census = choice in
    if census = Sim_agent.Neighbourhood && Option.is_none degree then
      usage_error "--choice rarest-local needs a finite --degree";
    let cfg = { (Sim_agent.default_config params) with degree; policy; census; faults } in
    if reps > 1 then begin
      reject_single_run_telemetry tel;
      replicated cfg ~horizon ~seed ~reps ~jobs ~faults ~on_error ~rep_timeout ~max_events
        ~progress:tel.progress;
      report_effective_verdict params faults
    end
    else begin
      let s, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_agent.run_seeded ~probe ?max_events ~seed cfg ~horizon)
      in
      truncation_warning s.truncated;
      let r = Classify.of_samples s.samples in
      Report.kv
        ([
           ("verdict", Classify.verdict_to_string r.verdict);
           ("time-avg N", Report.fmt_float s.time_avg_n);
           ("transfers", string_of_int s.transfers);
           ("silent contacts", string_of_int s.silent_contacts);
           ( "mean overlay degree",
             if Float.is_nan s.mean_degree_time_avg then "-"
             else Report.fmt_float s.mean_degree_time_avg );
           ("components at end", string_of_int (List.length s.final_component_sizes));
         ]
        @ fault_rows faults (s.outage_time, s.aborted_peers, s.lost_transfers));
      report_effective_verdict params faults
    end
  in
  Cmd.v
    (Cmd.info "overlay" ~doc:"Simulate the swarm on a sparse random overlay")
    Term.(const run $ params_term $ horizon_arg $ seed_arg $ degree_arg $ choice_arg
          $ reps_arg ~default:1 $ jobs_arg $ faults_term $ on_error_arg $ rep_timeout_arg
          $ max_events_arg $ telemetry_term)

(* ---- hetero ---- *)

let hetero_cmd =
  let class_conv =
    let hint = "expected LABEL=MU,GAMMA,RATE, e.g. 'fast=2,inf,0.5' (GAMMA may be 'inf')" in
    let parse spec =
      let fail fmt = Printf.ksprintf (fun m -> Error (`Msg (m ^ "; " ^ hint))) fmt in
      match String.split_on_char '=' spec with
      | [ label; rest ] -> begin
          match String.split_on_char ',' rest with
          | [ mu; gamma; rate ] ->
              let parse_float name s k =
                if s = "inf" then k infinity
                else
                  match float_of_string_opt s with
                  | Some v -> k v
                  | None -> fail "bad %s %S in class spec %S" name s spec
              in
              parse_float "mu" mu (fun mu ->
                  parse_float "gamma" gamma (fun gamma ->
                      parse_float "rate" rate (fun rate ->
                          Ok
                            {
                              Hetero.label;
                              mu;
                              gamma;
                              arrivals = [ (Pieceset.empty, rate) ];
                            })))
          | _ -> fail "class spec %S is not of the form LABEL=MU,GAMMA,RATE" spec
        end
      | _ -> fail "class spec %S is not of the form LABEL=MU,GAMMA,RATE" spec
    in
    let pp fmt (c : Hetero.klass) =
      let rate = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 c.arrivals in
      Format.fprintf fmt "%s=%g,%g,%g" c.label c.mu c.gamma rate
    in
    Arg.conv (parse, pp)
  in
  let class_arg =
    let doc =
      "A peer class $(docv) as LABEL=MU,GAMMA,RATE (empty-handed arrivals at RATE; GAMMA may \
       be 'inf'); repeatable."
    in
    Arg.(value
         & opt_all class_conv
             [ { Hetero.label = "all"; mu = 1.0; gamma = 2.0; arrivals = [ (Pieceset.empty, 1.0) ] } ]
         & info [ "class"; "c" ] ~docv:"SPEC" ~doc)
  in
  let run k us horizon seed classes =
    let h = Hetero.make ~k ~us ~classes in
    Report.kv
      [
        ("heuristic verdict", Stability.verdict_to_string (Hetero.classify_heuristic h));
        ("m_bar (seed branching)", Report.fmt_float (Hetero.mean_seed_offspring h ~piece:0));
        ("heuristic threshold", Report.fmt_float (Hetero.threshold h ~piece:0));
        ("lambda_total", Report.fmt_float (Hetero.lambda_total h));
      ];
    let s = Hetero.simulate_seeded ~seed h ~horizon in
    truncation_warning s.truncated;
    let r = Classify.of_samples s.samples in
    Report.kv
      [
        ("simulated verdict", Classify.verdict_to_string r.verdict);
        ("time-avg N", Report.fmt_float s.time_avg_n);
      ];
    Report.subsection "per class";
    Report.table
      ~header:[ "class"; "mean N"; "mean sojourn" ]
      (List.mapi
         (fun i (c : Hetero.klass) ->
           [
             c.label;
             Report.fmt_float s.class_mean_n.(i);
             Report.fmt_float s.class_mean_sojourn.(i);
           ])
         classes)
  in
  Cmd.v
    (Cmd.info "hetero" ~doc:"Heterogeneous peer classes: heuristic region + simulation")
    Term.(const run $ k_arg $ us_arg $ horizon_arg $ seed_arg $ class_arg)

(* ---- exact ---- *)

let exact_cmd =
  let nmax_arg =
    Arg.(value & opt int 60 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for truncation.")
  in
  let run params nmax =
    let chain = Truncated.build params ~n_max:nmax in
    Printf.printf "enumerated %d states (n <= %d)\n%!" (Truncated.state_count chain) nmax;
    let pi = Truncated.stationary chain in
    Report.kv
      [
        ("exact E[N]", Report.fmt_float (Truncated.mean_population chain pi));
        ("P(empty)", Report.fmt_float (Truncated.probability_empty chain pi));
        ( "P(N >= n_max/2)",
          Report.fmt_float (Truncated.population_tail chain pi ~at_least:(nmax / 2)) );
        ("mass at cap (bias check)", Report.fmt_float (Truncated.truncation_mass_at_cap chain pi));
      ];
    Report.subsection "stationary mean count per type";
    List.iter
      (fun c ->
        let m = Truncated.mean_type_count chain pi c in
        if m > 1e-9 then
          Printf.printf "  %-12s %s\n" (Pieceset.to_string c) (Report.fmt_float m))
      (Pieceset.all ~k:params.k)
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact stationary distribution on a truncated state space (small K)")
    Term.(const run $ params_term $ nmax_arg)

(* ---- reachable ---- *)

let reachable_cmd =
  let policy_arg =
    let policy_conv =
      Arg.enum
        [
          ("random", Policy.random_useful);
          ("rarest", Policy.rarest_first);
          ("common", Policy.most_common_first);
          ("sequential", Policy.sequential);
        ]
    in
    Arg.(value & opt policy_conv Policy.sequential & info [ "policy" ] ~docv:"NAME"
         ~doc:"Piece selection: random|rarest|common|sequential.")
  in
  let nmax_arg =
    Arg.(value & opt int 4 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for the search.")
  in
  let run params policy nmax =
    let r = Reachability.explore ~policy params ~n_max:nmax in
    Report.kv
      [
        ("states explored", string_of_int r.states_explored);
        ("truncated", Report.fmt_bool r.truncated);
        ("peer types reachable", string_of_int (List.length r.types_seen));
        ( "prefix collections only (paper's sequential-policy claim)",
          Report.fmt_bool (Reachability.prefix_types_only ~k:params.k r.types_seen) );
        ( "all 2^K types reachable",
          Report.fmt_bool (Reachability.all_types_reachable ~k:params.k r.types_seen) );
      ];
    Printf.printf "types: %s\n"
      (String.concat " " (List.map Pieceset.to_string r.types_seen))
  in
  Cmd.v
    (Cmd.info "reachable"
       ~doc:"Explore the minimal closed set of states under a piece-selection policy")
    Term.(const run $ params_term $ policy_arg $ nmax_arg)

(* ---- borderline ---- *)

let borderline_cmd =
  let start_arg =
    Arg.(value & opt int 10 & info [ "start" ] ~docv:"N" ~doc:"Starting one-club size.")
  in
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Number of excursions.")
  in
  let cap_arg =
    Arg.(value & opt int 1_000_000 & info [ "cap" ] ~docv:"STEPS" ~doc:"Per-excursion step cap.")
  in
  let run k seed start count cap =
    let rng = P2p_prng.Rng.of_seed seed in
    let config = { Mu_infinity.k; lambda = 1.0 } in
    Printf.printf "mu = infinity watched process, K=%d (E[Z] = %g: zero drift on the top layer)\n"
      k (Mu_infinity.z_expectation ~k);
    let excursions = Mu_infinity.excursions rng config ~start_n:start ~count ~cap_steps:cap in
    let finished = List.filter (fun (e : Mu_infinity.excursion) -> not e.capped) excursions in
    let lengths = List.map (fun (e : Mu_infinity.excursion) -> float_of_int e.length) finished in
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (Int.max 1 (List.length l)) in
    Report.kv
      [
        ("excursions finished", Printf.sprintf "%d / %d" (List.length finished) count);
        ("mean excursion length (finished)", Report.fmt_float (mean lengths));
        ( "max peak",
          string_of_int
            (List.fold_left (fun acc (e : Mu_infinity.excursion) -> Int.max acc e.peak) 0
               excursions) );
      ]
  in
  Cmd.v (Cmd.info "borderline" ~doc:"The mu=infinity borderline process (Section VIII-D)")
    Term.(const run $ k_arg $ seed_arg $ start_arg $ count_arg $ cap_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let dir_arg =
    Arg.(required & opt (some string) None
         & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Campaign directory (the crash-safe store).")
  in
  let cell_timeout_arg =
    Arg.(value & opt (some (timeout_conv "cell timeout")) None
         & info [ "cell-timeout" ] ~docv:"SECS"
             ~doc:"Wall-clock watchdog per replication of a cell; an overrunning cell is a \
                   failure handled by --on-error (retried attempts use fresh deterministic \
                   streams and fresh watchdogs).")
  in
  let backoff_arg =
    Arg.(value & opt float 1.0
         & info [ "retry-backoff" ] ~docv:"SECS"
             ~doc:"Base exponential backoff before retry attempt A of a failing cell: \
                   $(docv) x 2^(A-1) seconds. 0 = retry immediately.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 25
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Seal the active store segment and write a checkpoint every $(docv) cells.")
  in
  let registry_arg =
    Arg.(value & opt (some string) None
         & info [ "registry" ] ~docv:"FILE"
             ~doc:"Experiment-log JSONL: append an entry (name, hypothesis, spec hash, exact \
                   command, cell counts, verdict) when the campaign ends, however it ends.")
  in
  let crash_after_arg =
    Arg.(value & opt (some int) None
         & info [ "crash-after" ] ~docv:"N"
             ~doc:"Testing hook: exit(99) immediately after persisting the $(docv)-th new cell \
                   record of this process — simulates a kill at a cell boundary.")
  in
  let campaign_flight_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-recorder" ] ~docv:"DIR"
             ~doc:"Keep a per-replication flight recorder and snapshot it atomically to \
                   $(docv)/cell-<index>-d<domain>.jsonl while each cell runs: a cell that \
                   crashes, outruns --cell-timeout, or is SIGKILLed leaves a complete, \
                   parseable dump of its last few thousand engine events behind (render with \
                   'p2psim report').")
  in
  let opts_term =
    let make jobs on_error cell_timeout backoff every progress registry crash_after flight =
      if not (Float.is_finite backoff) || backoff < 0.0 then
        usage_error "--retry-backoff must be a finite non-negative number of seconds";
      if every < 1 then usage_error "--checkpoint-every must be at least 1";
      {
        Campaign.default_options with
        jobs = (if jobs <= 0 then None else Some jobs);
        on_error;
        cell_timeout_s = cell_timeout;
        retry_backoff_s = backoff;
        checkpoint_every = every;
        progress;
        registry;
        command = String.concat " " (Array.to_list Sys.argv);
        crash_after_cells = crash_after;
        handle_signals = true;
        flight_recorder = flight;
      }
    in
    Term.(const make $ jobs_arg $ on_error_arg $ cell_timeout_arg $ backoff_arg
          $ checkpoint_every_arg $ progress_arg $ registry_arg $ crash_after_arg
          $ campaign_flight_arg)
  in
  let finish dir = function
    | Error msg ->
        prerr_endline ("p2psim campaign: " ^ msg);
        exit 1
    | Ok (o : Campaign.outcome) ->
        Report.kv
          [
            ("cells done", string_of_int o.cells_done);
            ("run by this process", string_of_int o.cells_run);
            ("failed cells", string_of_int o.failed);
            ( "status",
              if o.complete then "complete"
              else if o.interrupted then "interrupted"
              else "partial" );
          ];
        if o.complete then Printf.printf "results: %s\n" (Store.results_path ~dir)
        else begin
          Printf.printf "resume with: p2psim campaign resume --dir %s\n" dir;
          exit 3
        end
  in
  let run_cmd =
    let spec_arg =
      Arg.(required & pos 0 (some file) None
           & info [] ~docv:"SPEC.json" ~doc:"Campaign spec file.")
    in
    let run spec_file dir opts =
      match Campaign_spec.of_file spec_file with
      | Error msg -> usage_error "%s: %s" spec_file msg
      | Ok spec ->
          Printf.printf "campaign %S (spec hash %s)\n" spec.Campaign_spec.name
            (Campaign_spec.hash spec);
          finish dir (Campaign.run ~dir opts spec)
    in
    Cmd.v
      (Cmd.info "run" ~doc:"Start a campaign from a spec file")
      Term.(const run $ spec_arg $ dir_arg $ opts_term)
  in
  let resume_cmd =
    let run dir opts = finish dir (Campaign.resume ~dir opts) in
    Cmd.v
      (Cmd.info "resume"
         ~doc:"Continue a campaign from its store, quarantining any torn trailing record")
      Term.(const run $ dir_arg $ opts_term)
  in
  let status_cmd =
    let run dir =
      match Campaign.status ~dir with
      | Error msg -> usage_error "%s" msg
      | Ok json -> print_endline (Json.to_string json)
    in
    Cmd.v
      (Cmd.info "status" ~doc:"Summarise a campaign directory without modifying it")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Checkpointed parameter sweeps: crash-safe store, retry/backoff, resume")
    [ run_cmd; resume_cmd; status_cmd ]

(* ---- report ---- *)

let report_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Observability file, dispatched on its schema header: a probe series \
                   (--metrics-out), a histogram file (--hist-out), a JSONL flight recorder dump \
                   (--flight-recorder; the .json Chrome form is for chrome://tracing, not this \
                   command), or a detector timeline (--alerts-out).")
  in
  let render_monitor_replay (samples : Probe.sample array) =
    Report.subsection "online detector replay (missing piece syndrome)";
    if Array.length samples = 0 then print_endline "no samples to replay"
    else begin
      let m = Monitor.create () in
      Array.iter
        (fun (s : Probe.sample) ->
          Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
            ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
        samples;
      match Monitor.alerts m with
      | [] -> print_endline "detector quiet over the whole series"
      | alerts ->
          List.iter (fun a -> Format.printf "  %a@." Monitor.pp_alert a) alerts;
          Report.table
            ~header:[ "episode entered"; "exited" ]
            (List.map
               (fun (entered, exited) ->
                 [
                   Report.fmt_float entered;
                   (match exited with
                   | Some x -> Report.fmt_float x
                   | None -> "open at end of series");
                 ])
               (Monitor.episodes m))
    end
  in
  let render_hists file =
    match Hist.read_group_file file with
    | Error msg -> usage_error "cannot read %s: %s" file msg
    | Ok hists ->
        Printf.printf "%d histograms\n" (List.length hists);
        List.iter (fun nh -> Format.printf "%a@." Hist.pp_named nh) hists
  in
  let render_flight file =
    match Recorder.read_summary file with
    | Error msg -> usage_error "cannot read %s: %s" file msg
    | Ok ((capacity, recorded, dropped), events) ->
        Report.kv
          [
            ("ring capacity", string_of_int capacity);
            ("events recorded", string_of_int recorded);
            ("events overwritten", string_of_int dropped);
            ("events in dump", string_of_int (Array.length events));
          ];
        if Array.length events > 0 then begin
          let t0, _, _, _ = events.(0) in
          let t1, _, _, _ = events.(Array.length events - 1) in
          Report.kv [ ("sim-time span", Printf.sprintf "[%g, %g]" t0 t1) ];
          let counts = Hashtbl.create 16 in
          Array.iter
            (fun (_, code, _, _) ->
              Hashtbl.replace counts code (1 + Option.value ~default:0 (Hashtbl.find_opt counts code)))
            events;
          Report.subsection "event mix in the dump window";
          Report.table ~header:[ "event"; "count" ]
            (List.map
               (fun (code, n) -> [ Probe.code_name code; string_of_int n ])
               (List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts [])))
        end
  in
  let render_monitor_file file json =
    let ints path = Option.bind (Json.member path json) Json.to_int_opt in
    let lists path = Option.value ~default:[] (Option.bind (Json.member path json) Json.to_list_opt) in
    let alerts = lists "alerts" and episodes = lists "episodes" in
    Report.kv
      [
        ("samples", string_of_int (Option.value ~default:0 (ints "samples")));
        ("alerts", string_of_int (List.length alerts));
        ("episodes", string_of_int (List.length episodes));
      ];
    List.iter
      (fun a ->
        let f k = Option.bind (Json.member k a) Json.to_float_opt in
        let i k = Option.bind (Json.member k a) Json.to_int_opt in
        match (f "t", i "one_club", i "rarest_piece", i "rarest_count", f "slope", f "t_stat") with
        | Some t, Some club, Some piece, Some copies, Some slope, Some t_stat ->
            Printf.printf
              "  missing_piece_syndrome at t=%g: piece %d down to %d copies, one-club %d drifting %+g/t (t-stat %.2f)\n"
              t piece copies club slope t_stat
        | _ -> usage_error "malformed alert record in %s" file)
      alerts
  in
  let run file =
    let schema_of j = Option.bind (Json.member "schema" j) Json.to_string_opt in
    let first_record =
      match Json.read_jsonl_file file with
      | Error msg -> usage_error "cannot read %s: %s" file msg
      | Ok { Json.records = []; _ } -> usage_error "%s: no complete records" file
      | Ok { Json.records = r :: _; _ } -> r
    in
    match schema_of first_record with
    | Some "p2p-hist" -> render_hists file
    | Some s when s = Recorder.schema -> render_flight file
    | Some "p2p-monitor" -> render_monitor_file file first_record
    | Some "p2p-swarm-probe" -> begin
        match Series.read_file file with
        | Error msg -> usage_error "cannot read %s: %s" file msg
        | Ok s ->
        let k = Series.k s in
        let nsamples = Series.count s in
        Report.kv
          [
            ("samples", string_of_int nsamples);
            ("pieces (K)", string_of_int k);
            ("time-avg population N", Report.fmt_float (Series.avg_n s));
            ("time-avg peer seeds", Report.fmt_float (Series.avg_seeds s));
            ("time-avg one-club size", Report.fmt_float (Series.avg_one_club s));
            ("time-avg rarest-piece copies", Report.fmt_float (Series.avg_rarest_count s));
          ];
        Report.subsection "per-piece scarcity (time-averaged copies in the swarm)";
        let piece_avgs = Array.init k (fun i -> Series.avg_piece s i) in
        let rarest = ref 0 in
        Array.iteri (fun i v -> if v < piece_avgs.(!rarest) then rarest := i) piece_avgs;
        let avg_n = Series.avg_n s in
        Report.table
          ~header:[ "piece"; "avg copies"; "copies per peer"; "" ]
          (List.init k (fun i ->
               [
                 string_of_int (i + 1);
                 Report.fmt_float piece_avgs.(i);
                 (if avg_n > 0.0 then Report.fmt_float (piece_avgs.(i) /. avg_n) else "-");
                 (if i = !rarest then "<- rarest" else "");
               ]));
        Report.subsection "one-club growth (the missing piece syndrome witness)";
        let club = Series.one_club_series s in
        if Array.length club < 16 then
          Printf.printf "only %d samples; need at least 16 for a growth fit\n"
            (Array.length club)
        else begin
          let r = Classify.of_samples club in
          Report.kv
            [
              ("one-club growth rate", Report.fmt_float r.growth_rate ^ " peers/t");
              ("growth t-statistic", Report.fmt_float r.growth_t_stat);
              ("final one-club size", string_of_int r.final_n);
              ("one-club verdict", Classify.verdict_to_string r.verdict);
            ];
          if r.verdict = Classify.Appears_unstable then
            print_endline
              "one-club grows linearly: the missing piece syndrome transient signature \
               (Theorem 1, growth rate ~ Delta)"
        end;
        render_monitor_replay (Series.samples s)
      end
    | Some other -> usage_error "%s: unknown schema %S" file other
    | None ->
        usage_error
          "%s: no schema header (Chrome-trace .json dumps are for chrome://tracing, not report)"
          file
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render an observability file: probe series (scarcity, one-club growth, detector \
             replay), histograms, flight recorder dumps, or detector timelines")
    Term.(const run $ file_arg)

let () =
  let info = Cmd.info "p2psim" ~version:"1.0.0" ~doc:"P2P swarm stability toolkit (Zhu & Hajek)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd; simulate_cmd; fluid_cmd; region_cmd; overlay_cmd; hetero_cmd; coded_cmd; drift_cmd;
            exact_cmd; reachable_cmd; borderline_cmd; report_cmd; campaign_cmd;
          ]))
