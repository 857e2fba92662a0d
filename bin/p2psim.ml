(* p2psim: command-line front end to the stability library.

   Subcommands:
     classify  - Theorem 1 verdict for a parameter set
     simulate  - run the exact Markov simulator, or with --agent the per-peer
                 one (sparse overlays with --degree, peer classes with --class)
     fluid     - integrate the mean-field limit (--hybrid for CTMC handoff)
     region    - sweep lambda x us and print the phase diagram
     coded     - Theorem 15 thresholds and coded-swarm simulation
     drift     - Lyapunov drift scan (the Foster-Lyapunov certificate)
     exact     - exact stationary distribution on a truncated state space
     reachable - minimal closed set of states under a selection policy
     borderline- the mu = infinity watched process of Section VIII-D
     report    - render a probe series, histogram file, flight dump or alert timeline
     campaign  - checkpointed sweeps over a crash-safe result store *)

open Cmdliner
module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Runner = P2p_runner.Runner
module Welford = P2p_stats.Welford
module Probe = P2p_obs.Probe
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

(* A flag's value, its default when absent, and whether it was given. *)
let given ~default flag = Term.(const (fun v -> (Option.value v ~default, v <> None)) $ flag)

let arrivals_given =
  let doc =
    "Arrival stream $(docv) as PIECES=RATE, repeatable; PIECES is a comma-separated list of \
     1-based piece numbers, or 'none' for empty-handed peers. Example: --arrive none=1.0 \
     --arrive 1,2=0.3"
  in
  Term.map
    (function [] -> ([ (Pieceset.empty, 1.0) ], false) | specs -> (specs, true))
    Arg.(value & opt_all arrival_conv []
         & info [ "arrive"; "a" ] ~absent:"none=1" ~docv:"SPEC" ~doc)

let k_opt k = Arg.(value & opt int k & info [ "k"; "num-pieces" ] ~docv:"K" ~doc:"Number of pieces.")
let us_opt us = Arg.(value & opt float us & info [ "us" ] ~docv:"RATE" ~doc:"Fixed seed contact rate U_s.")
let k_arg = k_opt 4
let us_arg = us_opt 1.0

let mu_given =
  given ~default:1.0
    Arg.(value & opt (some float) None
         & info [ "mu" ] ~absent:"1" ~docv:"RATE" ~doc:"Peer contact rate mu.")

let gamma_given =
  let doc = "Peer-seed departure rate gamma; 'inf' means peers leave on completion." in
  let parse s =
    if s = "inf" || s = "infinity" then Ok infinity
    else match float_of_string_opt s with Some g -> Ok g | None -> Error (`Msg "bad gamma")
  in
  let gamma_conv = Arg.conv (parse, fun fmt g -> Format.fprintf fmt "%g" g) in
  given ~default:infinity
    Arg.(value & opt (some gamma_conv) None & info [ "gamma" ] ~absent:"inf" ~docv:"RATE" ~doc)

let mu_arg = Term.map fst mu_given
let gamma_arg = Term.map fst gamma_given

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

(* A float flag whose value must pass [ok]; otherwise a usage error
   saying "[what] must be [expect]". *)
let checked_float ~what ~expect ok =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "%s must be %s, got %S" what expect s))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let finite_positive v = Float.is_finite v && v > 0.0

let horizon_arg =
  let c = checked_float ~what:"horizon" ~expect:"a finite positive time" finite_positive in
  Arg.(value & opt c 1000.0 & info [ "horizon"; "t" ] ~docv:"TIME" ~doc:"Simulation horizon.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
       ~doc:"Write the sampled (t, N_t) trajectory as CSV.")

(* Model validation raises Invalid_argument naming the bad value; report
   it as a usage error (exit 124, as for a malformed flag) instead of an
   uncaught exception. *)
let validated build =
  Term.term_result' ~usage:true
    (Term.map (fun f -> try Ok (f ()) with Invalid_argument msg -> Error msg) build)

(* The model, and which of --mu, --gamma and --arrive were given (simulate
   rejects them beside --class, which replaces them). *)
let params_given_with k us =
  validated
    Term.(const
            (fun k us (mu, mu_set) (gamma, gamma_set) (arrivals, arrive_set) () ->
              let given =
                List.filter_map
                  (fun (flag, set) -> if set then Some flag else None)
                  [ ("--mu", mu_set); ("--gamma", gamma_set); ("--arrive", arrive_set) ]
              in
              (Params.make ~k ~us ~mu ~gamma ~arrivals, given))
          $ k $ us $ mu_given $ gamma_given $ arrivals_given)

let params_given_term = params_given_with k_arg us_arg
let params_term = Term.map fst params_given_term

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

let abort_rate_arg =
  let c =
    checked_float ~what:"abort rate" ~expect:"a finite non-negative number" (fun v ->
        Float.is_finite v && v >= 0.0)
  in
  Arg.(value & opt c 0.0
       & info [ "abort-rate" ] ~docv:"RATE"
           ~doc:"Churn: each unfinished peer aborts (leaves without the file) at rate $(docv).")

let loss_prob_arg =
  let c =
    checked_float ~what:"loss probability" ~expect:"in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)
  in
  Arg.(value & opt c 0.0
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
  checked_float ~what ~expect:"a finite positive number of seconds" finite_positive

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
  let c = checked_float ~what:"probe interval" ~expect:"a finite positive number" finite_positive in
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

let observe_sample m (s : Probe.sample) =
  Monitor.observe m ~time:s.time ~one_club:s.one_club ~rarest_piece:s.rarest_piece
    ~rarest_count:s.rarest_count

let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline ("p2psim: " ^ m); exit 2) fmt

(* Build the probe for a single run, hand it to [f], then flush the
   attached sinks (metrics file, trace file, flight dump, histogram
   file, monitor timeline, profile report).  The flight recorder is the
   crash-path sink: it dumps from the SIGINT/SIGTERM handlers and from
   the exception path, not just on clean exit, and keeps a rate-limited
   auto-snapshot on disk so even SIGKILL leaves the last complete ring
   behind. *)
let with_single_run_probe tel ~k ~horizon f =
  let monitoring = tel.monitor || tel.alerts_out <> None in
  let interval = Option.value tel.probe_interval ~default:(horizon /. 200.0) in
  let series =
    if tel.probe_interval <> None || tel.metrics_out <> None then
      Some (Series.create ~k ~interval)
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
    if tel.trace = None && tel.flight_recorder = None then Recorder.disabled
    else
      let r = Recorder.create ?log:tel.trace () in
      Option.iter (Recorder.auto_snapshot r ~every:(Recorder.capacity r) ~min_gap_s:1.0)
        tel.flight_recorder;
      r
  in
  let hists = match tel.hist_out with None -> Hist.disabled_group | Some _ -> Hist.group () in
  let prof = if tel.profile then Profile.create () else Profile.disabled in
  let bare =
    series = None && monitor = None
    && not (tel.profile || Recorder.live recorder || Hist.enabled hists)
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
              Option.iter (fun m -> observe_sample m s) monitor)
      in
      Probe.make
        ?interval:(if series <> None || monitor <> None then Some interval else None)
        ?on_sample ~profile:prof ~recorder ~hists ()
  in
  let dump_recorder ~out =
    match tel.flight_recorder with
    | Some file when Recorder.live recorder ->
        Recorder.dump recorder file;
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
        Fun.protect ~finally:restore (fun () ->
            try f probe
            with e ->
              dump_recorder ~out:stderr;
              raise e)
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
    (fun file ->
      Recorder.close recorder;
      Printf.printf "wrote %d trace events to %s\n" (Recorder.recorded recorder) file)
    tel.trace;
  if tel.profile then Format.printf "%a@." Profile.pp prof;
  result

(* ---- one run's report and the replication sweep ---- *)

(* What a command reads off one run of any backend: a private projection
   of the backend's own stats record.  [rows] is the single-run key-value
   block (counts print as integers through [Report.fmt_float]), and the
   --reps table reads its metrics off it by label; [detail] prints the
   backend's tables after it. *)
type summary = {
  events : int;
  truncated : bool;
  samples : (float * int) array;
  rows : (string * float) list;
  detail : unit -> unit;
}

let summary ?(detail = ignore) ~events ~truncated ~samples rows =
  { events; truncated; samples; rows; detail }

let fault_rows faults (outage_time, aborted, lost) =
  if Faults.is_none faults then []
  else
    [
      ("seed outage time", outage_time);
      ("aborted peers", float_of_int aborted);
      ("lost transfers", float_of_int lost);
    ]

(* Degraded-seed commentary: what the stability criterion [classify]
   (named [criterion]) says at U_s scaled by the outage duty cycle. *)
let effective_verdict ?(criterion = "Theorem 1") ~us ~classify (faults : Faults.t) () =
  match faults.outage with
  | None -> ()
  | Some _ ->
      let us = Faults.effective_us faults ~us in
      Printf.printf "seed uptime fraction %.4f: effective U_s = %s; %s there: %s\n"
        (Faults.uptime_fraction faults) (Report.fmt_float us) criterion
        (Stability.verdict_to_string (classify us))

let truncation_warning truncated =
  if truncated then
    print_endline "WARNING: max_events budget exhausted before the horizon; \
                   time-based statistics are biased"

(* Every single run's report, whatever the command or backend:
   truncation warning, key-value rows, the backend's tables, empirical
   verdict, effective verdict, trajectory CSV. *)
let print_run ?(effective = ignore) ?csv s =
  truncation_warning s.truncated;
  Report.kv (List.map (fun (label, v) -> (label, Report.fmt_float v)) s.rows);
  s.detail ();
  let r = Classify.of_samples s.samples in
  Printf.printf "empirical verdict: %s (growth %s/t)\n"
    (Classify.verdict_to_string r.verdict)
    (Report.fmt_float r.growth_rate);
  effective ();
  (* The trajectory CSV goes through write-tmp-then-rename like every
     other emitter: a crash mid-write leaves the previous file (or
     nothing), never a torn one. *)
  Option.iter
    (fun file ->
      Json.write_file_atomic file (fun oc ->
          output_string oc "time,population\n";
          Array.iter (fun (t, n) -> Printf.fprintf oc "%g,%d\n" t n) s.samples);
      Printf.printf "wrote %s\n" file)
    csv

let report_failures (timing : Runner.timing) =
  if timing.failures <> [] then begin
    Printf.printf "failed replications (excluded from aggregates):\n";
    List.iter (fun f -> Format.printf "  @[<v>%a@]@." Runner.pp_failure f) timing.failures
  end;
  if timing.interrupted then
    print_endline "interrupted by SIGINT: aggregates cover completed chunks only"

(* The flags every simulating command shares. *)
type runs = {
  horizon : float;
  seed : int;
  reps : int;
  jobs : int;
  on_error : Runner.on_error;
  rep_timeout : float option;
  max_events : int option;
  tel : telemetry;
}

let runs_term =
  let make horizon seed reps jobs on_error rep_timeout max_events tel =
    { horizon; seed; reps; jobs; on_error; rep_timeout; max_events; tel }
  in
  Term.(const make $ horizon_arg $ seed_arg $ reps_arg ~default:1 $ jobs_arg $ on_error_arg
        $ rep_timeout_arg $ max_events_arg $ telemetry_term)

(* The one replication sweep: R independent runs of [sim], merged
   Welford per metric, printed as a mean +- CI table.  The metrics are
   the summary rows labelled [metrics], the growth rate, then the fault
   counters when faults are injected.  Aggregates are bit-identical for
   every --jobs value (and under skip/retry: surviving replications keep
   their streams).  [after_table] slots commentary between the table and
   the partial/failure report. *)
let replicated (r : runs) ~faults ~metrics ~after_table sim =
  let progress = if r.tel.progress then Progress.create ~total:r.reps () else Progress.silent in
  let fault_metrics =
    if Faults.is_none faults then []
    else [ ("outage time", "seed outage time"); ("aborted peers", "aborted peers");
           ("lost transfers", "lost transfers") ]
  in
  let thunk ~rng ~index:_ =
    let s = sim ~probe:Probe.none ~rng in
    Progress.add_events progress s.events;
    let row label = List.assoc label s.rows in
    let growth = (Classify.of_samples s.samples).growth_rate in
    Runner.rep ~flagged:s.truncated
      (Array.of_list
         (List.map row metrics @ (growth :: List.map (fun (_, l) -> row l) fault_metrics)))
  in
  let summary =
    Runner.run_summary ~jobs:(resolve_jobs r.jobs) ~on_error:r.on_error
      ?rep_timeout_s:r.rep_timeout ~handle_sigint:true ~progress
      ~metrics:(metrics @ ("growth dN/dt" :: List.map fst fault_metrics))
      ~master_seed:r.seed ~replications:r.reps thunk
  in
  Printf.printf "%d replications (master seed %d)\n" r.reps r.seed;
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

let reject_single_run_telemetry tel =
  List.iter
    (fun (set, flag, why) -> if set then usage_error "%s requires --reps 1 (%s)" flag why)
    [
      (tel.trace <> None, "--trace", "per-replication traces would interleave");
      (tel.metrics_out <> None, "--metrics-out", "one probe series per run");
      (tel.flight_recorder <> None, "--flight-recorder", "one ring per run; campaigns have their own");
      (tel.monitor || tel.alerts_out <> None, "--monitor", "one detector per run");
      (tel.hist_out <> None, "--hist-out", "per-replication histograms would interleave");
      (tel.profile, "--profile", "one profiler per run");
      (tel.probe_interval <> None, "--probe-interval", "one probe series per run");
    ]

(* One probed run of [sim] at --seed through [print_run], or with
   --reps > 1 a [replicated] sweep. *)
let run_backend (r : runs) ~k ~faults ~metrics ?(effective = ignore) ?csv sim =
  if r.reps > 1 then begin
    reject_single_run_telemetry r.tel;
    replicated r ~faults ~metrics ~after_table:effective sim
  end
  else
    print_run ~effective ?csv
      (with_single_run_probe r.tel ~k ~horizon:r.horizon (fun probe ->
           sim ~probe ~rng:(Rng.of_seed r.seed)))

(* ---- classify ---- *)

let classify_cmd =
  let run (params : Params.t) =
    Format.printf "%a@." Params.pp params;
    let verdict, piece, margin = Stability.classify_detail params in
    (* Theorem 1's witness: the fluid from the binding piece's one-club,
       on S_{K−1} orbits, grows at Δ while the club lasts (mass ≫ |Δ|·T). *)
    let one_club =
      if Params.mu_over_gamma params >= 1.0 then []
      else begin
        let delta = Stability.delta params ~s:(Pieceset.remove piece (Params.full_set params)) in
        let mass = 4e6 *. Float.max 1.0 (Float.abs delta) in
        [
          ("Delta (one-club drift, Eq. 4)", Report.fmt_float delta);
          ( "fluid one-club slope",
            match Sim_fluid.one_club_slope ~mass params ~piece with
            | Some slope -> Report.fmt_float slope
            | None -> "n/a (arrivals not invariant around the binding piece)" );
        ]
      end
    in
    Report.kv
      ([
         ("verdict (Theorem 1)", Stability.verdict_to_string verdict);
         ("binding piece", string_of_int (piece + 1));
         ("threshold", Report.fmt_float (Stability.threshold params ~piece));
         ("lambda_total", Report.fmt_float (Params.lambda_total params));
         ("margin", Report.fmt_float margin);
         ("max stable lambda (same mix)", Report.fmt_float (Stability.stable_lambda_limit params));
       ]
      @ one_club);
    Report.subsection "Delta_S for every proper subset S (Eq. 4; all < 0 iff stable)";
    if params.k > 12 then
      Printf.printf "  (2^%d - 1 subsets: listed up to K = 12; their maximum is Delta above)\n"
        params.k
    else
      List.iter
        (fun s ->
          Printf.printf "  Delta_%-12s = %s\n" (Pieceset.to_string s)
            (Report.fmt_float (Stability.delta params ~s)))
        (Pieceset.all_proper ~k:params.k)
  in
  Cmd.v (Cmd.info "classify" ~doc:"Theorem 1 verdict for a parameter set")
    Term.(const run $ params_term)

(* ---- simulate ---- *)

let policies =
  [
    ("random", Policy.random_useful);
    ("rarest", Policy.rarest_first);
    ("common", Policy.most_common_first);
    ("sequential", Policy.sequential);
  ]

let class_conv =
  let hint = "expected LABEL=MU,GAMMA,RATE, e.g. 'fast=2,inf,0.5' (GAMMA may be 'inf')" in
  let parse spec =
    let fail fmt = Printf.ksprintf (fun m -> Error (`Msg (m ^ "; " ^ hint))) fmt in
    match List.map (String.split_on_char ',') (String.split_on_char '=' spec) with
    | [ [ label ]; [ mu; gamma; rate ] ] ->
        let num name s =
          match float_of_string_opt s with
          | Some v -> Ok v
          | None -> fail "bad %s %S in class spec %S" name s spec
        in
        let ( let* ) = Result.bind in
        let* mu = num "mu" mu in
        let* gamma = num "gamma" gamma in
        let* rate = num "rate" rate in
        Ok { Params.label; mu; gamma; arrivals = [ (Pieceset.empty, rate) ] }
    | _ -> fail "class spec %S is not of the form LABEL=MU,GAMMA,RATE" spec
  in
  Arg.conv (parse, fun fmt (c : Params.klass) -> Format.pp_print_string fmt c.label)

let markov_summary faults (s : Sim_markov.stats) =
  summary ~events:s.events ~truncated:s.truncated ~samples:s.samples
    ([
       ("events", float_of_int s.events);
       ("arrivals", float_of_int s.arrivals);
       ("transfers", float_of_int s.transfers);
       ("departures", float_of_int s.departures);
       ("time-avg N", s.time_avg_n);
       ("max N", float_of_int s.max_n);
       ("final N", float_of_int s.final_n);
       ("visits to empty", float_of_int s.visits_to_empty);
     ]
    @ fault_rows faults (s.outage_time, s.aborted_peers, s.lost_transfers))

(* A sparse overlay adds its silent-contact, degree and component rows;
   [per_class] adds the --class table. *)
let agent_summary ~per_class (config : Sim_agent.config) (s : Sim_agent.stats) =
  let per_class_table () =
    Report.subsection "per class";
    Report.table
      ~header:[ "class"; "mean N"; "mean sojourn" ]
      (List.mapi
         (fun i (c : Params.klass) ->
           [
             c.label;
             Report.fmt_float s.class_mean_n.(i);
             Report.fmt_float s.class_mean_sojourn.(i);
           ])
         config.classes)
  in
  summary ~events:s.events ~truncated:s.truncated ~samples:s.samples
    ~detail:(if per_class then per_class_table else ignore)
    ([
       ("events", float_of_int s.events);
       ("arrivals", float_of_int s.arrivals);
       ("transfers", float_of_int s.transfers);
       ("departures", float_of_int s.departures);
       ("time-avg N", s.time_avg_n);
       ("max N", float_of_int s.max_n);
       ("final N", float_of_int s.final_n);
       ("mean sojourn", s.mean_sojourn);
       ("one-club fraction", s.one_club_time_fraction);
     ]
    @ (if config.degree = None then []
       else
         [
           ("silent contacts", float_of_int s.silent_contacts);
           ("mean overlay degree", s.mean_degree_time_avg);
           ("components at end", float_of_int (List.length s.final_component_sizes));
         ])
    @ fault_rows config.faults (s.outage_time, s.aborted_peers, s.lost_transfers))

type backend = Markov of Sim_markov.config | Agent of Sim_agent.config

let simulate_cmd =
  let agent_arg =
    Arg.(value & flag & info [ "agent" ] ~doc:"Use the agent-level simulator (tracks groups).")
  in
  let policy_arg =
    let policy_conv =
      Arg.enum
        (List.map (fun (name, p) -> (name, (p, Sim_agent.Swarm))) policies
        @ [ ("rarest-local", (Policy.random_useful, Sim_agent.Neighbourhood)) ])
    in
    Arg.(value & opt policy_conv (Policy.random_useful, Sim_agent.Swarm)
         & info [ "policy" ] ~docv:"NAME"
         ~doc:"Piece selection: random|rarest|common|sequential|rarest-local.  With \
               rarest-local a peer uploader sends the useful piece rarest among itself and \
               its overlay neighbours, and the fixed seed a random useful piece; it needs \
               --agent and a finite --degree.")
  in
  let degree_arg =
    let parse s =
      if s = "inf" then Ok None
      else
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok (Some d)
        | Some _ | None -> Error (`Msg "degree must be a positive integer or 'inf'")
    in
    let pp fmt d = Format.pp_print_string fmt (Option.fold ~none:"inf" ~some:string_of_int d) in
    Arg.(value & opt (conv (parse, pp)) None
         & info [ "degree" ] ~docv:"D"
             ~doc:"With --agent: each arriving peer attaches to $(docv) uniformly chosen peers \
                   and uploads only to its overlay neighbours; the fixed seed stays globally \
                   reachable. 'inf' (the default) is the complete graph, the paper's model.")
  in
  let class_arg =
    Arg.(value & opt_all class_conv []
         & info [ "class"; "c" ] ~docv:"SPEC"
             ~doc:"With --agent: a peer class $(docv) as LABEL=MU,GAMMA,RATE (empty-handed \
                   arrivals at RATE; GAMMA may be 'inf'); repeatable. Replaces --mu, --gamma \
                   and --arrive.")
  in
  (* The backend's config, built and checked before any run: a model
     error is a usage error. *)
  let model_term =
    let make ((params : Params.t), given) agent degree classes (policy, census) faults () =
      if census = Sim_agent.Neighbourhood && (degree = None || not agent) then
        invalid_arg "--policy rarest-local needs --agent and a finite --degree";
      if agent then begin
        let base =
          if classes = [] then Sim_agent.default_config params
          else if given <> [] then
            invalid_arg
              (Printf.sprintf "--class replaces --mu, --gamma and --arrive; drop %s"
                 (String.concat ", " given))
          else Sim_agent.class_config ~k:params.k ~us:params.us classes
        in
        let config = { base with policy; census; degree; faults } in
        Sim_agent.validate config;
        (params, classes, Agent config)
      end
      else begin
        if degree <> None then invalid_arg "--degree needs --agent";
        if classes <> [] then invalid_arg "--class needs --agent";
        (params, classes, Markov { (Sim_markov.default_config params) with policy; faults })
      end
    in
    validated
      Term.(const make $ params_given_term $ agent_arg $ degree_arg $ class_arg $ policy_arg
            $ faults_term)
  in
  let run (params, classes, backend) csv (r : runs) =
    let { Params.k; us; _ } = params in
    let classify us =
      if classes = [] then Stability.classify (Params.with_us params ~us)
      else Stability.classify_classes ~k ~us classes
    in
    if classes <> [] then
      Report.kv
        [
          ("heuristic verdict", Stability.verdict_to_string (classify us));
          ( "m_bar (seed branching)",
            Report.fmt_float (Stability.mean_seed_offspring classes ~piece:0) );
          ( "heuristic threshold",
            Report.fmt_float (Stability.class_threshold ~k ~us classes ~piece:0) );
          ( "lambda_total",
            Report.fmt_float
              (List.fold_left (fun acc (_, rate) -> acc +. rate) 0.0
                 (List.concat_map (fun (c : Params.klass) -> c.arrivals) classes)) );
        ];
    let metrics = [ "time-avg N"; "final N"; "transfers"; "departures" ] in
    let faults, metrics, sim =
      match backend with
      | Markov config ->
          ( config.faults,
            metrics,
            fun ~probe ~rng ->
              Sim_markov.run ~probe ?max_events:r.max_events ~rng config ~horizon:r.horizon
              |> fst |> markov_summary config.faults )
      | Agent config ->
          ( config.faults,
            (if config.degree = None then metrics
             else metrics @ [ "silent contacts"; "mean overlay degree" ]),
            fun ~probe ~rng ->
              let s, _ =
                Sim_agent.run ~probe ?max_events:r.max_events ~rng config ~horizon:r.horizon
              in
              agent_summary ~per_class:(classes <> []) config s )
    in
    let criterion = if classes = [] then "Theorem 1" else "the class heuristic" in
    run_backend r ~k ~faults ~metrics ?csv
      ~effective:(effective_verdict ~criterion ~us ~classify faults) sim
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the exact stochastic simulation")
    Term.(const run $ model_term $ csv_arg $ runs_term)

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
  let run (params : Params.t) horizon seed init rtol atol hybrid switch_up switch_down csv faults
      max_events tel =
    let control =
      try Ode.control ~rtol ~atol ()
      with Invalid_argument m -> usage_error "%s" m
    in
    let effective =
      effective_verdict ~us:params.us
        ~classify:(fun us -> Stability.classify (Params.with_us params ~us))
        faults
    in
    let fault_rows (outage_time, aborted_mass, lost_mass) =
      if Faults.is_none faults then []
      else
        [
          ("seed outage time", outage_time);
          ("aborted mass", aborted_mass);
          ("lost upload mass", lost_mass);
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
      let s, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_hybrid.run_seeded ~probe ?max_events ~seed config ~horizon)
      in
      let handoffs () =
        if s.switches <> [] then begin
          Report.subsection "regime handoffs";
          List.iter
            (fun (h : Sim_hybrid.switch) ->
              Printf.printf "  t=%-12s %s at N=%s\n" (Report.fmt_float h.at)
                (if h.to_fluid then "stochastic -> fluid" else "fluid -> stochastic")
                (Report.fmt_float h.n))
            s.switches
        end
      in
      print_run ~effective ?csv
        (summary ~events:s.events ~truncated:s.truncated ~samples:s.samples ~detail:handoffs
           ([
              ("events", float_of_int s.events);
              ("stochastic events", float_of_int s.markov_events);
              ("fluid steps", float_of_int s.fluid_steps);
              ("handoffs", float_of_int (List.length s.switches));
              ("arrivals", s.arrivals);
              ("transfers", s.transfers);
              ("departures", s.departures);
              ("time-avg N", s.time_avg_n);
              ("max N", float_of_int s.max_n);
              ("final N", s.final_n);
              ("visits to empty", float_of_int s.visits_to_empty);
            ]
           @ fault_rows (s.outage_time, s.aborted, s.lost)))
    end
    else begin
      let config = { (Sim_fluid.default_config params) with initial = init; faults; control } in
      let s, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_fluid.run_seeded ~probe ~seed config ~horizon)
      in
      (* Named only when the run was lumped: a 2^K run prints as it always did. *)
      let layout () =
        match s.layout with
        | Sim_fluid.Types -> ()
        | Orbits piece ->
            Printf.printf "state layout: %d orbit masses (S_%d orbits around piece %d)\n"
              (2 * params.k) (params.k - 1) (piece + 1)
      in
      print_run ~effective ?csv
        (summary ~events:s.steps ~truncated:s.truncated ~samples:s.samples ~detail:layout
           ([
              ("accepted steps", float_of_int s.steps);
              ("rejected steps", float_of_int s.rejected_steps);
              ("rhs evaluations", float_of_int s.rhs_evals);
              ("arrival mass", s.arrivals);
              ("transfer mass", s.transfers);
              ("departure mass", s.departures);
              ("time-avg N", s.time_avg_n);
              ("max N", float_of_int s.max_n);
              ("final N", s.final_n);
            ]
           @ fault_rows (s.outage_time, s.aborted_mass, s.lost_mass)))
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
  (* the gift workload with its Theorem 15 verdict, which validates it *)
  let gift_term =
    validated
      Term.(const (fun k q f us mu gamma () ->
                let g = { Stability.Coded.q; k; us; mu; gamma; lambda0 = 1.0 -. f; lambda1 = f } in
                (g, Stability.Coded.classify g))
            $ k_arg $ q_arg $ f_arg $ us_arg $ mu_arg $ gamma_arg)
  in
  let run ((g : Stability.Coded.gift_params), verdict) sim faults (r : runs) =
    let { Stability.Coded.q; k; _ } = g in
    Report.kv
      [
        ( "transient if f < (U_s = 0, gamma = inf)",
          Report.fmt_float (Stability.Coded.transient_f_threshold ~q ~k) );
        ( "recurrent if f > (exact, U_s = 0, gamma = inf)",
          Report.fmt_float (Stability.Coded.recurrent_f_threshold_exact ~q ~k) );
        ("verdict at f", Stability.verdict_to_string verdict);
      ];
    if sim || r.reps > 1 then begin
      let config = { (Sim_coded.of_gift g) with faults } in
      (* In coded traces and probes the subspace dimension plays the
         role of the piece index, so the probe series has k slots. *)
      run_backend r ~k ~faults
        ~metrics:[ "time-avg N"; "final N"; "useful transfers"; "useless transfers"; "completions" ]
        (fun ~probe ~rng ->
          let s = Sim_coded.run ~probe ?max_events:r.max_events ~rng config ~horizon:r.horizon in
          summary ~events:s.events ~truncated:s.truncated ~samples:s.samples
            ([
               ("time-avg N", s.time_avg_n);
               ("final N", float_of_int s.final_n);
               ("useful transfers", float_of_int s.useful_transfers);
               ("useless transfers", float_of_int s.useless_transfers);
               ("completions", float_of_int s.completions);
               ("near-complete fraction", s.near_complete_fraction);
             ]
            @ fault_rows faults (s.outage_time, s.aborted_peers, s.lost_transfers)))
    end
  in
  Cmd.v (Cmd.info "coded" ~doc:"Theorem 15: network coding thresholds and simulation")
    Term.(const run $ gift_term $ sim_arg $ faults_term $ runs_term)

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

(* ---- exact ---- *)

let exact_cmd =
  let nmax_arg =
    Arg.(value & opt int 60 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for truncation.")
  in
  (* K = 2, U_s = 2: stable, and solved in about a second at the default cap
     (the shared K = 4, U_s = 1 is borderline and beyond the space guard). *)
  let chain_term =
    validated
      Term.(const (fun (params : Params.t) nmax () -> (params, nmax, Truncated.build params ~n_max:nmax))
            $ Term.map fst (params_given_with (k_opt 2) (us_opt 2.0)) $ nmax_arg)
  in
  let run ((params : Params.t), nmax, chain) =
    Printf.printf "enumerated %d states (n <= %d)\n%!" (Truncated.state_count chain) nmax;
    (* The mass at the cap is only known to the solver's tolerance:
       below it, its digits are noise that any sweep order moves. *)
    let tol = 1e-10 in
    let pi = Truncated.stationary ~tol chain in
    let cap_mass = Truncated.truncation_mass_at_cap chain pi in
    Report.kv
      [
        ("exact E[N]", Report.fmt_float (Truncated.mean_population chain pi));
        ("P(empty)", Report.fmt_float (Truncated.probability_empty chain pi));
        ( "P(N >= n_max/2)",
          Report.fmt_float (Truncated.population_tail chain pi ~at_least:(nmax / 2)) );
        ( "mass at cap (bias check)",
          if cap_mass < tol then Printf.sprintf "< %g" tol else Report.fmt_float cap_mass );
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
    Term.(const run $ chain_term)

(* ---- reachable ---- *)

let reachable_cmd =
  let policy_arg =
    Arg.(value & opt (enum policies) Policy.sequential & info [ "policy" ] ~docv:"NAME"
         ~doc:"Piece selection: random|rarest|common|sequential.")
  in
  let nmax_arg =
    Arg.(value & opt int 4 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for the search.")
  in
  let explored_term =
    validated
      Term.(const (fun (params : Params.t) policy nmax () ->
                (params, Reachability.explore ~policy params ~n_max:nmax))
            $ params_term $ policy_arg $ nmax_arg)
  in
  let run ((params : Params.t), (r : Reachability.result)) =
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
    Term.(const run $ explored_term)

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
  let config_term =
    validated
      Term.(const (fun k () ->
                let config = { Mu_infinity.k; lambda = 1.0 } in
                Mu_infinity.validate config;
                config)
            $ k_arg)
  in
  let run ({ Mu_infinity.k; _ } as config) seed start count cap =
    let rng = Rng.of_seed seed in
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
    Term.(const run $ config_term $ seed_arg $ start_arg $ count_arg $ cap_arg)

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
  (* One line per alert, unflushed, in the detector's own format. *)
  let print_alert a = Printf.printf "  %s\n" (Format.asprintf "%a" Monitor.pp_alert a) in
  let render_monitor_replay m =
    Report.subsection "online detector replay (missing piece syndrome)";
    if Monitor.samples_seen m = 0 then print_string "no samples to replay\n"
    else
      match Monitor.alerts m with
      | [] -> print_string "detector quiet over the whole series\n"
      | alerts ->
          List.iter print_alert alerts;
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
            ("events in file", string_of_int (Array.length events));
          ];
        if Array.length events > 0 then begin
          let t0, _ = events.(0) and t1, _ = events.(Array.length events - 1) in
          Report.kv [ ("sim-time span", Printf.sprintf "[%g, %g]" t0 t1) ];
          let counts = Array.make Recorder.n_event_codes 0 in
          Array.iter (fun (_, code) -> counts.(code) <- counts.(code) + 1) events;
          Report.subsection "event mix in the file";
          Report.table ~header:[ "event"; "count" ]
            (List.filter_map
               (fun code ->
                 if counts.(code) = 0 then None
                 else Some [ Recorder.code_name code; string_of_int counts.(code) ])
               (List.init Recorder.n_event_codes Fun.id))
        end
  in
  let render_monitor_file file =
    (* the dispatch read one line; corruption past it must still fail *)
    let json =
      match Json.read_jsonl_file file with
      | Error msg -> usage_error "cannot read %s: %s" file msg
      | Ok { Json.records; _ } -> List.hd records
    in
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
      (fun j ->
        match Monitor.alert_of_json j with
        | Some a -> print_alert a
        | None -> usage_error "malformed alert record in %s" file)
      alerts
  in
  let run file =
    let schema_of j = Option.bind (Json.member "schema" j) Json.to_string_opt in
    let no_header () =
      usage_error
        "%s: no schema header (Chrome-trace .json dumps are for chrome://tracing, not report)" file
    in
    (* A Chrome-format trace or dump is one JSON array, not JSONL records. *)
    let json_array () =
      try In_channel.with_open_bin file In_channel.input_char = Some '[' with Sys_error _ -> false
    in
    let first_record =
      match Json.first_record file with
      | Error _ when json_array () -> no_header ()
      | Error msg -> usage_error "cannot read %s: %s" file msg
      | Ok None -> usage_error "%s: no complete records" file
      | Ok (Some r) -> r
    in
    match schema_of first_record with
    | Some "p2p-hist" -> render_hists file
    | Some s when s = Recorder.schema -> render_flight file
    | Some "p2p-monitor" -> render_monitor_file file
    | Some "p2p-swarm-probe" -> begin
        match Series.read_file file with
        | Error msg -> usage_error "cannot read %s: %s" file msg
        | Ok s ->
        let k = Series.k s and n = Series.count s in
        (* One pass over the stored runs feeds the growth fit's one-club
           trace and the detector replay. *)
        let times = Array.create_float n and clubs = Array.create_float n in
        let m = Monitor.create () and i = ref 0 in
        Series.iter s (fun at x ->
            times.(!i) <- at.time;
            clubs.(!i) <- float_of_int x.one_club;
            incr i;
            Monitor.observe m ~time:at.time ~one_club:x.one_club ~rarest_piece:x.rarest_piece
              ~rarest_count:x.rarest_count);
        Report.kv
          [
            ("samples", string_of_int n);
            ("pieces (K)", string_of_int k);
            ("time-avg population N", Report.fmt_float (Series.avg_n s));
            ("time-avg peer seeds", Report.fmt_float (Series.avg_seeds s));
            ("time-avg one-club size", Report.fmt_float (Series.avg_one_club s));
            ("time-avg rarest-piece copies", Report.fmt_float (Series.avg_rarest_count s));
          ];
        Report.subsection "per-piece scarcity (time-averaged copies in the swarm)";
        let piece_avgs = Array.init k (fun i -> Series.avg_piece s i) in
        let avg_n = Series.avg_n s in
        let rarest = ref 0 in
        Array.iteri (fun i v -> if v < piece_avgs.(!rarest) then rarest := i) piece_avgs;
        (* No time elapsed: every average is nan, and no piece is rarest. *)
        let rarest = if Float.is_nan avg_n then -1 else !rarest in
        Report.table
          ~header:[ "piece"; "avg copies"; "copies per peer"; "" ]
          (List.init k (fun i ->
               [
                 string_of_int (i + 1);
                 Report.fmt_float piece_avgs.(i);
                 (if avg_n > 0.0 then Report.fmt_float (piece_avgs.(i) /. avg_n) else "-");
                 (if i = rarest then "<- rarest" else "");
               ]));
        Report.subsection "one-club growth (the missing piece syndrome witness)";
        (if n < 16 then Printf.printf "only %d samples; need at least 16 for a growth fit\n" n
         else
           match Classify.of_points (Arrays (times, clubs)) with
           | exception Invalid_argument _ ->
               Printf.printf "the last %d samples are at one time; no growth fit\n" (n - (n / 2))
           | r ->
               Report.kv
                 [
                   ("one-club growth rate", Report.fmt_float r.growth_rate ^ " peers/t");
                   ("growth t-statistic", Report.fmt_float r.growth_t_stat);
                   ("final one-club size", string_of_int r.final_n);
                   ("one-club verdict", Classify.verdict_to_string r.verdict);
                 ];
               if r.verdict = Classify.Appears_unstable then
                 print_string
                   "one-club grows linearly: the missing piece syndrome transient signature \
                    (Theorem 1, growth rate ~ Delta)\n");
        render_monitor_replay m
      end
    | Some other -> usage_error "%s: unknown schema %S" file other
    | None -> no_header ()
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
            classify_cmd; simulate_cmd; fluid_cmd; region_cmd; coded_cmd; drift_cmd; exact_cmd;
            reachable_cmd; borderline_cmd; report_cmd; campaign_cmd;
          ]))
