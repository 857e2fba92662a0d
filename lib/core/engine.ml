module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Profile = P2p_obs.Profile
module Hist = P2p_obs.Hist
module Grid = P2p_obs.Grid
module Vec = P2p_stats.Vec
module Timeavg = P2p_stats.Timeavg
module Runner = P2p_runner.Runner

type counters = {
  mutable events : int;
  mutable arrivals : int;
  mutable transfers : int;
  mutable completions : int;
  mutable departures : int;
  mutable aborted : int;
  mutable lost : int;
  mutable max_n : int;
}

(* The clock lives in its own float-only record, which OCaml stores
   flat: writing it never boxes a float.  In [t] itself, next to the
   pointer fields, each write would allocate.  The grids are flat for
   the same reason. *)
type times = { mutable clock : float }

type resume = { t0 : float; sample_grid : Grid.t; probe_grid : Grid.t; frun : Faults.run }

type t = {
  probe : Probe.t;
  run : resume;  (* the segment's start, grids and fault run *)
  horizon : float;
  max_events : int;
  counters : counters;
  avg : Timeavg.t;
  samples : (float * int) Vec.t;
  times : times;
  mutable truncated : bool;
  mutable stop_requested : bool;
}

let counters t = t.counters
let faults t = t.run.frun
let start_time t = t.run.t0
let request_stop t = t.stop_requested <- true

let default_step ~horizon = Float.max (horizon /. 200.0) 1e-9

let start ?(probe = Probe.none) ?sample_every ~rng ~faults ~horizon () =
  let step = match sample_every with Some dt -> dt | None -> default_step ~horizon in
  {
    t0 = 0.0;
    sample_grid = Grid.start ~step;
    probe_grid = Grid.start ~step:probe.Probe.interval;
    frun = Faults.start faults ~rng;
  }

let[@inline] observe t ~time ~n =
  Timeavg.observe t.avg ~time ~value:(float_of_int n);
  if n > t.counters.max_n then t.counters.max_n <- n

type model = {
  total_rate : unit -> float;
  apply : time:float -> u:float -> unit;
  next_scheduled : unit -> float;
  scheduled : time:float -> unit;
  population : unit -> int;
  extra_sample : time:float -> unit;
  probe_sample : time:float -> Probe.sample;
  finish : time:float -> unit;
}

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  stopped : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
}

(* The sampling grid must capture the value *before* the event the clock
   is advancing to.  Swarm probes walk their own sim-time grid in
   lockstep — sim time, never wall clock, so probe series are
   bit-identical across --jobs. *)
let record_through t ~population ~extra_sample ~probe_sample time =
  Grid.walk t.run.sample_grid ~through:time ~horizon:t.horizon (fun g ->
      Vec.push t.samples (g, population ());
      extra_sample ~time:g);
  Grid.walk t.run.probe_grid ~through:time ~horizon:t.horizon (fun g ->
      t.probe.Probe.on_sample (probe_sample ~time:g))

(* A run without [resume] starts one at 0: its fault stream is split
   off [rng] here, before the model builder's draws. *)
let make_handle ~probe ?sample_every ~resume ~rng ~faults ~horizon ~max_events () =
  let resume =
    match resume with
    | None -> start ~probe ?sample_every ~rng ~faults ~horizon ()
    | Some r when sample_every = None && Float.equal r.probe_grid.step probe.Probe.interval -> r
    | Some _ -> invalid_arg "Engine: a resumed segment takes its grids from resume"
  in
  let t =
    {
      probe;
      run = resume;
      horizon;
      max_events;
      counters =
        {
          events = 0;
          arrivals = 0;
          transfers = 0;
          completions = 0;
          departures = 0;
          aborted = 0;
          lost = 0;
          max_n = 0;
        };
      avg = Timeavg.create ~t0:resume.t0 ();
      samples = Vec.create ();
      times = { clock = resume.t0 };
      truncated = false;
      stop_requested = false;
    }
  in
  if probe.Probe.tracing then
    Faults.set_observer t.run.frun (fun ~now ~up ->
        Probe.seed_toggle probe ~time:now ~up);
  t

let stats_of t ~time_avg_n ~final_n =
  let c = t.counters in
  {
    final_time = t.times.clock;
    events = c.events;
    arrivals = c.arrivals;
    transfers = c.transfers;
    completions = c.completions;
    departures = c.departures;
    time_avg_n;
    max_n = c.max_n;
    final_n;
    truncated = t.truncated;
    stopped = t.stop_requested;
    outage_time = Faults.outage_time t.run.frun;
    aborted_peers = c.aborted;
    lost_transfers = c.lost;
    samples = Vec.to_array t.samples;
  }

(* [drive] polls the replication watchdog once per [poll_period] events,
   so a sweep's [rep_timeout_s] stops every jump backend mid-run.  Outside
   a watchdog the poll is one domain-local read. *)
let poll_period = 1024

let check_watchdog () = if Runner.deadline_exceeded () then raise Runner.Rep_timeout

let drive ?(probe = Probe.none) ?sample_every ?(max_events = 200_000_000) ?resume ~name ~rng
    ~faults ~horizon build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let t = make_handle ~probe ?sample_every ~resume ~rng ~faults ~horizon ~max_events () in
  let model, extra = build t in
  let record time =
    record_through t ~population:model.population ~extra_sample:model.extra_sample
      ~probe_sample:model.probe_sample time
  in
  record t.run.t0;
  Profile.stop setup_span;
  let loop_span = Profile.start prof (name ^ "/event-loop") in
  (* Per-phase monotonic-clock attribution: the split between rate
     recomputation, event application and scheduled events.  The
     timers sample 1-in-32 so two clock reads never ride every event;
     with hists off each tick/tock is a dead branch. *)
  let hists = probe.Probe.hists in
  let rate_tm = Hist.timer (Hist.get hists (name ^ "/total_rate")) in
  let apply_tm = Hist.timer (Hist.get hists (name ^ "/apply")) in
  let sched_tm = Hist.timer (Hist.get hists (name ^ "/scheduled")) in
  let c = t.counters in
  (* Stage the model's closures into locals once: the loop below calls
     them hundreds of millions of times, and a staged closure call is one
     indirect jump where [model.total_rate ()] is a field load plus an
     indirect jump per event. *)
  let total_rate = model.total_rate in
  let apply = model.apply in
  let next_scheduled = model.next_scheduled in
  let do_scheduled = model.scheduled in
  let frun = t.run.frun and sample_grid = t.run.sample_grid and probe_grid = t.run.probe_grid in
  (* The event count at which the loop next looks up: the budget, or the
     next watchdog poll if that comes first.  One comparison per event
     serves both. *)
  let next_check = ref (Int.min max_events poll_period) in
  let running = ref true in
  while !running do
    let rate_t0 = Hist.tick rate_tm in
    let total = total_rate () in
    Hist.tock rate_tm rate_t0;
    let dt = Dist.exponential rng ~rate:total in
    let t_next = t.times.clock +. dt in
    let sched = next_scheduled () in
    let toggle = Faults.next_toggle frun in
    if toggle <= t_next && toggle <= horizon && toggle <= sched && c.events < max_events
    then begin
      (* The outage flips before the next event: advance to the toggle
         and redraw — valid by memorylessness of the exponential race.
         Budget-gated so an exhausted run truncates instead of walking
         the rest of the outage schedule. *)
      record toggle;
      t.times.clock <- toggle;
      Faults.toggle frun ~now:toggle
    end
    else if sched <= t_next && sched <= horizon then begin
      (* A scheduled event (dwell expiry) beats the race: a time
         barrier, like the toggle, but it consumes event budget. *)
      record sched;
      t.times.clock <- sched;
      c.events <- c.events + 1;
      let s_t0 = Hist.tick sched_tm in
      do_scheduled ~time:sched;
      Hist.tock sched_tm s_t0;
      if t.stop_requested then begin
        Timeavg.close t.avg ~time:t.times.clock;
        model.finish ~time:t.times.clock;
        running := false
      end
    end
    else if
      t_next > horizon
      || c.events >= !next_check
         && (c.events >= max_events
            || begin
                 (* The countdown, not the budget, ran out: poll, then go
                    on with this event. *)
                 check_watchdog ();
                 next_check := Int.min max_events (c.events + poll_period);
                 false
               end)
    then begin
      (* The event budget ran out before the horizon: the state is
         frozen from the clock to the horizon, which biases every
         time-based statistic.  Record that instead of truncating
         silently. *)
      if t_next <= horizon then t.truncated <- true;
      record horizon;
      Timeavg.close t.avg ~time:horizon;
      model.finish ~time:horizon;
      t.times.clock <- horizon;
      running := false
    end
    else begin
      (* Inline grid guard: [record] is a no-op unless a
         sample or probe point falls before this event, so the common
         event skips the call (and its two grid-walk loops) entirely.
         Equivalent because both inner loops test the same bounds. *)
      if sample_grid.next <= t_next || probe_grid.next <= t_next then
        record t_next;
      t.times.clock <- t_next;
      c.events <- c.events + 1;
      let u = Rng.float rng *. total in
      let a_t0 = Hist.tick apply_tm in
      apply ~time:t_next ~u;
      Hist.tock apply_tm a_t0;
      if t.stop_requested then begin
        Timeavg.close t.avg ~time:t.times.clock;
        model.finish ~time:t.times.clock;
        running := false
      end
    end
  done;
  Profile.stop loop_span;
  let finish_span = Profile.start prof (name ^ "/finalise") in
  Faults.finish t.run.frun ~now:t.times.clock;
  let stats = stats_of t ~time_avg_n:(Timeavg.average t.avg) ~final_n:(model.population ()) in
  Profile.stop finish_span;
  (stats, extra)

type continuous = {
  c_advance :
    to_:float ->
    on_step:(t_end:float -> view:(float -> unit) -> unit) ->
    [ `Reached | `Stopped of float | `Step_limit ];
  c_population : unit -> float;
  c_probe_sample : time:float -> Probe.sample;
  c_toggled : unit -> unit;
  c_time_average : until:float -> float;
  c_finish : time:float -> unit;
}

(* The continuous-model counterpart of the event loop: instead of an
   exponential race the model integrates an ODE.  Only fault toggles, the
   horizon and the model's own [until] crossing are barriers the
   integrator lands on exactly; shared-grid points (sample, probe) inside
   an accepted step are read from the model's dense output, so the
   recorded trajectory keeps the sampling-grid contract of the stochastic
   drivers without the grid dictating the step sizes. *)
let drive_continuous ?(probe = Probe.none) ?sample_every ?resume ~name ~rng ~faults ~horizon
    build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let t = make_handle ~probe ?sample_every ~resume ~rng ~faults ~horizon ~max_events:max_int () in
  let m, extra = build t in
  let pop_int () = int_of_float (Float.round (m.c_population ())) in
  let record time =
    record_through t ~population:pop_int ~extra_sample:(fun ~time:_ -> ())
      ~probe_sample:m.c_probe_sample time
  in
  observe t ~time:t.run.t0 ~n:(pop_int ());
  record t.run.t0;
  (* Grid points strictly before an accepted step's end are read through
     [view]; one equal to [t_end] waits for the real step state. *)
  let next_grid () = Float.min t.run.sample_grid.next t.run.probe_grid.next in
  let on_step ~t_end ~view =
    while next_grid () < t_end && next_grid () <= horizon do
      let g = next_grid () in
      view g;
      observe t ~time:g ~n:(pop_int ());
      record g
    done
  in
  Profile.stop setup_span;
  let loop_span = Profile.start prof (name ^ "/event-loop") in
  (* Barrier-to-barrier integrations are few (one per toggle, plus the
     horizon), so the advance timer is unsampled: every span is measured. *)
  let advance_tm = Hist.timer ~period:1 (Hist.get probe.Probe.hists (name ^ "/advance")) in
  let running = ref true in
  while !running do
    let toggle = Faults.next_toggle t.run.frun in
    let barrier = Float.max t.times.clock (Float.min horizon toggle) in
    let adv_t0 = Hist.tick advance_tm in
    let outcome = m.c_advance ~to_:barrier ~on_step in
    Hist.tock advance_tm adv_t0;
    match outcome with
    | `Stopped ts ->
        (* The model's own [until] predicate fired (hybrid handoff):
           stop exactly at the located crossing. *)
        t.times.clock <- ts;
        observe t ~time:ts ~n:(pop_int ());
        record ts;
        Timeavg.close t.avg ~time:ts;
        t.stop_requested <- true;
        running := false
    | `Step_limit ->
        (* The step budget ran out mid-flight: like stochastic event
           exhaustion, freeze the state through the horizon and flag. *)
        t.truncated <- true;
        observe t ~time:t.times.clock ~n:(pop_int ());
        t.times.clock <- horizon;
        record horizon;
        Timeavg.close t.avg ~time:horizon;
        running := false
    | `Reached ->
        t.times.clock <- barrier;
        observe t ~time:barrier ~n:(pop_int ());
        record barrier;
        if toggle <= barrier then begin
          Faults.toggle t.run.frun ~now:toggle;
          m.c_toggled ()
        end;
        if barrier >= horizon then begin
          Timeavg.close t.avg ~time:horizon;
          running := false
        end
  done;
  Profile.stop loop_span;
  let finish_span = Profile.start prof (name ^ "/finalise") in
  Faults.finish t.run.frun ~now:t.times.clock;
  m.c_finish ~time:t.times.clock;
  let stats =
    stats_of t ~time_avg_n:(m.c_time_average ~until:t.times.clock) ~final_n:(pop_int ())
  in
  Profile.stop finish_span;
  (stats, extra)
