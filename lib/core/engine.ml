module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Profile = P2p_obs.Profile
module Hist = P2p_obs.Hist
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

(* The per-event clock fields live in their own float-only record, which
   OCaml stores flat: writing them never boxes a float.  In [t] itself,
   next to the pointer fields, each write would allocate. *)
type times = { mutable clock : float; mutable next_sample : float; mutable next_probe : float }

type t = {
  probe : Probe.t;
  frun : Faults.run;
  start_time : float;
  horizon : float;
  max_events : int;
  counters : counters;
  avg : Timeavg.t;
  samples : (float * int) Vec.t;
  times : times;
  mutable truncated : bool;
  mutable stop_requested : bool;
  sample_every : float;
  probing : bool;
}

let counters t = t.counters
let faults t = t.frun
let start_time t = t.start_time
let request_stop t = t.stop_requested <- true

type resume = { t0 : float; grid_after : float; frun : Faults.run option }

let fresh = { t0 = 0.0; grid_after = -1.0; frun = None }

(* First grid point of a resumed segment: the smallest multiple of
   [interval] strictly after [grid_after].  A fresh run ([grid_after < 0])
   starts at exactly 0.0 — the same constant the pre-resume engine used,
   preserving bit-identity of all existing sample grids. *)
let grid_start ~interval ~grid_after =
  if grid_after < 0.0 then 0.0
  else begin
    let g = ref (interval *. (Float.floor (grid_after /. interval) +. 1.0)) in
    while !g <= grid_after do
      g := !g +. interval
    done;
    !g
  end

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
  while t.times.next_sample <= time && t.times.next_sample <= t.horizon do
    Vec.push t.samples (t.times.next_sample, population ());
    extra_sample ~time:t.times.next_sample;
    t.times.next_sample <- t.times.next_sample +. t.sample_every
  done;
  if t.probing then
    while t.times.next_probe <= time && t.times.next_probe <= t.horizon do
      t.probe.Probe.on_sample (probe_sample ~time:t.times.next_probe);
      t.times.next_probe <- t.times.next_probe +. t.probe.Probe.interval
    done

let record_samples_through t model time =
  record_through t ~population:model.population ~extra_sample:model.extra_sample
    ~probe_sample:model.probe_sample time

let make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events ~sample_every =
  let probing = Probe.sampling probe in
  let t =
    {
      probe;
      frun = (match resume.frun with Some f -> f | None -> Faults.start faults ~rng);
      start_time = resume.t0;
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
      times =
        {
          clock = resume.t0;
          next_sample = grid_start ~interval:sample_every ~grid_after:resume.grid_after;
          (* A segment probes every grid point up to its end, so the probe
             grid, whose step may differ from the sampling grid's, resumes
             strictly after the segment's start. *)
          next_probe =
            (if probing then
               grid_start ~interval:probe.Probe.interval
                 ~grid_after:(if resume.t0 > 0.0 then resume.t0 else -1.0)
             else 0.0);
        };
      truncated = false;
      stop_requested = false;
      sample_every;
      probing;
    }
  in
  if probe.Probe.tracing then
    Faults.set_observer t.frun (fun ~now ~up ->
        Probe.seed_toggle probe ~time:now ~up);
  t

(* [drive] polls the replication watchdog once per [poll_period] events,
   so a sweep's [rep_timeout_s] stops every jump backend mid-run.  Outside
   a watchdog the poll is one domain-local read. *)
let poll_period = 1024

let check_watchdog () = if Runner.deadline_exceeded () then raise Runner.Rep_timeout

let drive ?(probe = Probe.none) ?sample_every ?(max_events = 200_000_000) ?(resume = fresh)
    ~name ~rng ~faults ~horizon build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let sample_every =
    match sample_every with Some dt -> dt | None -> Float.max (horizon /. 200.0) 1e-9
  in
  let t = make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events ~sample_every in
  let model, extra = build t in
  record_samples_through t model t.start_time;
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
  let frun = t.frun in
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
      record_samples_through t model toggle;
      t.times.clock <- toggle;
      Faults.toggle t.frun ~now:toggle
    end
    else if sched <= t_next && sched <= horizon then begin
      (* A scheduled event (dwell expiry) beats the race: a time
         barrier, like the toggle, but it consumes event budget. *)
      record_samples_through t model sched;
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
      record_samples_through t model horizon;
      Timeavg.close t.avg ~time:horizon;
      model.finish ~time:horizon;
      t.times.clock <- horizon;
      running := false
    end
    else begin
      (* Inline grid guard: [record_samples_through] is a no-op unless a
         sample or probe point falls before this event, so the common
         event skips the call (and its two grid-walk loops) entirely.
         Equivalent because both inner loops test the same bounds. *)
      if t.times.next_sample <= t_next || (t.probing && t.times.next_probe <= t_next) then
        record_samples_through t model t_next;
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
  Faults.finish t.frun ~now:t.times.clock;
  let stats =
    {
      final_time = t.times.clock;
      events = c.events;
      arrivals = c.arrivals;
      transfers = c.transfers;
      completions = c.completions;
      departures = c.departures;
      time_avg_n = Timeavg.average t.avg;
      max_n = c.max_n;
      final_n = model.population ();
      truncated = t.truncated;
      stopped = t.stop_requested;
      outage_time = Faults.outage_time t.frun;
      aborted_peers = c.aborted;
      lost_transfers = c.lost;
      samples = Vec.to_array t.samples;
    }
  in
  Profile.stop finish_span;
  (stats, extra)

type continuous = {
  c_advance :
    to_:float ->
    on_step:(t_end:float -> view:(float -> unit) -> unit) ->
    [ `Reached | `Stopped of float | `Step_limit ];
  c_population : unit -> float;
  c_extra_sample : time:float -> unit;
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
let drive_continuous ?(probe = Probe.none) ?sample_every ?(resume = fresh) ~name ~rng ~faults
    ~horizon build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let sample_every =
    match sample_every with
    | Some dt -> dt
    | None -> Float.max ((horizon -. resume.t0) /. 200.0) 1e-9
  in
  let t = make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events:max_int ~sample_every in
  let m, extra = build t in
  let pop_int () = int_of_float (Float.round (m.c_population ())) in
  let record time =
    record_through t ~population:pop_int ~extra_sample:m.c_extra_sample
      ~probe_sample:m.c_probe_sample time
  in
  observe t ~time:t.start_time ~n:(pop_int ());
  record t.start_time;
  (* Grid points strictly before an accepted step's end are read through
     [view]; one equal to [t_end] waits for the real step state. *)
  let next_grid () =
    Float.min t.times.next_sample (if t.probing then t.times.next_probe else infinity)
  in
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
    let toggle = Faults.next_toggle t.frun in
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
          Faults.toggle t.frun ~now:toggle;
          m.c_toggled ()
        end;
        if barrier >= horizon then begin
          Timeavg.close t.avg ~time:horizon;
          running := false
        end
  done;
  Profile.stop loop_span;
  let finish_span = Profile.start prof (name ^ "/finalise") in
  Faults.finish t.frun ~now:t.times.clock;
  m.c_finish ~time:t.times.clock;
  let c = t.counters in
  let stats =
    {
      final_time = t.times.clock;
      events = c.events;
      arrivals = c.arrivals;
      transfers = c.transfers;
      completions = c.completions;
      departures = c.departures;
      time_avg_n = m.c_time_average ~until:t.times.clock;
      max_n = c.max_n;
      final_n = pop_int ();
      truncated = t.truncated;
      stopped = t.stop_requested;
      outage_time = Faults.outage_time t.frun;
      aborted_peers = c.aborted;
      lost_transfers = c.lost;
      samples = Vec.to_array t.samples;
    }
  in
  Profile.stop finish_span;
  (stats, extra)
