(* The traced pass of the paper-regime benchmark (perfbench/run.py).

   It runs one workload in-process and records spans from this file
   around calls into each layer's public functions.  Nothing under
   lib/ is instrumented for it: the only in-program instruments read
   here are the ones the library already exposes (the [Probe] phase
   histograms, the [Profile] event-loop span, the [observer] hook).

     trace.exe markov INPUT.json SPANS.json   # syndrome, flash_crowd
     trace.exe coded  INPUT.json SPANS.json   # coded_campaign
     trace.exe fluid  INPUT.json SPANS.json   # fluid_mega
     trace.exe coded-count INPUT.json         # work count for the untraced pass
     trace.exe reference N                    # speed reference for the untraced pass

   INPUT.json holds the inputs run.py generated from its seed.  The last
   line of stdout is one JSON object {"metrics": {...}, "counts": {...}}:
   per-layer metrics by name, and the public counts run.py compares with
   the untraced CLI run.  Spans are kept in memory and written to
   SPANS.json (name, parent, start, duration, self time) when the pass
   ends. *)

open P2p_core
module Json = P2p_obs.Json
module Hist = P2p_obs.Hist
module Probe = P2p_obs.Probe
module Profile = P2p_obs.Profile
module Clock = P2p_obs.Clock
module Series = P2p_obs.Series
module Monitor = P2p_obs.Monitor
module Rng = P2p_prng.Rng
module Runner = P2p_runner.Runner
module Campaign = P2p_campaign.Campaign
module Spec = P2p_campaign.Spec
module Store = P2p_campaign.Store
module Pieceset = P2p_pieceset.Pieceset
module Field = P2p_gf.Field
module Mat = P2p_gf.Mat
module Subspace = P2p_coding.Subspace

(* ---- spans ---- *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans = ref []
let next_id = ref 0
let current = ref (-1)

(* [span name f] runs [f], records a span around it, and returns the
   result with the span's duration in seconds. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let start = Clock.now_s () in
  let finish () =
    let stop = Clock.now_s () in
    spans := { id; parent; name; start; stop } :: !spans;
    current := parent;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let write_spans file =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child_time s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  let t0 = match all with [] -> 0.0 | s :: _ -> s.start in
  let row s =
    let d = s.stop -. s.start in
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", Json.Int s.parent);
        ("name", Json.String s.name);
        ("start_s", Json.Float (s.start -. t0));
        ("duration_s", Json.Float d);
        ("self_s", Json.Float (d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)));
      ]
  in
  Json.write_file_atomic file (fun oc ->
      Json.to_channel oc
        (Json.Obj [ ("schema", Json.String "perfbench-spans"); ("spans", Json.List (List.map row all)) ]))

(* ---- results ---- *)

let metrics = ref []
let counts = ref []
let metric name v = metrics := (name, Json.Float v) :: !metrics
let count name v = counts := (name, Json.Int v) :: !counts

let print_result () =
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("metrics", Json.Obj (List.rev !metrics)); ("counts", Json.Obj (List.rev !counts)) ]))

(* ---- inputs ---- *)

let input = ref (Json.Obj [])

let field name =
  match Json.member name !input with
  | Some v -> v
  | None -> failwith ("input has no field " ^ name)

let num name =
  match field name with
  | Json.String "inf" -> infinity
  | v -> ( match Json.to_float_opt v with Some f -> f | None -> failwith ("bad number " ^ name))

let int name = int_of_float (num name)
let str name = match Json.to_string_opt (field name) with Some s -> s | None -> failwith name

(* "none=2" or "1,3=0.5": the CLI's PIECES=RATE form, 1-based pieces. *)
let arrival spec =
  match String.split_on_char '=' spec with
  | [ "none"; rate ] -> (Pieceset.empty, float_of_string rate)
  | [ pieces; rate ] ->
      ( Pieceset.of_list
          (List.map (fun s -> int_of_string s - 1) (String.split_on_char ',' pieces)),
        float_of_string rate )
  | _ -> failwith ("bad arrival spec " ^ spec)

let params () =
  let arrivals =
    match Json.to_list_opt (field "arrive") with
    | Some l -> List.map (fun v -> arrival (Option.get (Json.to_string_opt v))) l
    | None -> failwith "arrive"
  in
  Params.make ~k:(int "k") ~us:(num "us") ~mu:(num "mu") ~gamma:(num "gamma") ~arrivals

(* Seconds left of the pass's budget (run.py passes what remains of
   --seconds); the paired bare/traced loop stops when it runs out. *)
let deadline = ref infinity
let time_left () = !deadline -. Clock.now_s ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* Run bare and traced pairs until the budget runs out (at least one
   pair); trace_overhead is the ratio of their medians, minus one. *)
let paired ~bare ~traced =
  let bare_s = ref [] and traced_s = ref [] in
  let first = ref None in
  let continue = ref true in
  let odd = ref false in
  while !continue do
    (* alternate which side runs first, so warm-up favours neither *)
    let b, tb, t, tt =
      if !odd then
        let t, tt = span "run.traced" traced in
        let b, tb = span "run.bare" bare in
        (b, tb, t, tt)
      else
        let b, tb = span "run.bare" bare in
        let t, tt = span "run.traced" traced in
        (b, tb, t, tt)
    in
    odd := not !odd;
    bare_s := tb :: !bare_s;
    traced_s := tt :: !traced_s;
    if !first = None then first := Some (b, t);
    continue := time_left () > 2.5 *. (tb +. tt)
  done;
  let mb = median !bare_s and mt = median !traced_s in
  metric "trace.untraced_s" mb;
  metric "trace.traced_s" mt;
  metric "trace_overhead" ((mt /. mb) -. 1.0);
  count "trace.pairs" (List.length !bare_s);
  (Option.get !first, mt)

(* Total cost of a sampled phase timer: the 1-in-period sampled mean
   scaled by the number of calls. *)
let phase_ns hists name ~calls =
  let h = Hist.get hists name in
  if Hist.count h = 0 then 0.0 else Hist.mean h *. float_of_int calls *. 1e9

(* Where the stats cannot give the exact call count, the timer's own
   sampled count times its period estimates it (to within one period). *)
let sampled_calls hists name =
  let h = Hist.get hists name in
  Hist.count h * Hist.sample_period h

let event_count hists code = Hist.count (Hist.get hists ("events/" ^ code))

(* ---- markov workloads: syndrome, flash_crowd ---- *)

(* Keeps at most [2 * cap] states, thinning to every other one and
   doubling the stride when full, so a run of any length leaves an
   evenly spread, deterministic sample of the states it visited. *)
type snapshots = { mutable stride : int; mutable seen : int; mutable kept : State.t list; cap : int }

let snapshots cap = { stride = 1; seen = 0; kept = []; cap }

let observe_state sn state =
  if sn.seen mod sn.stride = 0 then begin
    sn.kept <- State.copy state :: sn.kept;
    if List.length sn.kept >= 2 * sn.cap then begin
      sn.kept <- List.filteri (fun i _ -> i mod 2 = 0) sn.kept;
      sn.stride <- 2 * sn.stride
    end
  end;
  sn.seen <- sn.seen + 1

let micro_policy_state (p : Params.t) states =
  let rng = Rng.of_seed (int "seed") in
  let draws = 256 in
  let policy = Policy.random_useful in
  let states = List.filter (fun s -> State.n s > 0) states in
  let policy_s = ref 0.0 and state_s = ref 0.0 and calls = ref 0 in
  List.iter
    (fun s ->
      let n = float_of_int (State.n s) in
      let pairs =
        Array.init draws (fun _ ->
            let uploader =
              if Rng.float rng *. ((p.mu *. n) +. p.us) < p.us then Policy.Fixed_seed
              else Policy.Peer (State.sample_uniform_peer s ~draw:(Rng.int_below rng))
            in
            (uploader, State.sample_uniform_peer s ~draw:(Rng.int_below rng)))
      in
      let (), dt =
        span "policy.sample" (fun () ->
            Array.iter
              (fun (uploader, downloader) ->
                ignore (Policy.sample policy ~rng ~k:p.k ~state:s ~uploader ~downloader))
              pairs)
      in
      policy_s := !policy_s +. dt;
      let (), dt =
        span "state.sample_uniform_peer" (fun () ->
            for _ = 1 to draws do
              ignore (State.sample_uniform_peer s ~draw:(Rng.int_below rng))
            done)
      in
      state_s := !state_s +. dt;
      calls := !calls + draws)
    states;
  let per_call_ns t = if !calls = 0 then 0.0 else t *. 1e9 /. float_of_int !calls in
  metric "policy.sample_ns" (per_call_ns !policy_s);
  metric "policy.sample_calls" (float_of_int !calls);
  metric "state.sample_uniform_peer_ns" (per_call_ns !state_s);
  metric "state.sample_uniform_peer_calls" (float_of_int !calls);
  metric "state.snapshots" (float_of_int (List.length states));
  (* Rate.transitions costs ~15 ms a row at K = 8: bound its share of
     the pass to about a second. *)
  let rate_s = ref 0.0 and rate_calls = ref 0 in
  List.iter
    (fun s ->
      if !rate_s < 1.0 then begin
        let _, dt = span "rate.transitions" (fun () -> Rate.transitions p s) in
        rate_s := !rate_s +. dt;
        incr rate_calls
      end)
    states;
  metric "rate.transitions_ms"
    (if !rate_calls = 0 then 0.0 else !rate_s *. 1e3 /. float_of_int !rate_calls);
  metric "rate.transitions_calls" (float_of_int !rate_calls)

(* What [p2psim report] does with a probe series, layer by layer. *)
let report_layers file =
  let series, dt =
    span "series.read_file" (fun () ->
        match Series.read_file file with Ok s -> s | Error m -> failwith m)
  in
  metric "series.read_s" dt;
  metric "series.samples" (float_of_int (Series.count series));
  let club = Series.one_club_series series in
  let _, dt = span "classify.of_samples" (fun () -> Classify.of_samples club) in
  metric "classify.fit_ms" (dt *. 1e3);
  let m, dt =
    span "monitor.replay" (fun () ->
        let m = Monitor.create () in
        Array.iter
          (fun (s : Probe.sample) ->
            Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
              ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
          (Series.samples series);
        m)
  in
  metric "monitor.replay_ms" (dt *. 1e3);
  metric "monitor.alerts" (float_of_int (List.length (Monitor.alerts m)))

let markov () =
  let p = params () in
  let config = Sim_markov.default_config p in
  let seed = int "seed" and horizon = num "horizon" in
  let bare () = fst (Sim_markov.run_seeded ~seed config ~horizon) in
  let traced () =
    (* Fresh instruments per run: the metrics come from the first pair. *)
    let hists = Hist.group () and profile = Profile.create () and sn = snapshots 64 in
    let probe = Probe.make ~hists ~profile () in
    let s, _ =
      Sim_markov.run_seeded ~probe ~observer:(fun ~time:_ ~state -> observe_state sn state) ~seed
        config ~horizon
    in
    (s, hists, profile, sn)
  in
  let (b, (t, hists, profile, sn)), _ = paired ~bare ~traced in
  let changes = sn.seen in
  let open Sim_markov in
  count "bare_traced_differ" (Bool.to_int ((b.events, b.transfers) <> (t.events, t.transfers)));
  count "events" t.events;
  count "transfers" t.transfers;
  let contacts = event_count hists "contact" in
  metric "engine.events" (float_of_int t.events);
  metric "engine.state_changes" (float_of_int changes);
  metric "engine.useful_ratio" (float_of_int changes /. float_of_int t.events);
  metric "sim_markov.contacts" (float_of_int contacts);
  metric "sim_markov.silent_contacts" (float_of_int (contacts - t.transfers));
  (* The loop calls total_rate once per iteration (every event plus the
     one that crosses the horizon) and apply once per raced event; the
     markov model has no scheduled events. *)
  metric "sim_markov.total_rate_ns" (phase_ns hists "sim_markov/total_rate" ~calls:(t.events + 1));
  metric "sim_markov.total_rate_calls" (float_of_int (t.events + 1));
  metric "sim_markov.apply_ns" (phase_ns hists "sim_markov/apply" ~calls:t.events);
  metric "sim_markov.apply_calls" (float_of_int t.events);
  metric "sim_markov.contact_ns" (phase_ns hists "sim_markov/contact" ~calls:contacts);
  metric "sim_markov.contact_calls" (float_of_int contacts);
  metric "sim_markov.loop_busy_s"
    (match List.assoc_opt "sim_markov/event-loop" (Profile.phases profile) with
    | Some (s, _) -> s
    | None -> 0.0);
  micro_policy_state p sn.kept;
  report_layers (str "series")

(* ---- coded_campaign ---- *)

let coded_config (spec : Spec.t) (cell : Spec.cell) =
  {
    Sim_coded.q = spec.q;
    k = spec.k;
    us = cell.us;
    mu = spec.mu;
    gamma = spec.gamma;
    arrivals = [ (0, cell.lambda) ];
    smart_exchange = false;
    faults = spec.faults;
  }

(* Every replication of every cell, on the seeds the campaign derives
   for them, one domain: what [Campaign.run_cell] simulates, with the
   per-run stats kept instead of classified. *)
let coded_runs (spec : Spec.t) ~probe =
  List.concat_map
    (fun (cell : Spec.cell) ->
      let config = coded_config spec cell in
      let results, _ =
        Runner.run_map ~jobs:1
          ~master_seed:(Campaign.cell_seed spec ~index:cell.index ~attempt:0)
          ~replications:spec.reps (fun ~rng ~index:_ ->
            Sim_coded.run ~rng ~probe config ~horizon:spec.horizon)
      in
      List.filter_map Fun.id (Array.to_list results))
    (Spec.round0_cells spec)

let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l

let read_spec () =
  match Spec.of_file (str "spec") with Ok s -> s | Error m -> failwith m

let coded_count () =
  let runs = coded_runs (read_spec ()) ~probe:Probe.none in
  count "useful_transfers" (sum (fun s -> s.Sim_coded.useful_transfers) runs)

let subspace_insert () =
  let q = 16 and k = 8 in
  let f = Field.gf q in
  let rng = Rng.of_seed (int "seed") in
  let inserts = ref 0 and total = ref 0.0 in
  for _ = 1 to 200 do
    let vecs = Array.init (2 * k) (fun _ -> Mat.random_vec f (Rng.int_below rng) k) in
    let s = Subspace.create f ~k in
    let (), dt =
      span "subspace.insert" (fun () ->
          Array.iter
            (fun v ->
              if not (Subspace.is_full s) then begin
                incr inserts;
                ignore (Subspace.insert s v)
              end)
            vecs)
    in
    total := !total +. dt
  done;
  metric "subspace.insert_ns" (!total *. 1e9 /. float_of_int !inserts);
  metric "subspace.insert_calls" (float_of_int !inserts)

let coded () =
  let spec, dt = span "spec.of_file" read_spec in
  let parses = 50 in
  let (), dt_more =
    span "spec.of_file" (fun () ->
        for _ = 2 to parses do
          ignore (read_spec ())
        done)
  in
  metric "spec.parse_ms" ((dt +. dt_more) *. 1e3 /. float_of_int parses);
  let cells = Spec.round0_cells spec in
  (* The campaign's own cells, on one domain as the untraced run ran
     them, against the records it stored. *)
  let expected =
    In_channel.with_open_bin (str "results") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> Array.of_list
  in
  let cell_runs =
    List.map
      (fun cell ->
        span "campaign.run_cell" (fun () -> Campaign.run_cell ~jobs:1 spec cell ~attempt:0))
      cells
  in
  let mismatched = ref 0 in
  List.iteri
    (fun i (record, _) ->
      if i >= Array.length expected || Json.to_string record <> expected.(i) then incr mismatched)
    cell_runs;
  count "mismatched_records" (!mismatched + abs (Array.length expected - List.length cells));
  let cell_s = List.map snd cell_runs in
  metric "campaign.cell_s_p50" (quantile cell_s 0.5);
  metric "campaign.cell_s_p80" (quantile cell_s 0.8);
  metric "campaign.cells" (float_of_int (List.length cells));
  let jobs1_s = List.fold_left ( +. ) 0.0 cell_s in
  let (), jobs2_s =
    span "runner.jobs2" (fun () ->
        List.iter (fun cell -> ignore (Campaign.run_cell ~jobs:2 spec cell ~attempt:0)) cells)
  in
  metric "runner.jobs1_s" jobs1_s;
  metric "runner.jobs2_s" jobs2_s;
  metric "runner.efficiency" (jobs1_s /. (2.0 *. jobs2_s));
  let store =
    match Store.create ~dir:(str "store_dir") ~spec_json:(Spec.to_json spec) ~spec_hash:(Spec.hash spec) with
    | Ok s -> s
    | Error m -> failwith m
  in
  let append_s =
    List.fold_left
      (fun acc (record, _) ->
        let line = Json.to_string record in
        acc +. snd (span "store.append" (fun () -> Store.append store line)))
      0.0 cell_runs
  in
  metric "store.append_us" (append_s *. 1e6 /. float_of_int (List.length cells));
  metric "store.appends" (float_of_int (List.length cells));
  let (), dt = span "store.finalise" (fun () -> Store.finalise store) in
  Store.close store;
  metric "store.finalise_ms" (dt *. 1e3);
  let bare () = coded_runs spec ~probe:Probe.none in
  let traced () =
    let hists = Hist.group () in
    (coded_runs spec ~probe:(Probe.make ~hists ()), hists)
  in
  let (b, (t, hists)), _ = paired ~bare ~traced in
  let total f = sum f t in
  let key s = Sim_coded.(s.events, s.useful_transfers, s.useless_transfers) in
  count "bare_traced_differ" (Bool.to_int (List.map key b <> List.map key t));
  let events = total (fun s -> s.Sim_coded.events) in
  let useful = total (fun s -> s.Sim_coded.useful_transfers) in
  let useless = total (fun s -> s.Sim_coded.useless_transfers) in
  (* With γ = ∞ a completing transfer and its departure are one event. *)
  let immediate = spec.gamma = infinity in
  let changes =
    total (fun s ->
        s.Sim_coded.arrivals + s.Sim_coded.useful_transfers + s.Sim_coded.departures
        - if immediate then s.Sim_coded.completions else 0)
  in
  metric "engine.events" (float_of_int events);
  metric "engine.state_changes" (float_of_int changes);
  metric "engine.useful_ratio" (float_of_int changes /. float_of_int events);
  metric "sim_coded.uploads" (float_of_int (useful + useless));
  metric "sim_coded.innovative_ratio" (float_of_int useful /. float_of_int (useful + useless));
  (* Both phases are skipped on uploads the containment memo proves
     useless, so their call counts come from the timers themselves. *)
  List.iter
    (fun (metric_name, hist_name) ->
      let calls = sampled_calls hists hist_name in
      metric (metric_name ^ "_ns") (phase_ns hists hist_name ~calls);
      metric (metric_name ^ "_calls") (float_of_int calls))
    [
      ("sim_coded.rank_update", "sim_coded/rank_update");
      ("sim_coded.vector_select", "sim_coded/vector_select");
    ];
  subspace_insert ()

(* ---- fluid_mega ---- *)

let fluid () =
  let p = params () in
  let control = Ode.control ~rtol:1e-6 ~atol:1e-9 () in
  let init = num "init" in
  let config =
    { (Sim_fluid.default_config p) with initial = [ (Pieceset.empty, init) ]; control }
  in
  let seed = int "seed" and horizon = num "horizon" in
  let bare () = Sim_fluid.run_seeded ~seed config ~horizon in
  let traced () =
    Sim_fluid.run_seeded ~probe:(Probe.make ~hists:(Hist.group ()) ()) ~seed config ~horizon
  in
  let ((b, _), (t, final)), traced_s = paired ~bare ~traced in
  let open Sim_fluid in
  count "bare_traced_differ"
    (Bool.to_int ((b.steps, b.rejected_steps, b.rhs_evals) <> (t.steps, t.rejected_steps, t.rhs_evals)));
  count "steps" t.steps;
  count "rejected_steps" t.rejected_steps;
  count "rhs_evals" t.rhs_evals;
  (* Mass balance, exactly in-process: start + arrivals − departures. *)
  let balance = init +. t.arrivals -. t.departures in
  let error = Float.abs (balance -. t.final_n) /. (init +. t.arrivals) in
  metric "fluid.mass_balance_error" error;
  count "mass_balance_ok" (Bool.to_int (error <= 1e-6));
  metric "ode.steps" (float_of_int t.steps);
  metric "ode.rejected" (float_of_int t.rejected_steps);
  metric "ode.rhs_evals" (float_of_int t.rhs_evals);
  (* Past the first instants every type holds some mass, and the RHS
     costs the same at any such state: time it at the final one. *)
  let d = Fluid.dim p in
  let x = Array.sub final 0 d in
  let dx = Array.make (d + Fluid.aug_slots) 0.0 in
  let calls = 100 in
  let (), dt =
    span "fluid.drift_into" (fun () ->
        for _ = 1 to calls do
          Fluid.drift_into p ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0 x dx
        done)
  in
  let rhs_us = dt *. 1e6 /. float_of_int calls in
  metric "fluid.rhs_us" rhs_us;
  metric "fluid.rhs_calls" (float_of_int calls);
  metric "fluid.run_s" traced_s;
  metric "fluid.rhs_share" (float_of_int t.rhs_evals *. rhs_us *. 1e-6 /. traced_s)

(* ---- reference ---- *)

(* A fixed exponential race written here, independent of lib/: the
   missing-piece chain at K = 3 on a hashtable of type counts, resolving
   contacts as the simulators do. *)
let reference n =
  let counts = Hashtbl.create 16 in
  let total = ref 0 in
  let x = ref 0x2545F4914F6CDD1D in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land 0xFFFFFFFFFFFF
  in
  let uniform () = (float_of_int (next ()) +. 0.5) /. 281474976710656.0 in
  let find c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  let add c d =
    Hashtbl.replace counts c (find c + d);
    total := !total + d
  in
  let sample_peer () =
    let r = ref (next () mod !total) and found = ref (-1) in
    Hashtbl.iter (fun c k -> if !found < 0 then if !r < k then found := c else r := !r - k) counts;
    !found
  in
  let clock = ref 0.0 in
  for _ = 1 to n do
    let rate = 2.3 +. (2.0 *. float_of_int !total) in
    clock := !clock -. (log (uniform ()) /. rate);
    let u = uniform () *. rate in
    if u < 2.0 then add 0 1
    else if !total > 0 then begin
      let up = if u < 2.3 then 7 else sample_peer () in
      let down = sample_peer () in
      let useful = up land lnot down land 7 in
      if useful <> 0 then begin
        let bits = List.filter (fun b -> useful land b <> 0) [ 1; 2; 4 ] in
        let b = List.nth bits (next () mod List.length bits) in
        add down (-1);
        if down lor b <> 7 then add (down lor b) 1
      end
    end
  done;
  Printf.printf "%.17g %d\n" !clock !total

let () =
  let usage () =
    prerr_endline "usage: trace.exe (markov|coded|fluid) INPUT.json SPANS.json | coded-count INPUT.json";
    exit 2
  in
  let read file =
    match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith (file ^ ": " ^ m)
  in
  match Array.to_list Sys.argv with
  | [ _; "reference"; n ] -> reference (int_of_string n)
  | [ _; "coded-count"; inp ] ->
      input := read inp;
      coded_count ();
      print_result ()
  | [ _; mode; inp; spans_file ] ->
      input := read inp;
      deadline := Clock.now_s () +. num "budget_s";
      (match mode with
      | "markov" -> markov ()
      | "coded" -> coded ()
      | "fluid" -> fluid ()
      | _ -> usage ());
      write_spans spans_file;
      print_result ()
  | _ -> usage ()
