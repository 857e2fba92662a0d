module Json = P2p_obs.Json
module Progress = P2p_obs.Progress
module Probe = P2p_obs.Probe
module Recorder = P2p_obs.Recorder
module Runner = P2p_runner.Runner
module Rng = P2p_prng.Rng
open P2p_core

exception Simulated_crash

type options = {
  jobs : int option;
  on_error : Runner.on_error;
  cell_timeout_s : float option;
  retry_backoff_s : float;
  checkpoint_every : int;
  progress : bool;
  registry : string option;
  command : string;
  crash_after_cells : int option;
  fault_hook : (int -> unit) option;
  handle_signals : bool;
  flight_recorder : string option;
}

let default_options =
  {
    jobs = None;
    on_error = Runner.Abort;
    cell_timeout_s = None;
    retry_backoff_s = 1.0;
    checkpoint_every = 25;
    progress = false;
    registry = None;
    command = "";
    crash_after_cells = None;
    fault_hook = None;
    handle_signals = false;
    flight_recorder = None;
  }

type outcome = {
  dir : string;
  cells_done : int;
  cells_run : int;
  failed : int;
  interrupted : bool;
  complete : bool;
}

(* ---- deterministic cell seeding ---- *)

let cell_seed (spec : Spec.t) ~index ~attempt =
  if attempt < 0 then invalid_arg "Campaign.cell_seed: attempt < 0";
  let s0 = Int64.to_int (Rng.bits64 (Rng.of_seed_pair ~master:spec.master_seed ~stream:index)) in
  if attempt = 0 then s0
  else Int64.to_int (Rng.bits64 (Rng.of_seed_pair ~master:s0 ~stream:attempt))

(* ---- one cell ---- *)

type aggregate = {
  growth : float;
  mean_n : float;
  n_stable : int;
  n_unstable : int;
  n_inconclusive : int;
}

let sim_verdict a =
  if a.n_stable > a.n_unstable then "stable"
  else if a.n_unstable > a.n_stable then "unstable"
  else if a.n_stable = 0 && a.n_unstable = 0 then "inconclusive"
  else "mixed"

(* The coded cell workload mirrors the markov one: empty-handed arrivals
   at rate λ (gift fraction 0), the spec's U_s, μ, γ, over GF(q). *)
let coded_gift (spec : Spec.t) (cell : Spec.cell) =
  {
    Stability.Coded.q = spec.q;
    k = spec.k;
    us = cell.us;
    mu = spec.mu;
    gamma = spec.gamma;
    lambda0 = cell.lambda;
    lambda1 = 0.0;
  }

let theory_verdict (spec : Spec.t) (cell : Spec.cell) =
  Stability.verdict_to_string
    (match spec.backend with
    | "coded" -> Stability.Coded.classify (coded_gift spec cell)
    | _ -> Stability.classify (Spec.cell_params spec ~lambda:cell.lambda ~us:cell.us))

(* Fixed field order: the record is part of the byte-identity contract.
   No wall-clock data — timestamps live only in the registry. *)
let render_record spec (cell : Spec.cell) ~agg ~attempts ~errors =
  let verdict, growth, mean_n, (ns, nu, ni), status =
    match agg with
    | Some a ->
        (sim_verdict a, a.growth, a.mean_n, (a.n_stable, a.n_unstable, a.n_inconclusive), "ok")
    | None -> ("failed", nan, nan, (0, 0, 0), "failed")
  in
  Json.Obj
    [
      ("cell", Json.Int cell.index);
      ("round", Json.Int cell.round);
      ("ix", Json.Int cell.ix);
      ("iy", Json.Int cell.iy);
      ("lambda", Json.Float cell.lambda);
      ("us", Json.Float cell.us);
      ("theory", Json.String (theory_verdict spec cell));
      ("verdict", Json.String verdict);
      ("growth", Json.Float growth);
      ("mean_n", Json.Float mean_n);
      ("stable", Json.Int ns);
      ("unstable", Json.Int nu);
      ("inconclusive", Json.Int ni);
      ("reps", Json.Int spec.reps);
      ("attempts", Json.Int attempts);
      ("status", Json.String status);
      ("errors", Json.List (List.map (fun e -> Json.String e) errors));
    ]

let cell_aggregate ?jobs ?timeout_s ?flight_dir (spec : Spec.t) (cell : Spec.cell) ~attempt =
  let master_seed = cell_seed spec ~index:cell.index ~attempt in
  (* One replication, dispatched on the spec's backend.  Both simulators
     return the samples array the classifier consumes; under [timeout_s]
     their engine loop raises [Rep_timeout] itself. *)
  let replicate : rng:Rng.t -> probe:Probe.t -> (float * int) array =
    match spec.backend with
    | "coded" ->
        let config =
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
        in
        fun ~rng ~probe -> (Sim_coded.run ~rng ~probe config ~horizon:spec.horizon).samples
    | _ ->
        let params = Spec.cell_params spec ~lambda:cell.lambda ~us:cell.us in
        let config =
          {
            Sim_markov.params;
            policy = Spec.policy_fun spec;
            initial = [];
            faults = spec.faults;
          }
        in
        fun ~rng ~probe -> (fst (Sim_markov.run ~rng ~probe config ~horizon:spec.horizon)).samples
  in
  (match flight_dir with
  | Some dir when not (Sys.file_exists dir) -> (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  let results, _timing =
    Runner.run_map ?jobs ?rep_timeout_s:timeout_s ~on_error:Runner.Abort ~master_seed
      ~replications:spec.reps (fun ~rng ~index:_ ->
        (* Per-replication flight recorder.  The dump path is keyed by
           the executing domain, never shared across live domains, so
           concurrent atomic snapshots cannot collide on their
           temporaries (domains share a PID).  The recorder both
           auto-snapshots while the replication runs — the SIGKILL
           survival story — and dumps explicitly on any failure,
           including the [Rep_timeout] the watchdog raises. *)
        let probe, dump =
          match flight_dir with
          | None -> (Probe.none, fun () -> ())
          | Some dir ->
              let r = Recorder.create () in
              let path =
                Filename.concat dir
                  (Printf.sprintf "cell-%d-d%d.jsonl" cell.index (Domain.self () :> int))
              in
              (* check the wall-clock gap every 256 events: dense enough
                 that even a short-lived cell republishes promptly, while
                 [min_gap_s] keeps the disk traffic bounded *)
              Recorder.auto_snapshot r ~every:256 ~min_gap_s:0.5 path;
              (Probe.make ~recorder:r (), fun () -> Recorder.dump r path)
        in
        match replicate ~rng ~probe with
        | exception e ->
            dump ();
            raise e
        | samples ->
            dump ();
            Classify.of_samples samples)
  in
  let results = Array.to_list results |> List.filter_map Fun.id in
  let n = List.length results in
  let count v = List.length (List.filter (fun (r : Classify.result) -> r.verdict = v) results) in
  let mean f =
    if n = 0 then nan else List.fold_left (fun acc r -> acc +. f r) 0.0 results /. float_of_int n
  in
  {
    growth = mean (fun (r : Classify.result) -> r.growth_rate);
    mean_n = mean (fun (r : Classify.result) -> r.mean_n);
    n_stable = count Classify.Appears_stable;
    n_unstable = count Classify.Appears_unstable;
    n_inconclusive = count Classify.Inconclusive;
  }

let run_cell ?jobs ?timeout_s spec cell ~attempt =
  let agg = cell_aggregate ?jobs ?timeout_s spec cell ~attempt in
  render_record spec cell ~agg:(Some agg) ~attempts:(attempt + 1) ~errors:[]

(* The cell-level failure policy: retry with exponential backoff on
   fresh deterministic streams; exhaustion either aborts the campaign or
   records the cell as failed with its error history. *)
let execute_cell opts spec cell =
  let max_attempts = match opts.on_error with Runner.Retry n -> n + 1 | _ -> 1 in
  let rec go attempt errors =
    match
      cell_aggregate ?jobs:opts.jobs ?timeout_s:opts.cell_timeout_s
        ?flight_dir:opts.flight_recorder spec cell ~attempt
    with
    | agg ->
        Ok (render_record spec cell ~agg:(Some agg) ~attempts:(attempt + 1) ~errors:(List.rev errors))
    | exception exn ->
        let label =
          match exn with Runner.Rep_timeout -> "timeout" | e -> Printexc.to_string e
        in
        let errors = label :: errors in
        if attempt + 1 < max_attempts then begin
          let delay = opts.retry_backoff_s *. Float.pow 2.0 (float_of_int attempt) in
          if delay > 0.0 then Unix.sleepf delay;
          go (attempt + 1) errors
        end
        else
          let errors = List.rev errors in
          match opts.on_error with
          | Runner.Abort -> Error (label, errors)
          | Runner.Skip | Runner.Retry _ ->
              Ok (render_record spec cell ~agg:None ~attempts:max_attempts ~errors)
  in
  go 0 []

(* ---- signals ---- *)

let install_handlers flag =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  let prev_int = Sys.signal Sys.sigint handler in
  let prev_term = Sys.signal Sys.sigterm handler in
  fun () ->
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigterm prev_term

(* ---- registry ---- *)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let append_registry opts (spec : Spec.t) ~dir ~status ~cells_done ~failed =
  match opts.registry with
  | None -> ()
  | Some path ->
      let entry =
        Json.Obj
          [
            ("time", Json.String (iso8601 (Unix.time ())));
            ("name", Json.String spec.name);
            ("hypothesis", Json.String spec.hypothesis);
            ("spec_hash", Json.String (Spec.hash spec));
            ("dir", Json.String dir);
            ("command", Json.String opts.command);
            ("cells_done", Json.Int cells_done);
            ("failed", Json.Int failed);
            ("status", Json.String status);
          ]
      in
      let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Json.to_channel oc entry;
          output_char oc '\n';
          flush oc)

(* ---- the drive loop ---- *)

type stop = Complete | Interrupted | Aborted of string

let drive store (spec : Spec.t) opts ~dir ~recovered =
  let recovered = Array.of_list recovered in
  let n_recovered = Array.length recovered in
  (* Recovered records must form the exact planned prefix. *)
  let prefix_error = ref None in
  Array.iteri
    (fun i r ->
      if !prefix_error = None then
        match Json.member "cell" r with
        | Some (Json.Int j) when j = i -> ()
        | _ -> prefix_error := Some (Printf.sprintf "store record %d does not describe cell %d" i i))
    recovered;
  match !prefix_error with
  | Some msg -> Error msg
  | None ->
      let verdicts = ref [] in
      let failed = ref 0 in
      let cells_run = ref 0 in
      let since_checkpoint = ref 0 in
      let interrupted = Atomic.make false in
      let restore =
        if opts.handle_signals then install_handlers interrupted else fun () -> ()
      in
      let note_record (cell : Spec.cell) record =
        (match Json.member "verdict" record with
        | Some (Json.String v) -> verdicts := ((cell.ix, cell.iy), v) :: !verdicts
        | _ -> ());
        match Json.member "status" record with
        | Some (Json.String "failed") -> incr failed
        | _ -> ()
      in
      let process_round cells =
        let meter =
          if opts.progress && cells <> [] then
            Progress.create ~label:"cells" ~total:(List.length cells) ()
          else Progress.silent
        in
        let finish r =
          Progress.finish meter;
          r
        in
        let rec loop = function
          | [] -> finish (Ok `Round_done)
          | (cell : Spec.cell) :: rest ->
              if Atomic.get interrupted then finish (Ok `Interrupted)
              else if cell.index < n_recovered then begin
                note_record cell recovered.(cell.index);
                Progress.step meter;
                loop rest
              end
              else begin
                match execute_cell opts spec cell with
                | Error (label, _) ->
                    finish
                      (Ok (`Aborted (Printf.sprintf "cell %d (λ=%g, U_s=%g): %s" cell.index cell.lambda cell.us label)))
                | Ok record ->
                    Store.append store (Json.to_string record);
                    incr cells_run;
                    note_record cell record;
                    (match opts.fault_hook with
                    | Some hook -> hook (Store.records store)
                    | None -> ());
                    (match opts.crash_after_cells with
                    | Some n when !cells_run >= n ->
                        (* a kill at a cell boundary: no cleanup, no
                           checkpoint, the active segment as-is *)
                        exit 99
                    | _ -> ());
                    incr since_checkpoint;
                    if !since_checkpoint >= opts.checkpoint_every then begin
                      Store.seal store;
                      Store.checkpoint store ~complete:false ~interrupted:false;
                      since_checkpoint := 0
                    end;
                    Progress.step meter;
                    loop rest
              end
        in
        loop cells
      in
      let rec rounds round next_index =
        let cells =
          if round = 0 then Spec.round0_cells spec
          else Spec.next_round_cells spec ~round ~verdicts:!verdicts ~next_index
        in
        match process_round cells with
        | Error _ as e -> e
        | Ok `Interrupted -> Ok Interrupted
        | Ok (`Aborted msg) -> Ok (Aborted msg)
        | Ok `Round_done ->
            if round >= Spec.total_rounds spec then Ok Complete
            else rounds (round + 1) (next_index + List.length cells)
      in
      let result = rounds 0 0 in
      restore ();
      let outcome_of status =
        {
          dir;
          cells_done = Store.records store;
          cells_run = !cells_run;
          failed = !failed;
          interrupted = (status = "interrupted");
          complete = (status = "complete");
        }
      in
      let finish_with status =
        let o = outcome_of status in
        append_registry opts spec ~dir ~status ~cells_done:o.cells_done ~failed:o.failed;
        o
      in
      match result with
      | Error msg ->
          Store.close store;
          Error msg
      | Ok Complete ->
          Store.finalise store;
          let o = finish_with "complete" in
          Store.close store;
          Ok o
      | Ok Interrupted ->
          Store.checkpoint store ~complete:false ~interrupted:true;
          let o = finish_with "interrupted" in
          Store.close store;
          Ok o
      | Ok (Aborted msg) ->
          Store.checkpoint store ~complete:false ~interrupted:false;
          let o = finish_with "aborted" in
          Store.close store;
          ignore o;
          Error (Printf.sprintf "campaign aborted at %s (store remains resumable in %s)" msg dir)

let run ~dir opts spec =
  match Store.create ~dir ~spec_json:(Spec.to_json spec) ~spec_hash:(Spec.hash spec) with
  | Error _ as e -> e
  | Ok store -> drive store spec opts ~dir ~recovered:[]

let resume ~dir opts =
  match Store.resume ~dir with
  | Error _ as e -> e
  | Ok (store, spec_json, recovery) -> (
      match Spec.of_json spec_json with
      | Error msg ->
          Store.close store;
          Error (Printf.sprintf "%s: recorded spec no longer parses: %s" dir msg)
      | Ok spec ->
          drive store spec opts ~dir ~recovered:recovery.Store.records)

(* ---- status ---- *)

let status ~dir =
  match Store.read_status ~dir with
  | Error _ as e -> e
  | Ok st ->
      let count pred =
        List.length
          (List.filter
             (fun r ->
               match Json.member "verdict" r with
               | Some (Json.String v) -> pred v
               | _ -> false)
             st.store_records)
      in
      let name =
        match Option.bind st.spec (Json.member "name") with
        | Some (Json.String s) -> s
        | _ -> "?"
      in
      let spec_hash =
        match st.spec with
        | Some s -> Digest.to_hex (Digest.string (Json.to_string s))
        | None -> "?"
      in
      let total =
        match st.spec with
        | None -> Json.Null
        | Some s -> (
            match Spec.of_json s with
            | Error _ -> Json.Null
            | Ok spec -> (
                match Spec.grid_total spec with
                | Some t -> Json.Int t
                | None -> Json.Null))
      in
      Ok
        (Json.Obj
           [
             ("name", Json.String name);
             ("spec_hash", Json.String spec_hash);
             ("cells_done", Json.Int (List.length st.store_records));
             ("grid_total", total);
             ("stable", Json.Int (count (String.equal "stable")));
             ("unstable", Json.Int (count (String.equal "unstable")));
             ("other", Json.Int (count (fun v -> v <> "stable" && v <> "unstable")));
             ( "failed",
               Json.Int
                 (List.length
                    (List.filter
                       (fun r -> Json.member "status" r = Some (Json.String "failed"))
                       st.store_records)) );
             ("segments", Json.Int st.segments);
             ("quarantined", Json.Int st.quarantined);
             ("complete", Json.Bool st.complete);
             ( "checkpoint",
               match st.checkpoint with Some c -> c | None -> Json.Null );
           ])
