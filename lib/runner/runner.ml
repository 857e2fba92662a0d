module Rng = P2p_prng.Rng
module Welford = P2p_stats.Welford
module Histogram = P2p_stats.Histogram
module Progress = P2p_obs.Progress
module Hist = P2p_obs.Hist
module Clock = P2p_obs.Clock

type failure = { index : int; error : exn; backtrace : Printexc.raw_backtrace }

type on_error = Abort | Skip | Retry of int

exception Rep_timeout

(* The watchdog deadline of the replication attempt currently running on
   this domain ([infinity] outside one).  Cooperative: thunks poll
   [deadline_exceeded] (the simulators wire it into their [until]
   predicate) to stop early; the runner additionally enforces it post
   hoc, discarding the value of an attempt that finished late.  OCaml
   cannot safely preempt a domain, so a thunk that neither polls nor
   returns runs to completion — but its result is still recorded as a
   {!Rep_timeout} failure and handed to the [on_error] policy. *)
let deadline_key : float Domain.DLS.key = Domain.DLS.new_key (fun () -> infinity)

let deadline_exceeded () = Clock.now_s () > Domain.DLS.get deadline_key

type timing = {
  wall_s : float;
  jobs : int;
  chunks : int;
  busy_s : float array;
  failures : failure list;
  over_budget : int;
  interrupted : bool;
}

let utilisation t =
  if t.wall_s <= 0.0 then nan
  else
    Array.fold_left ( +. ) 0.0 t.busy_s
    /. (t.wall_s *. float_of_int (Array.length t.busy_s))

let pp_timing fmt t =
  Format.fprintf fmt "wall %.2fs, %d domain%s, %.0f%% busy" t.wall_s t.jobs
    (if t.jobs = 1 then "" else "s")
    (100.0 *. utilisation t);
  (* Busy time is wall-clock around each chunk, so a descheduled domain
     still counts as busy: on a box with fewer cores than domains the
     utilisation figure stays high while real speedup is ≤ 1.  Flag it
     rather than silently reporting a flattering number (DESIGN §17). *)
  if t.jobs > Domain.recommended_domain_count () then
    Format.fprintf fmt " (oversubscribed: %d core%s)"
      (Domain.recommended_domain_count ())
      (if Domain.recommended_domain_count () = 1 then "" else "s");
  if t.failures <> [] then
    Format.fprintf fmt ", %d replication%s failed" (List.length t.failures)
      (if List.length t.failures = 1 then "" else "s");
  if t.over_budget > 0 then Format.fprintf fmt ", %d over budget" t.over_budget;
  if t.interrupted then Format.fprintf fmt ", INTERRUPTED"

let pp_failure fmt f =
  Format.fprintf fmt "replication %d: %s" f.index (Printexc.to_string f.error);
  let bt = Printexc.raw_backtrace_to_string f.backtrace in
  if bt <> "" then Format.fprintf fmt "@,%s" (String.trim bt)

let default_jobs () = Domain.recommended_domain_count ()

let derive_rng ~master_seed ~index = Rng.of_seed_pair ~master:master_seed ~stream:index

(* Retry [attempt] of replication [index] re-keys the stream family from
   one output of the attempt-0 stream, so each attempt sees a fresh
   deterministic stream: a pure function of (master_seed, index, attempt),
   never of which domain ran it or how many times other replications
   retried. *)
let derive_retry_rng ~master_seed ~index ~attempt =
  if attempt < 0 then invalid_arg "Runner: retry attempt < 0";
  if attempt = 0 then derive_rng ~master_seed ~index
  else
    let base = derive_rng ~master_seed ~index in
    Rng.of_seed_pair ~master:(Int64.to_int (Rng.bits64 base)) ~stream:attempt

(* The scheduling core shared by run_map and run_fold.

   [work c] processes chunk [c] (a contiguous index range computed by the
   caller) and must only write to slots owned by that chunk.  Chunks are
   claimed from an atomic counter, so the assignment of chunks to domains
   is racy — but since every per-chunk result lands in a slot keyed by the
   chunk index, the *outputs* are scheduling-independent.

   An exception escaping [work] (an [Abort]ing replication, or a bug in an
   accumulator) is captured once, with its backtrace, and re-raised in the
   caller after every domain joins.  With [handle_sigint], a SIGINT stops
   the domains from claiming further chunks instead of killing the
   process: completed chunks are kept and [interrupted] is reported so the
   caller can flush partial results. *)
(* Replication thunks allocate; OCaml 5 minor collections are
   stop-the-world across every running domain, so domains with the
   default (small) minor heap spend the sweep synchronising instead of
   simulating.  Enlarging the minor heap per domain stretches the time
   between barriers.  2^21 words (16 MB) won an empirical sweep over
   2^18..2^23 on an allocation-bound two/four-domain workload: below it
   the barriers dominate, above it the minor heap outgrows cache and
   every allocation misses.  Applied only in multi-domain sweeps; the
   caller's setting is restored once the domains join. *)
let tune_gc () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 21 }

let drive ~jobs ~nchunks ~handle_sigint ~work =
  let next = Atomic.make 0 in
  (* One 64-byte cache line (8 unboxed floats) per domain: the busy
     counters are written on every chunk retirement, and packing them
     adjacently would false-share those writes across domains. *)
  let stride = 8 in
  let busy = Array.make (jobs * stride) 0.0 in
  let failure = Atomic.make None in
  let interrupted = Atomic.make false in
  let stop () = Atomic.get failure <> None || Atomic.get interrupted in
  let worker d =
    let rec loop () =
      if not (stop ()) then begin
        let c = Atomic.fetch_and_add next 1 in
        if c < nchunks then begin
          let t0 = Clock.now_s () in
          (try work ~domain:d c
           with exn ->
             let bt = Printexc.get_raw_backtrace () in
             (* Remember the first failure; let other domains drain the
                queue (each remaining chunk is cheap to skip because we
                stop claiming once a failure is recorded). *)
             ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
          busy.(d * stride) <- busy.(d * stride) +. (Clock.now_s () -. t0);
          loop ()
        end
      end
    in
    loop ()
  in
  let previous_handler =
    if not handle_sigint then None
    else
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> Atomic.set interrupted true)))
  in
  let t0 = Clock.now_s () in
  let finish () =
    match previous_handler with
    | Some h -> Sys.set_signal Sys.sigint h
    | None -> ()
  in
  (if jobs = 1 then worker 0
   else begin
     (* Backtrace recording is per-domain state in OCaml 5; propagate the
        caller's setting so a failure on a spawned domain still carries
        its raise site. *)
     let record_bt = Printexc.backtrace_status () in
     let saved_gc = Gc.get () in
     tune_gc ();
     let domains =
       Array.init (jobs - 1) (fun i ->
           Domain.spawn (fun () ->
               Printexc.record_backtrace record_bt;
               tune_gc ();
               worker (i + 1)))
     in
     worker 0;
     Array.iter Domain.join domains;
     Gc.set saved_gc
   end);
  finish ();
  let wall_s = Clock.now_s () -. t0 in
  (match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  (wall_s, Array.init jobs (fun d -> busy.(d * stride)), Atomic.get interrupted)

(* Default chunk: grow with the sweep so each queue pop is a substantial
   contiguous block of work, but depend only on [replications] — the
   chunk layout fixes the merge grouping, so it must never vary with
   [jobs] or the aggregates would stop being jobs-independent. *)
let default_chunk ~replications = Int.max 4 (Int.min 64 (replications / 32))

let validate ?jobs ?chunk ?(on_error = Abort) ?rep_timeout_s ~replications () =
  if replications < 0 then invalid_arg "Runner: replications < 0";
  (match rep_timeout_s with
  | Some s when not (Float.is_finite s) || s <= 0.0 ->
      invalid_arg "Runner: rep_timeout_s must be finite positive"
  | _ -> ());
  let chunk = match chunk with Some c -> c | None -> default_chunk ~replications in
  if chunk < 1 then invalid_arg "Runner: chunk < 1";
  (match on_error with
  | Retry n when n < 1 -> invalid_arg "Runner: Retry count < 1"
  | _ -> ());
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Runner: jobs < 1";
  let nchunks = (replications + chunk - 1) / chunk in
  (* Never spawn more domains than there are chunks to claim. *)
  let jobs = Int.max 1 (Int.min jobs nchunks) in
  (jobs, chunk, nchunks)

let chunk_bounds ~chunk ~replications c =
  let lo = c * chunk in
  (lo, Int.min replications (lo + chunk))

(* One replication under the failure policy: derive the stream, run,
   retry on fresh streams as allowed, and either return the value or the
   last failure.  Everything here depends only on (master_seed, index,
   on_error), so skipping and retrying preserve the bit-identical
   aggregation of the surviving replications across any [jobs] count. *)
let run_replication ~on_error ~rep_timeout_s ~master_seed ~index f =
  let retries = match on_error with Retry n -> n | Abort | Skip -> 0 in
  let rec go attempt =
    let rng = derive_retry_rng ~master_seed ~index ~attempt in
    let t0 =
      match rep_timeout_s with
      | None -> 0.0
      | Some s ->
          let now = Clock.now_s () in
          Domain.DLS.set deadline_key (now +. s);
          now
    in
    let outcome =
      match f ~rng ~index with
      | v -> (
          match rep_timeout_s with
          | Some s when Clock.now_s () -. t0 > s ->
              (* The attempt outran its watchdog even though it finished:
                 a late value is a failed value — trusting it would make
                 the sweep's duration bound a lie. *)
              Error (Rep_timeout, Printexc.get_callstack 0)
          | _ -> Ok v)
      | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
    in
    if rep_timeout_s <> None then Domain.DLS.set deadline_key infinity;
    match outcome with
    | Ok v -> Ok v
    | Error (error, backtrace) ->
        if attempt < retries then go (attempt + 1) else Error { index; error; backtrace }
  in
  go 0

(* Per-chunk fault bookkeeping: each chunk owns its own slots, so the
   records are race-free and, concatenated in chunk order, sorted by
   replication index. *)
type chunk_log = { failures : failure list array; over : int array }

let chunk_log nchunks = { failures = Array.make nchunks []; over = Array.make nchunks 0 }

let log_of ~(log : chunk_log) ~wall_s ~jobs ~nchunks ~busy ~interrupted =
  {
    wall_s;
    jobs;
    chunks = nchunks;
    busy_s = busy;
    failures = List.concat_map List.rev (Array.to_list log.failures);
    over_budget = Array.fold_left ( + ) 0 log.over;
    interrupted;
  }

(* Run replication [i] of chunk [c], enforcing policy and wall budget;
   [keep] consumes the value of a surviving replication. *)
let step ~on_error ~budget_s ~rep_timeout_s ~progress ~(log : chunk_log) ~master_seed ~c ~keep
    f i =
  let result =
    match budget_s with
    | None ->
        (* No budget means no clock reads: short replications are cheap
           enough for two gettimeofday calls apiece to show up. *)
        run_replication ~on_error ~rep_timeout_s ~master_seed ~index:i f
    | Some budget ->
        let t0 = Clock.now_s () in
        let result = run_replication ~on_error ~rep_timeout_s ~master_seed ~index:i f in
        if Clock.now_s () -. t0 > budget then log.over.(c) <- log.over.(c) + 1;
        result
  in
  Progress.step progress;
  match result with
  | Ok v -> keep v
  | Error fail -> (
      match on_error with
      | Abort -> Printexc.raise_with_backtrace fail.error fail.backtrace
      | Skip | Retry _ -> log.failures.(c) <- fail :: log.failures.(c))

(* Per-domain replication-duration histograms: the observable behind
   the runner's utilisation-imbalance question.  They
   are diagnostics of {e this} execution — chunk-to-domain assignment
   is racy by design — so, unlike every aggregate, their per-domain
   split is deliberately scheduling-dependent.  Each domain writes only
   its own histogram, honouring the single-domain instrument contract;
   merge them afterwards with [Hist.merge] if a pooled view is wanted. *)
let rep_hists ~hists ~jobs =
  match hists with
  | None -> [||]
  | Some g ->
      Array.init jobs (fun d -> Hist.get g (Printf.sprintf "runner/replication_s/domain%d" d))

let timed_step rep_h do_step =
  if Hist.live rep_h then begin
    let t0 = Clock.now_s () in
    do_step ();
    Hist.record rep_h (Clock.now_s () -. t0)
  end
  else do_step ()

let run_map ?jobs ?chunk ?on_error ?budget_s ?rep_timeout_s ?(handle_sigint = false)
    ?(progress = Progress.silent) ?hists ~master_seed ~replications f =
  let jobs, chunk, nchunks = validate ?jobs ?chunk ?on_error ?rep_timeout_s ~replications () in
  let on_error = Option.value on_error ~default:Abort in
  let log = chunk_log nchunks in
  let results = Array.make replications None in
  let rep_hists = rep_hists ~hists ~jobs in
  let work ~domain c =
    let rep_h = if Array.length rep_hists = 0 then Hist.disabled else rep_hists.(domain) in
    let lo, hi = chunk_bounds ~chunk ~replications c in
    for i = lo to hi - 1 do
      timed_step rep_h (fun () ->
          step ~on_error ~budget_s ~rep_timeout_s ~progress ~log ~master_seed ~c
            ~keep:(fun v -> results.(i) <- Some v)
            f i)
    done
  in
  let wall_s, busy, interrupted = drive ~jobs ~nchunks ~handle_sigint ~work in
  Progress.finish progress;
  (results, log_of ~log ~wall_s ~jobs ~nchunks ~busy ~interrupted)

let run_fold ?jobs ?chunk ?on_error ?budget_s ?rep_timeout_s ?(handle_sigint = false)
    ?(progress = Progress.silent) ?hists ~master_seed ~replications ~init ~add ~merge f =
  let jobs, chunk, nchunks = validate ?jobs ?chunk ?on_error ?rep_timeout_s ~replications () in
  let on_error = Option.value on_error ~default:Abort in
  let log = chunk_log nchunks in
  let accs = Array.make nchunks None in
  let rep_hists = rep_hists ~hists ~jobs in
  let work ~domain c =
    let rep_h = if Array.length rep_hists = 0 then Hist.disabled else rep_hists.(domain) in
    let lo, hi = chunk_bounds ~chunk ~replications c in
    let acc = init () in
    for i = lo to hi - 1 do
      timed_step rep_h (fun () ->
          step ~on_error ~budget_s ~rep_timeout_s ~progress ~log ~master_seed ~c
            ~keep:(add acc) f i)
    done;
    accs.(c) <- Some acc
  in
  let wall_s, busy, interrupted = drive ~jobs ~nchunks ~handle_sigint ~work in
  Progress.finish progress;
  (* Chunk order, not completion order: this is what makes the merged
     aggregate independent of the domain count.  A [None] chunk was never
     claimed (interrupt) and contributes nothing. *)
  let merged =
    Array.fold_left
      (fun acc -> function
        | Some a -> merge acc a
        | None ->
            assert interrupted;
            acc)
      (init ()) accs
  in
  (merged, log_of ~log ~wall_s ~jobs ~nchunks ~busy ~interrupted)

type hist_spec = { lo : float; hi : float; bins : int }

type rep = { values : float array; observations : float array; flagged : bool }

let rep ?(flagged = false) ?(obs = [||]) values = { values; observations = obs; flagged }

type summary = {
  stats : (string * Welford.t) list;
  hist : Histogram.t option;
  partial : int;
  timing : timing;
}

type sacc = {
  welford : Welford.t array;
  shist : Histogram.t option;
  mutable flagged : int;
}

let run_summary ?jobs ?chunk ?on_error ?budget_s ?rep_timeout_s ?handle_sigint ?progress
    ?hists ?hist ~metrics ~master_seed ~replications f =
  let nmetrics = List.length metrics in
  let init () =
    {
      welford = Array.init nmetrics (fun _ -> Welford.create ());
      shist = Option.map (fun { lo; hi; bins } -> Histogram.create ~lo ~hi ~bins) hist;
      flagged = 0;
    }
  in
  let add acc r =
    if Array.length r.values <> nmetrics then
      invalid_arg
        (Printf.sprintf "Runner.run_summary: thunk returned %d metrics, expected %d"
           (Array.length r.values) nmetrics);
    Array.iteri (fun m v -> Welford.add acc.welford.(m) v) r.values;
    if r.flagged then acc.flagged <- acc.flagged + 1;
    match acc.shist with
    | None -> ()
    | Some h -> Array.iter (Histogram.add h) r.observations
  in
  let merge a b =
    {
      welford = Array.init nmetrics (fun m -> Welford.merge a.welford.(m) b.welford.(m));
      shist =
        (match (a.shist, b.shist) with
        | Some ha, Some hb -> Some (Histogram.merge ha hb)
        | None, None -> None
        | _ -> assert false);
      flagged = a.flagged + b.flagged;
    }
  in
  let acc, timing =
    run_fold ?jobs ?chunk ?on_error ?budget_s ?rep_timeout_s ?handle_sigint ?progress ?hists
      ~master_seed ~replications ~init ~add ~merge f
  in
  {
    stats = List.mapi (fun m name -> (name, acc.welford.(m))) metrics;
    hist = acc.shist;
    partial = acc.flagged + timing.over_budget;
    timing;
  }
