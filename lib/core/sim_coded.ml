module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Field = P2p_gf.Field
module Mat = P2p_gf.Mat
module Subspace = P2p_coding.Subspace
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type config = {
  q : int;
  k : int;
  us : float;
  mu : float;
  gamma : float;
  arrivals : (int * float) list;
  smart_exchange : bool;
  faults : Faults.t;
}

let of_gift (g : Stability.Coded.gift_params) =
  {
    q = g.q;
    k = g.k;
    us = g.us;
    mu = g.mu;
    gamma = g.gamma;
    arrivals =
      (if g.lambda0 > 0.0 then [ (0, g.lambda0) ] else [])
      @ (if g.lambda1 > 0.0 then [ (1, g.lambda1) ] else []);
    smart_exchange = false;
    faults = Faults.none;
  }

type peer = { mutable space : Subspace.t; mutable slot : int; mutable departed : bool }

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  useful_transfers : int;
  useless_transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
  dim_histogram : int array;
  near_complete_fraction : float;
}

(* Rate bands, stashed by [total_rate] for [apply]'s dispatch.  A
   float-only record is stored flat, so the per-event stash never boxes. *)
type bands = { arrival : float; mutable seed : float; mutable abort : float }

let run ?(probe = Probe.none) ?sample_every ?max_events ~rng config ~horizon =
  if config.k < 1 then invalid_arg "Sim_coded.run: k must be >= 1";
  List.iter
    (fun (j, rate) ->
      if j < 0 || rate < 0.0 then invalid_arg "Sim_coded.run: bad arrival entry")
    config.arrivals;
  let lambda_total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 config.arrivals in
  if lambda_total <= 0.0 then invalid_arg "Sim_coded.run: no arrivals";
  let common, (peers, len, seeds_count, useless, club_avg) =
    Engine.drive ~probe ?sample_every ?max_events ~name:"sim_coded" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let tracing = probe.Probe.tracing in
        let field = Field.gf config.q in
        let immediate = not (Float.is_finite config.gamma) in
        (* Peers at dimension < K, in a swap-remove array. *)
        let peers = ref (Array.make 16 None) in
        let len = ref 0 in
        let near_complete = ref 0 in
        (* count of peers at dim K-1 *)
        let departures_heap : peer P2p_des.Heap.t = P2p_des.Heap.create () in
        let seeds_count = ref 0 in
        (* peer seeds (dim = K) present, counted only when gamma finite *)
        let useless = ref 0 in
        let club_avg = P2p_stats.Timeavg.create () in
        let arrival_weights = Array.of_list (List.map snd config.arrivals) in
        let arrival_kinds = Array.of_list (List.map fst config.arrivals) in
        let counters = Engine.counters h in
        let frun = Engine.faults h in
        let abort_rate = config.faults.abort_rate in

        (* Sampled phase timers for the two halves of the GF(q) row
           arithmetic: rank updates (Gaussian elimination on receive) vs
           vector selection (basis scan / random member on transmit). *)
        let rank_tm = Hist.timer (Hist.get probe.Probe.hists "sim_coded/rank_update") in
        let select_tm = Hist.timer (Hist.get probe.Probe.hists "sim_coded/vector_select") in

        let population () = !len + !seeds_count in
        let track_dim_change ~before ~after =
          if before = config.k - 1 then decr near_complete;
          if after = config.k - 1 then incr near_complete
        in
        let add_active peer =
          if !len = Array.length !peers then begin
            let bigger = Array.make (2 * !len) None in
            Array.blit !peers 0 bigger 0 !len;
            peers := bigger
          end;
          peer.slot <- !len;
          !peers.(!len) <- Some peer;
          incr len
        in
        let remove_active peer =
          let i = peer.slot in
          decr len;
          if i <> !len then begin
            !peers.(i) <- !peers.(!len);
            (match !peers.(i) with Some q -> q.slot <- i | None -> assert false)
          end;
          !peers.(!len) <- None;
          peer.slot <- -1
        in
        let observe time =
          let n = population () in
          Engine.observe h ~time ~n;
          let frac = if n = 0 then 0.0 else float_of_int !near_complete /. float_of_int n in
          P2p_stats.Timeavg.observe club_avg ~time ~value:frac
        in
        let complete peer ~time =
          counters.completions <- counters.completions + 1;
          track_dim_change ~before:(config.k - 1) ~after:config.k;
          remove_active peer;
          if immediate then begin
            counters.departures <- counters.departures + 1;
            if tracing then Probe.departure probe ~time Completed
          end
          else begin
            incr seeds_count;
            let dwell = Dist.exponential rng ~rate:config.gamma in
            ignore (P2p_des.Heap.insert departures_heap ~key:(time +. dwell) peer)
          end
        in
        (* One subspace per format carrier plus two caller-owned scratch
           rows: the whole contact hot path reuses these, so a transfer
           event allocates nothing. *)
        let proto = Subspace.create field ~k:config.k in
        let scratch = Subspace.alloc_xvec proto in
        let scratch2 = Subspace.alloc_xvec proto in
        (* Insert the coding vector held in [scratch] into a peer's
           subspace, handling completion.  Trace events use the subspace
           dimension as the "piece" index: a useful transfer raising dim
           from d to d+1 fills slot d. *)
        let receive peer ~seed_upload ~time =
          let before = Subspace.dim peer.space in
          let r_t0 = Hist.tick rank_tm in
          let inserted = Subspace.insert_xvec peer.space scratch in
          Hist.tock rank_tm r_t0;
          if inserted then begin
            counters.transfers <- counters.transfers + 1;
            let after = Subspace.dim peer.space in
            if tracing then begin
              Probe.contact probe ~time ~seed:seed_upload ~useful:true;
              Probe.transfer probe ~time ~piece:before ~completed:(after = config.k)
            end;
            if after = config.k then complete peer ~time
            else track_dim_change ~before ~after
          end
          else begin
            incr useless;
            if tracing then
              Probe.contact probe ~time ~seed:seed_upload ~useful:false
          end
        in
        let new_peer ~coded ~time =
          let peer = { space = Subspace.create field ~k:config.k; slot = -1; departed = false } in
          let rec feed j =
            if j > 0 && Subspace.dim peer.space < config.k then begin
              Subspace.random_full_into proto rng scratch;
              ignore (Subspace.insert_xvec peer.space scratch);
              feed (j - 1)
            end
          in
          feed coded;
          if tracing then begin
            (* Cardinality-only encoding: an arrival spanning dimension d is
               traced as holding the first d piece indices. *)
            let d = Subspace.dim peer.space in
            let rec build i acc = if i >= d then acc else build (i + 1) (Pieceset.add i acc) in
            Probe.arrival probe ~time ~pieces:(build 0 Pieceset.empty)
          end;
          if Subspace.dim peer.space = config.k then begin
            (* Arrived already able to decode (possible when coded >= K). *)
            counters.completions <- counters.completions + 1;
            if immediate then begin
              counters.departures <- counters.departures + 1;
              if tracing then Probe.departure probe ~time Completed
            end
            else begin
              incr seeds_count;
              let dwell = Dist.exponential rng ~rate:config.gamma in
              ignore (P2p_des.Heap.insert departures_heap ~key:(time +. dwell) peer)
            end
          end
          else begin
            add_active peer;
            if Subspace.dim peer.space = config.k - 1 then incr near_complete
          end
        in
        (* A uniformly chosen member of the whole population (active or seed):
           with probability seeds/(n) the contacted peer is a seed, which cannot
           receive anything, and with the rest an active peer. *)
        let sample_downloader () =
          let n = population () in
          if n = 0 then None
          else begin
            let idx = Rng.int_below rng n in
            if idx < !len then !peers.(idx) else None (* a peer seed: nothing to send it *)
          end
        in
        (* Deliver the vector held in [scratch]: transfer loss first (the
           upload happened but the vector never arrived), else receive. *)
        let deliver downloader ~seed_upload ~time =
          if Faults.lost frun then begin
            counters.lost <- counters.lost + 1;
            if tracing then begin
              Probe.contact probe ~time ~seed:seed_upload
                ~useful:(not (Subspace.contains_xvec downloader.space scratch));
              Probe.transfer_lost probe ~time
            end
          end
          else receive downloader ~seed_upload ~time
        in
        let transmit ~uploader ~seed_upload ~time =
          match sample_downloader () with
          | None ->
              if tracing then
                Probe.contact probe ~time ~seed:seed_upload ~useful:false
          | Some downloader -> (
              match uploader with
              | None ->
                  (* The fixed seed (or a dwelling peer seed): a uniform
                     vector of the full space. *)
                  let v_t0 = Hist.tick select_tm in
                  Subspace.random_full_into proto rng scratch;
                  Hist.tock select_tm v_t0;
                  deliver downloader ~seed_upload ~time
              | Some (up : peer) ->
                  let sp = up.space in
                  if Subspace.equal sp downloader.space then begin
                    (* Fast path: the downloader already holds everything
                       this uploader can send, the common upload once peers
                       pile up in one hyperplane V⁻.  Burn the same
                       coefficient draws as [random_member_into] (none
                       under smart exchange) and draw the loss in the same
                       order, so the draw stream and every output match the
                       slow path; skip vector construction and reduction. *)
                    if not config.smart_exchange then
                      for _ = 1 to Subspace.dim sp do
                        ignore (Rng.int_below rng config.q)
                      done;
                    if Faults.lost frun then begin
                      counters.lost <- counters.lost + 1;
                      if tracing then begin
                        Probe.contact probe ~time ~seed:seed_upload ~useful:false;
                        Probe.transfer_lost probe ~time
                      end
                    end
                    else begin
                      incr useless;
                      if tracing then
                        Probe.contact probe ~time ~seed:seed_upload ~useful:false
                    end
                  end
                  else begin
                    let v_t0 = Hist.tick select_tm in
                    (* Remark 16: smart exchange sends a basis vector outside
                       the downloader's subspace when one exists. *)
                    if config.smart_exchange then
                      ignore
                        (Subspace.first_uncovered_into ~uploader:sp ~downloader:downloader.space
                           ~scratch:scratch2 scratch)
                    else Subspace.random_member_into sp rng scratch;
                    Hist.tock select_tm v_t0;
                    deliver downloader ~seed_upload ~time
                  end)
        in
        observe 0.0;

        (* The abort band sits right after the seed band so a zero abort
           rate leaves every dispatch boundary float-identical to the
           pre-fault simulator. *)
        let b = { arrival = lambda_total; seed = 0.0; abort = 0.0 } in
        let total_rate () =
          let n = population () in
          b.seed <- (if n = 0 || not (Faults.seed_up frun) then 0.0 else config.us);
          (* Every peer (active or dwelling seed) ticks at rate mu; seeds'
             uploads matter, and active peers' contacts may be silent. *)
          let rate_peers = config.mu *. float_of_int n in
          b.abort <- abort_rate *. float_of_int !len;
          b.arrival +. b.seed +. b.abort +. rate_peers
        in
        let apply ~time ~u =
          if u < b.arrival then begin
            let idx = Dist.categorical rng ~weights:arrival_weights in
            counters.arrivals <- counters.arrivals + 1;
            new_peer ~coded:arrival_kinds.(idx) ~time
          end
          else if u < b.arrival +. b.seed then
            transmit ~uploader:None ~seed_upload:true ~time
          else if u < b.arrival +. b.seed +. b.abort then begin
            (* Churn: a uniformly chosen in-progress (active) peer abandons
               its download.  A positive abort band guarantees one exists. *)
            match !peers.(Rng.int_below rng !len) with
            | Some peer ->
                if Subspace.dim peer.space = config.k - 1 then decr near_complete;
                remove_active peer;
                counters.aborted <- counters.aborted + 1;
                counters.departures <- counters.departures + 1;
                if tracing then Probe.departure probe ~time Aborted
            | None -> assert false
          end
          else begin
            (* Uniform uploader among the n peers: active or dwelling seed. *)
            let n = population () in
            let idx = Rng.int_below rng n in
            if idx < !len then begin
              match !peers.(idx) with
              | Some peer as slot ->
                  (* The slot's own [Some]: passing it on allocates nothing. *)
                  if Subspace.dim peer.space > 0 then
                    transmit ~uploader:slot ~seed_upload:false ~time
              | None -> assert false
            end
            else
              (* A dwelling peer seed: its subspace is everything. *)
              transmit ~uploader:None ~seed_upload:false ~time
          end;
          observe time
        in
        let model =
          {
            Engine.total_rate;
            apply;
            next_scheduled =
              (fun () ->
                match P2p_des.Heap.min_key departures_heap with
                | Some d -> d
                | None -> infinity);
            scheduled =
              (fun ~time ->
                match P2p_des.Heap.pop_min departures_heap with
                | Some (_, peer) ->
                    peer.departed <- true;
                    decr seeds_count;
                    counters.departures <- counters.departures + 1;
                    if tracing then
                      Probe.departure probe ~time Seed_departed;
                    observe time
                | None -> assert false);
            population;
            extra_sample = (fun ~time:_ -> ());
            probe_sample =
              (fun ~time ->
                (* Coded analogue of the piece-count probe: entry i counts the
                   population members whose subspace dimension exceeds i, so
                   the vector is nonincreasing, the rarest "piece" is K-1, and
                   its count is the number of dwelling seeds. *)
                let counts = Array.make config.k 0 in
                for i = 0 to !len - 1 do
                  match !peers.(i) with
                  | Some peer ->
                      let d = Subspace.dim peer.space in
                      for j = 0 to d - 1 do
                        counts.(j) <- counts.(j) + 1
                      done
                  | None -> assert false
                done;
                if !seeds_count > 0 then
                  for j = 0 to config.k - 1 do
                    counts.(j) <- counts.(j) + !seeds_count
                  done;
                let count_of s =
                  let c = Pieceset.cardinal s in
                  if c = config.k then !seeds_count
                  else if c = config.k - 1 then !near_complete
                  else 0
                in
                Probe.sample ~time ~k:config.k ~n:(population ()) ~count_of
                  ~piece_counts:counts);
            finish = (fun ~time -> P2p_stats.Timeavg.close club_avg ~time);
          }
        in
        (model, (peers, len, seeds_count, useless, club_avg)))
  in
  let dim_histogram = Array.make (config.k + 1) 0 in
  for i = 0 to !len - 1 do
    match !peers.(i) with
    | Some peer -> begin
        let d = Subspace.dim peer.space in
        dim_histogram.(d) <- dim_histogram.(d) + 1
      end
    | None -> assert false
  done;
  dim_histogram.(config.k) <- !seeds_count;
  {
    final_time = common.Engine.final_time;
    events = common.Engine.events;
    arrivals = common.Engine.arrivals;
    useful_transfers = common.Engine.transfers;
    useless_transfers = !useless;
    completions = common.Engine.completions;
    departures = common.Engine.departures;
    time_avg_n = common.Engine.time_avg_n;
    max_n = common.Engine.max_n;
    final_n = common.Engine.final_n;
    truncated = common.Engine.truncated;
    outage_time = common.Engine.outage_time;
    aborted_peers = common.Engine.aborted_peers;
    lost_transfers = common.Engine.lost_transfers;
    samples = common.Engine.samples;
    dim_histogram;
    near_complete_fraction = P2p_stats.Timeavg.average club_avg;
  }

let run_seeded ?probe ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?sample_every ?max_events ~rng:(Rng.of_seed seed) config ~horizon
