module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Adjacency = P2p_graph.Adjacency
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type dwell = Exp_dwell | Deterministic_dwell | Erlang_dwell of int
type census = Swarm | Neighbourhood

type config = {
  params : Params.t;
  policy : Policy.t;
  dwell : dwell;
  eta : float;
  rare_piece : int;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
  degree : int option;
  census : census;
}

let default_config params =
  { params; policy = Policy.random_useful; dwell = Exp_dwell; eta = 1.0; rare_piece = 0;
    initial = []; faults = Faults.none; degree = None; census = Swarm }

type groups = {
  young : int;
  infected : int;
  gifted : int;
  one_club : int;
  former_one_club : int;
}

let groups_total g = g.young + g.infected + g.gifted + g.one_club + g.former_one_club

type peer = {
  id : int;
  mutable pieces : Pieceset.t;
  arrival_time : float;
  gifted : bool;
  mutable infected : bool;
  mutable was_one_club : bool;
  mutable boosted : bool;  (* last contact attempt found nothing useful *)
  mutable slot : int;  (* index in the population array; -1 once departed *)
  mutable departed : bool;
}

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  silent_contacts : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
  group_samples : (float * groups) array;
  club_samples : (float * float) array;
  mean_sojourn : float;
  sojourn_count : int;
  one_club_time_fraction : float;
  mean_degree_time_avg : float;
  final_component_sizes : int list;
}

(* Dynamic array of live peers with O(1) swap-removal. *)
module Population = struct
  type t = { mutable peers : peer array; mutable len : int; mutable boosted_count : int }

  let create () = { peers = [||]; len = 0; boosted_count = 0 }
  let size t = t.len

  let add t peer =
    if t.len = Array.length t.peers then begin
      let bigger = Array.make (Int.max 16 (2 * t.len)) peer in
      Array.blit t.peers 0 bigger 0 t.len;
      t.peers <- bigger
    end;
    peer.slot <- t.len;
    t.peers.(t.len) <- peer;
    t.len <- t.len + 1;
    if peer.boosted then t.boosted_count <- t.boosted_count + 1

  let remove t peer =
    let i = peer.slot in
    if i < 0 || i >= t.len || t.peers.(i) != peer then invalid_arg "Population.remove";
    if peer.boosted then t.boosted_count <- t.boosted_count - 1;
    t.len <- t.len - 1;
    if i <> t.len then begin
      t.peers.(i) <- t.peers.(t.len);
      t.peers.(i).slot <- i
    end;
    peer.slot <- -1;
    peer.departed <- true

  let set_boosted t peer value =
    if peer.boosted <> value then begin
      peer.boosted <- value;
      t.boosted_count <- (t.boosted_count + if value then 1 else -1)
    end

  let uniform t rng =
    if t.len = 0 then invalid_arg "Population.uniform: empty";
    t.peers.(Rng.int_below rng t.len)

  (* Sample a peer with weight 1 for normal and [eta] for boosted peers. *)
  let weighted t rng ~eta =
    if eta = 1.0 then uniform t rng
    else begin
      let normal = float_of_int (t.len - t.boosted_count) in
      let boosted = eta *. float_of_int t.boosted_count in
      let pick_boosted = Rng.float rng *. (normal +. boosted) >= normal in
      (* Rejection sample within the chosen class. *)
      let rec find () =
        let peer = t.peers.(Rng.int_below rng t.len) in
        if peer.boosted = pick_boosted then peer else find ()
      in
      if t.len = t.boosted_count || t.boosted_count = 0 then uniform t rng else find ()
    end

  let contact_rate t ~mu ~eta =
    mu *. (float_of_int (t.len - t.boosted_count) +. (eta *. float_of_int t.boosted_count))

  let iter t f =
    for i = 0 to t.len - 1 do
      f t.peers.(i)
    done
end

let classify_groups config pop =
  let full = Params.full_set config.params in
  let one_club_type = Pieceset.remove config.rare_piece full in
  let g = ref { young = 0; infected = 0; gifted = 0; one_club = 0; former_one_club = 0 } in
  Population.iter pop (fun peer ->
      let c = !g in
      if peer.gifted then g := { c with gifted = c.gifted + 1 }
      else if peer.infected then g := { c with infected = c.infected + 1 }
      else if Pieceset.equal peer.pieces one_club_type then g := { c with one_club = c.one_club + 1 }
      else if peer.was_one_club then g := { c with former_one_club = c.former_one_club + 1 }
      else g := { c with young = c.young + 1 });
  !g

(* The one-club witness that needs no designated piece: max over pieces
   of the fraction of peers whose type is exactly F - {i}. *)
let club_fraction (p : Params.t) state =
  let n = State.n state in
  if n = 0 then 0.0
  else begin
    let full = Params.full_set p in
    let best = ref 0 in
    for i = 0 to p.k - 1 do
      best := Int.max !best (State.count state (Pieceset.remove i full))
    done;
    float_of_int !best /. float_of_int n
  end

(* Reject a bad config before any draw. *)
let validate config =
  let p = config.params in
  let fail msg = invalid_arg ("Sim_agent.run: " ^ msg) in
  if not (config.eta >= 1.0) then fail "eta must be >= 1";
  if config.rare_piece < 0 || config.rare_piece >= p.k then fail "rare piece out of range";
  (match config.degree with Some d when d < 1 -> fail "degree must be >= 1" | _ -> ());
  (match config.dwell with Erlang_dwell m when m < 1 -> fail "Erlang stages must be >= 1" | _ -> ());
  if config.census = Neighbourhood && Option.is_none config.degree then
    fail "a neighbourhood census needs a sparse overlay";
  if Params.immediate_departure p
     && List.exists (fun (c, n) -> n > 0 && Pieceset.equal c (Params.full_set p)) config.initial
  then fail "initial peer seeds need finite gamma"

let sample_dwell config rng =
  let gamma = config.params.gamma in
  match config.dwell with
  | Exp_dwell -> Dist.exponential rng ~rate:gamma
  | Deterministic_dwell -> 1.0 /. gamma
  | Erlang_dwell m ->
      let stage_rate = float_of_int m *. gamma in
      let total = ref 0.0 in
      for _ = 1 to m do
        total := !total +. Dist.exponential rng ~rate:stage_rate
      done;
      !total

let run ?(probe = Probe.none) ?observer ?sample_every ?max_events ~rng config ~horizon =
  validate config;
  let p = config.params in
  let sparse = Option.is_some config.degree in
  let local = config.census = Neighbourhood in
  let common, (state, pop, graph, silent, group_samples, club_samples, sojourn, club_avg, deg_avg) =
    Engine.drive ~probe ?sample_every ?max_events ~name:"sim_agent" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let tracing = probe.Probe.tracing in
        let full = Params.full_set p in
        let one_club_type = Pieceset.remove config.rare_piece full in
        let pop = Population.create () in
        let state = State.create () in
        (* The overlay: peers by id for neighbour lookups.  Both stay
           empty on the complete graph. *)
        let graph = Adjacency.create () in
        let by_id : (int, peer) Hashtbl.t = Hashtbl.create 64 in
        let departures_heap : peer P2p_des.Heap.t = P2p_des.Heap.create () in
        let next_id = ref 0 in
        let silent = ref 0 in
        let sojourn = P2p_stats.Welford.create () in
        let club_avg = P2p_stats.Timeavg.create () in
        let deg_avg = P2p_stats.Timeavg.create () in
        let seed_boosted = ref false in
        let lambda_total = Params.lambda_total p in
        (* Walker alias table, as in Sim_markov: O(1) arrival-type draws. *)
        let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
        let counters = Engine.counters h in
        let frun = Engine.faults h in
        let abort_rate = config.faults.abort_rate in
        let notify ~time = match observer with Some f -> f ~time ~state | None -> () in

        let new_peer c ~time =
          let peer =
            {
              id = !next_id;
              pieces = c;
              arrival_time = time;
              gifted = Pieceset.mem config.rare_piece c;
              infected = false;
              was_one_club = Pieceset.equal c one_club_type;
              boosted = false;
              slot = -1;
              departed = false;
            }
          in
          incr next_id;
          Population.add pop peer;
          State.add_peer state c;
          Option.iter
            (fun degree ->
              Hashtbl.replace by_id peer.id peer;
              Adjacency.add_node graph peer.id;
              Adjacency.attach_uniform graph peer.id ~degree rng)
            config.degree;
          peer
        in
        let leave peer ~time =
          Population.remove pop peer;
          if sparse then begin
            Adjacency.remove_node graph peer.id;
            Hashtbl.remove by_id peer.id
          end;
          counters.departures <- counters.departures + 1;
          P2p_stats.Welford.add sojourn (time -. peer.arrival_time)
        in
        let depart peer ~time =
          State.remove_peer state peer.pieces;
          leave peer ~time;
          notify ~time
        in
        let schedule_departure peer ~time =
          let dwell = sample_dwell config rng in
          ignore (P2p_des.Heap.insert departures_heap ~key:(time +. dwell) peer)
        in
        (* Give a piece to [peer]; updates flags and departures. *)
        let deliver peer piece ~time =
          counters.transfers <- counters.transfers + 1;
          let was_one_club_now = Pieceset.equal peer.pieces one_club_type in
          let target = Pieceset.add piece peer.pieces in
          if tracing then
            Probe.transfer probe ~time ~piece ~completed:(Pieceset.equal target full);
          if piece = config.rare_piece && (not peer.gifted) && not was_one_club_now then
            peer.infected <- true;
          if Pieceset.equal target one_club_type then peer.was_one_club <- true;
          if Pieceset.equal target full && Params.immediate_departure p then begin
            counters.completions <- counters.completions + 1;
            State.remove_peer state peer.pieces;
            peer.pieces <- target;
            leave peer ~time;
            if tracing then Probe.departure probe ~time Completed
          end
          else begin
            State.move_peer state ~from_:peer.pieces ~to_:target;
            peer.pieces <- target;
            (* Receiving a piece changes what the peer can offer, so the
               unsuccessful-contact speedup (Section VIII-C) no longer applies:
               reset the clock to its normal rate. *)
            Population.set_boosted pop peer false;
            if Pieceset.equal target full then begin
              counters.completions <- counters.completions + 1;
              schedule_departure peer ~time
            end
          end;
          notify ~time
        in
        (* Copies of each piece held by [up] and its overlay neighbours. *)
        let neighbourhood_copies up =
          let counts = Array.make p.k 0 in
          let tally c = Pieceset.iter (fun i -> counts.(i) <- counts.(i) + 1) c in
          tally up.pieces;
          Adjacency.iter_neighbors graph up.id (fun id -> tally (Hashtbl.find by_id id).pieces);
          fun i -> counts.(i)
        in
        let choose uploader downloader =
          match uploader with
          | Some up when up == downloader -> None (* self-contact is never useful *)
          | Some up when local ->
              let useful = Pieceset.diff up.pieces downloader.pieces in
              if Pieceset.is_empty useful then None
              else Some (Policy.rarest ~rng ~copies:(neighbourhood_copies up) useful)
          | _ ->
              let uploader =
                match uploader with None -> Policy.Fixed_seed | Some up -> Policy.Peer up.pieces
              in
              Policy.sample config.policy ~rng ~k:p.k ~state ~uploader
                ~downloader:downloader.pieces
        in
        (* Resolve one contact from [uploader] (None = fixed seed, which
           reaches every peer; a peer reaches only its neighbours, and an
           isolated one only itself, which is never useful). *)
        let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_agent/contact") in
        let contact uploader ~time =
          let c_t0 = Hist.tick contact_tm in
          (if Population.size pop = 0 then ()
          else begin
            let downloader =
              match uploader with
              | Some up when sparse -> (
                  match Adjacency.sample_neighbor graph up.id rng with
                  | Some id -> Hashtbl.find by_id id
                  | None -> up)
              | _ -> Population.uniform pop rng
            in
            let choice = choose uploader downloader in
            let success = Option.is_some choice in
            if not success then incr silent;
            if tracing then
              Probe.contact probe ~time ~seed:(Option.is_none uploader) ~useful:success;
            (match uploader with
            | None -> seed_boosted := not success
            | Some up -> if not up.departed then Population.set_boosted pop up (not success));
            match choice with
            | Some _ when Faults.lost frun ->
                (* Uploader found a useful piece but the transfer dropped: the
                   contact counts as successful for the retry speedup (something
                   useful was on offer), yet nothing is delivered. *)
                counters.lost <- counters.lost + 1;
                if tracing then Probe.transfer_lost probe ~time
            | Some piece -> deliver downloader piece ~time
            | None -> ()
          end);
          Hist.tock contact_tm c_t0
        in

        (* Initial population. *)
        List.iter
          (fun (c, count) ->
            for _ = 1 to count do
              let peer = new_peer c ~time:0.0 in
              if Pieceset.equal c full then schedule_departure peer ~time:0.0
            done)
          config.initial;

        let observe time =
          let n = Population.size pop in
          Engine.observe h ~time ~n;
          let club =
            if n = 0 then 0.0
            else begin
              let club_count =
                State.count state one_club_type
                + if Params.immediate_departure p then 0 else State.count state full
              in
              float_of_int club_count /. float_of_int n
            end
          in
          P2p_stats.Timeavg.observe club_avg ~time ~value:club;
          if sparse && n > 0 then
            P2p_stats.Timeavg.observe deg_avg ~time ~value:(Adjacency.mean_degree graph)
        in
        observe 0.0;

        let group_samples = P2p_stats.Vec.create () in
        let club_samples = P2p_stats.Vec.create () in

        (* Rate bands, stashed by [total_rate] for [apply]'s dispatch. *)
        let rate_arrival = ref 0.0 in
        let rate_seed = ref 0.0 in
        let rate_peers = ref 0.0 in
        let total_rate () =
          let n = Population.size pop in
          rate_arrival := lambda_total;
          rate_seed :=
            (if n = 0 || not (Faults.seed_up frun) then 0.0
             else if !seed_boosted then config.eta *. p.us
             else p.us);
          rate_peers := Population.contact_rate pop ~mu:p.mu ~eta:config.eta;
          let rate_abort = abort_rate *. float_of_int (n - State.count state full) in
          !rate_arrival +. !rate_seed +. !rate_peers +. rate_abort
        in
        let apply ~time ~u =
          if u < !rate_arrival then begin
            let idx = Dist.Alias.sample rng arrival_alias in
            let c = fst p.arrivals.(idx) in
            let peer = new_peer c ~time in
            counters.arrivals <- counters.arrivals + 1;
            if tracing then Probe.arrival probe ~time ~pieces:c;
            if Pieceset.equal c full then schedule_departure peer ~time;
            notify ~time
          end
          else if u < !rate_arrival +. !rate_seed then contact None ~time
          else if u < !rate_arrival +. !rate_seed +. !rate_peers then begin
            let uploader = Population.weighted pop rng ~eta:config.eta in
            contact (Some uploader) ~time
          end
          else begin
            (* Churn: a uniformly chosen in-progress peer abandons its
               download.  rate_abort > 0 guarantees a non-seed peer exists. *)
            let rec pick () =
              let peer = Population.uniform pop rng in
              if Pieceset.equal peer.pieces full then pick () else peer
            in
            counters.aborted <- counters.aborted + 1;
            if tracing then Probe.departure probe ~time Aborted;
            depart (pick ()) ~time
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
                    if not peer.departed then begin
                      if tracing then Probe.departure probe ~time Seed_departed;
                      depart peer ~time
                    end;
                    observe time
                | None -> assert false);
            population = (fun () -> Population.size pop);
            extra_sample =
              (fun ~time ->
                P2p_stats.Vec.push group_samples (time, classify_groups config pop);
                P2p_stats.Vec.push club_samples (time, club_fraction p state));
            probe_sample =
              (fun ~time ->
                Probe.sample ~time ~k:p.k ~n:(State.n state) ~count_of:(State.count state)
                  ~piece_counts:(State.piece_count_vector state ~k:p.k));
            finish =
              (fun ~time ->
                P2p_stats.Timeavg.close club_avg ~time;
                if sparse then P2p_stats.Timeavg.close deg_avg ~time);
          }
        in
        ( model,
          (state, pop, graph, silent, group_samples, club_samples, sojourn, club_avg, deg_avg) ))
  in
  let stats =
    {
      final_time = common.Engine.final_time;
      events = common.Engine.events;
      arrivals = common.Engine.arrivals;
      transfers = common.Engine.transfers;
      completions = common.Engine.completions;
      departures = common.Engine.departures;
      silent_contacts = !silent;
      time_avg_n = common.Engine.time_avg_n;
      max_n = common.Engine.max_n;
      final_n = common.Engine.final_n;
      truncated = common.Engine.truncated;
      outage_time = common.Engine.outage_time;
      aborted_peers = common.Engine.aborted_peers;
      lost_transfers = common.Engine.lost_transfers;
      samples = common.Engine.samples;
      group_samples = P2p_stats.Vec.to_array group_samples;
      club_samples = P2p_stats.Vec.to_array club_samples;
      mean_sojourn = P2p_stats.Welford.mean sojourn;
      sojourn_count = P2p_stats.Welford.count sojourn;
      one_club_time_fraction = P2p_stats.Timeavg.average club_avg;
      mean_degree_time_avg = (if sparse then P2p_stats.Timeavg.average deg_avg else nan);
      final_component_sizes =
        (if sparse then Adjacency.connected_component_sizes graph
         else [ Population.size pop ]);
    }
  in
  (stats, state)

let run_seeded ?probe ?observer ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?observer ?sample_every ?max_events ~rng:(Rng.of_seed seed) config ~horizon
