module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Adjacency = P2p_graph.Adjacency
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist
module Timeavg = P2p_stats.Timeavg
module Welford = P2p_stats.Welford

type dwell = Exp_dwell | Deterministic_dwell | Erlang_dwell of int

type 'spec config = {
  us : float;
  classes : 'spec Params.class_of list;
  dwell : dwell;
  eta : float;
  initial : ('spec * int) list;
  faults : Faults.t;
  degree : int option;
}

let config ~us classes =
  { us; classes; dwell = Exp_dwell; eta = 1.0; initial = []; faults = Faults.none; degree = None }

let validate ~who config =
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg (who ^ ": " ^ msg)) fmt in
  if not (config.eta >= 1.0) then fail "eta must be >= 1, got %g" config.eta;
  (match config.degree with Some d when d < 1 -> fail "degree must be >= 1, got %d" d | _ -> ());
  match config.dwell with
  | Erlang_dwell m when m < 1 -> fail "Erlang stages must be >= 1, got %d" m
  | _ -> ()

type 'c peer = {
  id : int;
  klass : int;  (* index into [config.classes] *)
  content : 'c;
  arrival_time : float;
  mutable boosted : bool;  (* last contact had nothing to send *)
  mutable slot : int;  (* index in the population array; -1 once departed *)
}

let content p = p.content

(* The live peers, in [0, len) of an array with O(1) swap-removal, and
   the overlay: peers by id for neighbour lookups, both empty on the
   complete graph. *)
type 'c t = {
  mutable peers : 'c peer array;
  mutable len : int;
  mutable boosted_count : int;
  graph : Adjacency.t;
  by_id : (int, 'c peer) Hashtbl.t;
}

let size t = t.len

let iter_peers t f =
  for i = 0 to t.len - 1 do
    f t.peers.(i)
  done

let iter t f = iter_peers t (fun peer -> f peer.content)

let iter_neighbours t peer f =
  Adjacency.iter_neighbors t.graph peer.id (fun id -> f (Hashtbl.find t.by_id id).content)

let add t peer =
  if t.len = Array.length t.peers then begin
    let bigger = Array.make (Int.max 16 (2 * t.len)) peer in
    Array.blit t.peers 0 bigger 0 t.len;
    t.peers <- bigger
  end;
  peer.slot <- t.len;
  t.peers.(t.len) <- peer;
  t.len <- t.len + 1

let remove t peer =
  let i = peer.slot in
  if i < 0 || i >= t.len || t.peers.(i) != peer then invalid_arg "Peers.remove";
  if peer.boosted then t.boosted_count <- t.boosted_count - 1;
  t.len <- t.len - 1;
  if i <> t.len then begin
    t.peers.(i) <- t.peers.(t.len);
    t.peers.(i).slot <- i
  end;
  peer.slot <- -1

let[@inline] set_boosted t peer value =
  if peer.boosted <> value then begin
    peer.boosted <- value;
    t.boosted_count <- (t.boosted_count + if value then 1 else -1)
  end

let[@inline] uniform t rng = t.peers.(Rng.int_below rng t.len)

(* A peer with weight 1 if normal and [eta] if boosted: pick the class,
   then rejection-sample within it. *)
let boosted_weighted t rng ~eta =
  let normal = float_of_int (t.len - t.boosted_count) in
  let boosted = eta *. float_of_int t.boosted_count in
  let pick_boosted = Rng.float rng *. (normal +. boosted) >= normal in
  let rec find () =
    let peer = t.peers.(Rng.int_below rng t.len) in
    if peer.boosted = pick_boosted then peer else find ()
  in
  if t.len = t.boosted_count || t.boosted_count = 0 then uniform t rng else find ()

let[@inline] weighted t rng ~eta = if eta = 1.0 then uniform t rng else boosted_weighted t rng ~eta

let[@inline] contact_rate t ~mu ~eta =
  mu *. (float_of_int (t.len - t.boosted_count) +. (eta *. float_of_int t.boosted_count))

type ('spec, 'c, 'g) ops = {
  name : string;
  make : 'spec -> 'c;
  join : 'c -> unit;
  leave : 'c -> unit;
  full : 'c -> bool;
  offer_seed : 'c -> bool;
  offer : 'c peer -> 'c -> bool;
  receive : 'c -> stays:bool -> int;
  club : unit -> int;
  witness : n:int -> float;
  group : unit -> 'g;
  pieces : 'c -> Pieceset.t;
  probe_sample : time:float -> Probe.sample;
}

type ('spec, 'c, 'g) content = rng:Rng.t -> probe:Probe.t -> 'c t -> ('spec, 'c, 'g) ops

type 'g stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  useless_transfers : int;
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
  group_samples : (float * 'g) array;
  club_samples : (float * float) array;
  mean_sojourn : float;
  sojourn_count : int;
  one_club_time_fraction : float;
  mean_degree_time_avg : float;
  final_component_sizes : int list;
  class_mean_n : float array;
  class_mean_sojourn : float array;
}

let sample_dwell dwell ~gamma rng =
  match dwell with
  | Exp_dwell -> Dist.exponential rng ~rate:gamma
  | Deterministic_dwell -> 1.0 /. gamma
  | Erlang_dwell m ->
      let stage_rate = float_of_int m *. gamma in
      let total = ref 0.0 in
      for _ = 1 to m do
        total := !total +. Dist.exponential rng ~rate:stage_rate
      done;
      !total

(* Rate bands, stashed by [total_rate] for [apply]'s dispatch.  A
   float-only record is stored flat, so the per-event stash never boxes. *)
type bands = { arrival : float; mutable seed : float; mutable peers : float }

let run ?(probe = Probe.none) ?observer ?sample_every ?max_events ~rng config
    (content : (_, _, _) content) ~horizon =
  validate ~who:"Peers.run" config;
  let us = config.us and eta = config.eta and sparse = Option.is_some config.degree in
  let classes = Array.of_list config.classes in
  let mu_max = Array.fold_left (fun m (c : _ Params.class_of) -> Float.max m c.mu) 0.0 classes in
  (* [accept] is exactly 1.0 for the fastest class, which then draws no coin. *)
  let accept = Array.map (fun (c : _ Params.class_of) -> c.mu /. mu_max) classes in
  let leaves_at_once =
    Array.map (fun (c : _ Params.class_of) -> not (Float.is_finite c.gamma)) classes
  in
  (* All classes' arrival streams, flattened to (class, spec, rate). *)
  let streams =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ci (c : _ Params.class_of) -> List.map (fun (spec, r) -> (ci, spec, r)) c.arrivals)
            config.classes))
  in
  let sw =
    { peers = [||]; len = 0; boosted_count = 0; graph = Adjacency.create ();
      by_id = Hashtbl.create 64 }
  in
  let ops = content ~rng ~probe sw in
  let silent = ref 0 and useless = ref 0 in
  let sojourn = Welford.create () and club_avg = Timeavg.create () in
  let deg_avg = Timeavg.create () in
  let class_sojourn = Array.map (fun _ -> Welford.create ()) classes in
  (* residence time of departed peers, per class *)
  let class_resid = Array.make (Array.length classes) 0.0 in
  let group_samples = P2p_stats.Vec.create () and club_samples = P2p_stats.Vec.create () in
  let common, () =
    Engine.drive ~probe ?sample_every ?max_events ~name:ops.name ~rng ~faults:config.faults
      ~horizon (fun h ->
        let tracing = probe.Probe.tracing in
        let departures_heap : _ peer P2p_des.Heap.t = P2p_des.Heap.create () in
        let next_id = ref 0 and seeds = ref 0 (* peers holding everything *) in
        let seed_boosted = ref false in
        let arrival_alias = Dist.Alias.make (Array.map (fun (_, _, r) -> r) streams) in
        let counters = Engine.counters h and frun = Engine.faults h in
        let abort_rate = config.faults.abort_rate in
        (* The club fraction changes only with the state: recomputed at
           the first observation after a change. *)
        let club = ref 0.0 and club_stale = ref true in
        let notify ~time =
          club_stale := true;
          match observer with Some f -> f ~time sw | None -> ()
        in
        let dwell peer ~time =
          incr seeds;
          let d = sample_dwell config.dwell ~gamma:classes.(peer.klass).gamma rng in
          ignore (P2p_des.Heap.insert departures_heap ~key:(time +. d) peer)
        in
        let join c ~klass ~time =
          let peer =
            { id = !next_id; klass; content = c; arrival_time = time; boosted = false; slot = -1 }
          in
          incr next_id;
          add sw peer;
          ops.join c;
          (match config.degree with
          | Some degree ->
              Hashtbl.replace sw.by_id peer.id peer;
              Adjacency.add_node sw.graph peer.id;
              Adjacency.attach_uniform sw.graph peer.id ~degree rng
          | None -> ());
          if ops.full c then dwell peer ~time
        in
        let leave peer ~time =
          remove sw peer;
          if sparse then begin
            Adjacency.remove_node sw.graph peer.id;
            Hashtbl.remove sw.by_id peer.id
          end;
          counters.departures <- counters.departures + 1;
          let stay = time -. peer.arrival_time in
          Welford.add sojourn stay;
          Welford.add class_sojourn.(peer.klass) stay;
          class_resid.(peer.klass) <- class_resid.(peer.klass) +. stay
        in
        let depart peer ~time =
          ops.leave peer.content;
          leave peer ~time;
          notify ~time
        in
        (* A useful upload reached [peer]: completion, departure or dwell. *)
        let deliver peer piece ~time =
          counters.transfers <- counters.transfers + 1;
          let completed = ops.full peer.content in
          if tracing then Probe.transfer probe ~time ~piece ~completed;
          if completed then counters.completions <- counters.completions + 1;
          if completed && leaves_at_once.(peer.klass) then begin
            leave peer ~time;
            if tracing then Probe.departure probe ~time Completed
          end
          else begin
            (* Receiving changes what the peer can offer, so the
               unsuccessful-contact speedup (Section VIII-C) no longer
               applies: reset the clock to its normal rate. *)
            set_boosted sw peer false;
            if completed then dwell peer ~time
          end;
          notify ~time
        in
        (* After an offer: the loss coin if something was sent (it still
           counts as a success for the retry speedup), then the receipt. *)
        let resolve down sent ~seed ~time =
          if not sent then begin
            incr silent;
            if tracing then Probe.contact probe ~time ~seed ~useful:false
          end
          else if Faults.lost frun then begin
            counters.lost <- counters.lost + 1;
            if tracing then begin
              Probe.contact probe ~time ~seed ~useful:true;
              Probe.transfer_lost probe ~time
            end
          end
          else begin
            let piece = ops.receive down.content ~stays:(not leaves_at_once.(down.klass)) in
            if tracing then Probe.contact probe ~time ~seed ~useful:(piece >= 0);
            if piece >= 0 then deliver down piece ~time else incr useless
          end
        in
        let contact_tm = Hist.timer (Hist.get probe.Probe.hists (ops.name ^ "/contact")) in
        (* The fixed seed reaches every peer; a peer only its neighbours,
           and an isolated one only itself. *)
        let contact_seed ~time =
          let t0 = Hist.tick contact_tm in
          let down = uniform sw rng in
          let sent = ops.offer_seed down.content in
          seed_boosted := not sent;
          resolve down sent ~seed:true ~time;
          Hist.tock contact_tm t0
        in
        let contact_peer up ~time =
          let t0 = Hist.tick contact_tm in
          let down =
            if not sparse then uniform sw rng
            else
              match Adjacency.sample_neighbor sw.graph up.id rng with
              | Some id -> Hashtbl.find sw.by_id id
              | None -> up
          in
          let sent = ops.offer up down.content in
          set_boosted sw up (not sent);
          resolve down sent ~seed:false ~time;
          Hist.tock contact_tm t0
        in
        (* Initial population, all in the first class. *)
        List.iter
          (fun (spec, count) ->
            for _ = 1 to count do
              join (ops.make spec) ~klass:0 ~time:0.0
            done)
          config.initial;
        let observe time =
          let n = sw.len in
          Engine.observe h ~time ~n;
          if !club_stale then begin
            club := if n = 0 then 0.0 else float_of_int (ops.club ()) /. float_of_int n;
            club_stale := false
          end;
          Timeavg.observe club_avg ~time ~value:!club;
          if sparse && n > 0 then
            Timeavg.observe deg_avg ~time ~value:(Adjacency.mean_degree sw.graph)
        in
        observe 0.0;
        let b =
          { arrival = Array.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 streams; seed = 0.0;
            peers = 0.0 }
        in
        let total_rate () =
          let n = sw.len in
          b.seed <-
            (if n = 0 || not (Faults.seed_up frun) then 0.0
             else if !seed_boosted then eta *. us
             else us);
          b.peers <- contact_rate sw ~mu:mu_max ~eta;
          b.arrival +. b.seed +. b.peers +. (abort_rate *. float_of_int (n - !seeds))
        in
        let apply ~time ~u =
          if u < b.arrival then begin
            let klass, spec, _ = streams.(Dist.Alias.sample rng arrival_alias) in
            let c = ops.make spec in
            counters.arrivals <- counters.arrivals + 1;
            if tracing then Probe.arrival probe ~time ~pieces:(ops.pieces c);
            if ops.full c && leaves_at_once.(klass) then begin
              (* A coded gift can span everything: it decodes on arrival
                 and leaves at once. *)
              counters.completions <- counters.completions + 1;
              counters.departures <- counters.departures + 1;
              if tracing then Probe.departure probe ~time Completed
            end
            else begin
              join c ~klass ~time;
              notify ~time
            end
          end
          else if u < b.arrival +. b.seed then contact_seed ~time
          else if u < b.arrival +. b.seed +. b.peers then begin
            let up = weighted sw rng ~eta in
            let a = accept.(up.klass) in
            if a >= 1.0 || Rng.float rng < a then contact_peer up ~time
          end
          else begin
            (* Churn: a uniform unfinished peer abandons its download.  A
               positive churn band guarantees one exists. *)
            let rec pick () =
              let peer = uniform sw rng in
              if ops.full peer.content then pick () else peer
            in
            counters.aborted <- counters.aborted + 1;
            if tracing then Probe.departure probe ~time Aborted;
            depart (pick ()) ~time
          end;
          observe time
        in
        ( {
            Engine.total_rate;
            apply;
            next_scheduled =
              (fun () ->
                match P2p_des.Heap.min_key departures_heap with Some d -> d | None -> infinity);
            scheduled =
              (fun ~time ->
                match P2p_des.Heap.pop_min departures_heap with
                | Some (_, peer) ->
                    (* Churn never picks a seed, so a dwelling seed is
                       still present when its dwell ends. *)
                    if tracing then Probe.departure probe ~time Seed_departed;
                    decr seeds;
                    depart peer ~time;
                    observe time
                | None -> assert false);
            population = (fun () -> sw.len);
            extra_sample =
              (fun ~time ->
                P2p_stats.Vec.push group_samples (time, ops.group ());
                P2p_stats.Vec.push club_samples (time, ops.witness ~n:sw.len));
            probe_sample = ops.probe_sample;
            finish =
              (fun ~time ->
                Timeavg.close club_avg ~time;
                if sparse then Timeavg.close deg_avg ~time);
          },
          () ))
  in
  (* ∫ n_c dt is the summed residence of class-c peers up to the end. *)
  let final_time = common.Engine.final_time in
  iter_peers sw (fun peer ->
      class_resid.(peer.klass) <- class_resid.(peer.klass) +. (final_time -. peer.arrival_time));
  ( {
      final_time;
      events = common.Engine.events;
      arrivals = common.Engine.arrivals;
      transfers = common.Engine.transfers;
      useless_transfers = !useless;
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
      mean_sojourn = Welford.mean sojourn;
      sojourn_count = Welford.count sojourn;
      one_club_time_fraction = Timeavg.average club_avg;
      mean_degree_time_avg = (if sparse then Timeavg.average deg_avg else nan);
      final_component_sizes =
        (if sparse then Adjacency.connected_component_sizes sw.graph else [ sw.len ]);
      class_mean_n =
        Array.map (fun r -> if final_time > 0.0 then r /. final_time else nan) class_resid;
      class_mean_sojourn = Array.map Welford.mean class_sojourn;
    },
    sw )
