module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist

type klass = {
  label : string;
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) list;
}

type t = { k : int; us : float; classes : klass array }

let make ~k ~us ~classes =
  if k < 1 || k > Pieceset.max_pieces then invalid_arg "Hetero.make: k out of range";
  if us < 0.0 then invalid_arg "Hetero.make: us must be >= 0";
  if classes = [] then invalid_arg "Hetero.make: need at least one class";
  let full = Pieceset.full ~k in
  List.iter
    (fun c ->
      if c.mu <= 0.0 then invalid_arg "Hetero.make: class mu must be > 0";
      if c.gamma <= 0.0 then invalid_arg "Hetero.make: class gamma must be positive";
      List.iter
        (fun (set, rate) ->
          if rate < 0.0 then invalid_arg "Hetero.make: negative arrival rate";
          if not (Pieceset.subset set full) then invalid_arg "Hetero.make: type beyond K";
          if Pieceset.equal set full && not (Float.is_finite c.gamma) then
            invalid_arg "Hetero.make: lambda_F needs finite gamma")
        c.arrivals)
    classes;
  let total =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc (_, r) -> acc +. r) acc c.arrivals)
      0.0 classes
  in
  if total <= 0.0 then invalid_arg "Hetero.make: total arrival rate must be positive";
  { k; us; classes = Array.of_list classes }

let of_params (p : Params.t) =
  make ~k:p.k ~us:p.us
    ~classes:
      [
        {
          label = "all";
          mu = p.mu;
          gamma = p.gamma;
          arrivals = Array.to_list p.arrivals;
        };
      ]

let lambda_total t =
  Array.fold_left
    (fun acc c -> List.fold_left (fun acc (_, r) -> acc +. r) acc c.arrivals)
    0.0 t.classes

let rho_of (c : klass) = if Float.is_finite c.gamma then c.mu /. c.gamma else 0.0

(* Arrival rate of class-c peers missing [piece]. *)
let class_rate_missing (c : klass) ~piece =
  List.fold_left
    (fun acc (set, r) -> if Pieceset.mem piece set then acc else acc +. r)
    0.0 c.arrivals

let mean_seed_offspring t ~piece =
  (* class mix of the one-club = arrival mix of peers missing the piece *)
  let total = ref 0.0 and weighted = ref 0.0 in
  Array.iter
    (fun c ->
      let rate = class_rate_missing c ~piece in
      total := !total +. rate;
      weighted := !weighted +. (rate *. rho_of c))
    t.classes;
  if !total <= 0.0 then 0.0 else !weighted /. !total

let threshold t ~piece =
  let m_bar = mean_seed_offspring t ~piece in
  if m_bar >= 1.0 then infinity
  else begin
    (* gifted contributions: class-c arrivals holding the piece inject
       K - |C| + mu_c/gamma_c uploads of it over their stay *)
    let gifted =
      Array.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (set, r) ->
              if Pieceset.mem piece set then
                acc +. (r *. (float_of_int (t.k - Pieceset.cardinal set) +. rho_of c))
              else acc)
            acc c.arrivals)
        0.0 t.classes
    in
    let gifted_arrival_rate =
      Array.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc (set, r) -> if Pieceset.mem piece set then acc +. r else acc)
            acc c.arrivals)
        0.0 t.classes
    in
    ((t.us +. gifted) /. (1.0 -. m_bar)) +. gifted_arrival_rate
  end

let classify_heuristic ?(tolerance = 1e-9) t =
  (* mirror Theorem 1's structure: supercritical seed branching for every
     piece that can enter => stable; otherwise compare to the minimum
     threshold. *)
  let lambda = lambda_total t in
  let piece_enters piece =
    t.us > 0.0
    || Array.exists
         (fun c -> List.exists (fun (set, r) -> r > 0.0 && Pieceset.mem piece set) c.arrivals)
         t.classes
  in
  let blocked = ref false in
  let worst = ref infinity in
  for piece = 0 to t.k - 1 do
    if not (piece_enters piece) then blocked := true
    else worst := Float.min !worst (threshold t ~piece)
  done;
  if !blocked then Stability.Transient
  else if lambda > !worst *. (1.0 +. tolerance) then Stability.Transient
  else if lambda < !worst *. (1.0 -. tolerance) then Stability.Positive_recurrent
  else Stability.Borderline

(* ---- simulation ---- *)

type peer = {
  mutable pieces : Pieceset.t;
  klass : int;
  arrival_time : float;
  mutable slot_global : int;
  mutable slot_class : int;
  mutable departed : bool;
}

type bag = { mutable items : peer array; mutable len : int }

let bag_create () = { items = [||]; len = 0 }

let bag_add which bag peer =
  if bag.len = Array.length bag.items then begin
    let bigger = Array.make (Int.max 16 (2 * bag.len)) peer in
    Array.blit bag.items 0 bigger 0 bag.len;
    bag.items <- bigger
  end;
  (match which with
  | `Global -> peer.slot_global <- bag.len
  | `Class -> peer.slot_class <- bag.len);
  bag.items.(bag.len) <- peer;
  bag.len <- bag.len + 1

let bag_remove which bag peer =
  let i = match which with `Global -> peer.slot_global | `Class -> peer.slot_class in
  bag.len <- bag.len - 1;
  if i <> bag.len then begin
    let moved = bag.items.(bag.len) in
    bag.items.(i) <- moved;
    match which with `Global -> moved.slot_global <- i | `Class -> moved.slot_class <- i
  end;
  match which with `Global -> peer.slot_global <- -1 | `Class -> peer.slot_class <- -1

let bag_uniform bag rng =
  if bag.len = 0 then invalid_arg "Hetero: empty bag";
  bag.items.(Rng.int_below rng bag.len)

(* Rate bands, stashed by [total_rate] for [apply]'s dispatch.  A
   float-only record is stored flat, so the per-event stash never boxes. *)
type bands = { mutable seed : float; mutable peers : float }

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  samples : (float * int) array;
  class_mean_n : float array;
  class_mean_sojourn : float array;
}

(* One multi-class model on [Engine.drive].  The bands, in race order:
   arrivals (λ), the seed's contacts (U_s while anyone is present), then
   each class's uploads (μ_c·n_c).  Departures after a seed dwell are
   the scheduled events. *)
let simulate ?sample_every ?max_events ~rng t ~horizon =
  let full = Pieceset.full ~k:t.k in
  let nc = Array.length t.classes in
  let global = bag_create () in
  let per_class = Array.init nc (fun _ -> bag_create ()) in
  let state = State.create () in
  let departures_heap : peer P2p_des.Heap.t = P2p_des.Heap.create () in
  let class_avg = Array.init nc (fun _ -> P2p_stats.Timeavg.create ()) in
  let sojourn = Array.init nc (fun _ -> P2p_stats.Welford.create ()) in
  (* flatten the arrival streams into (class, type, rate) *)
  let streams =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ci (c : klass) -> List.map (fun (set, r) -> (ci, set, r)) c.arrivals)
            (Array.to_list t.classes)))
  in
  let stream_weights = Array.map (fun (_, _, r) -> r) streams in
  let lambda = Array.fold_left ( +. ) 0.0 stream_weights in
  let build eng =
    let c = Engine.counters eng in
    let new_peer ci set ~time =
      let peer =
        {
          pieces = set;
          klass = ci;
          arrival_time = time;
          slot_global = -1;
          slot_class = -1;
          departed = false;
        }
      in
      bag_add `Global global peer;
      bag_add `Class per_class.(ci) peer;
      State.add_peer state set;
      peer
    in
    let depart peer ~time =
      bag_remove `Global global peer;
      bag_remove `Class per_class.(peer.klass) peer;
      State.remove_peer state peer.pieces;
      peer.departed <- true;
      c.departures <- c.departures + 1;
      P2p_stats.Welford.add sojourn.(peer.klass) (time -. peer.arrival_time)
    in
    let complete peer ~time =
      let cl = t.classes.(peer.klass) in
      if Float.is_finite cl.gamma then begin
        let dwell = Dist.exponential rng ~rate:cl.gamma in
        ignore (P2p_des.Heap.insert departures_heap ~key:(time +. dwell) peer)
      end
      else depart peer ~time
    in
    let deliver peer piece ~time =
      c.transfers <- c.transfers + 1;
      let target = Pieceset.add piece peer.pieces in
      State.move_peer state ~from_:peer.pieces ~to_:target;
      peer.pieces <- target;
      if Pieceset.equal target full then complete peer ~time
    in
    let contact uploader_pieces ~time =
      if global.len > 0 then begin
        let downloader = bag_uniform global rng in
        let useful = Pieceset.diff uploader_pieces downloader.pieces in
        if not (Pieceset.is_empty useful) then
          deliver downloader (Pieceset.choose_uniform (Rng.int_below rng) useful) ~time
      end
    in
    let observe time =
      Engine.observe eng ~time ~n:global.len;
      Array.iteri
        (fun ci bag ->
          P2p_stats.Timeavg.observe class_avg.(ci) ~time ~value:(float_of_int bag.len))
        per_class
    in
    observe 0.0;
    let b = { seed = 0.0; peers = 0.0 } in
    let total_rate () =
      b.seed <- (if global.len = 0 then 0.0 else t.us);
      b.peers <- 0.0;
      for ci = 0 to nc - 1 do
        b.peers <- b.peers +. (t.classes.(ci).mu *. float_of_int per_class.(ci).len)
      done;
      lambda +. b.seed +. b.peers
    in
    let apply ~time ~u =
      if u < lambda then begin
        let idx = Dist.categorical rng ~weights:stream_weights in
        let ci, set, _ = streams.(idx) in
        let peer = new_peer ci set ~time in
        c.arrivals <- c.arrivals + 1;
        if Pieceset.equal set full then complete peer ~time
      end
      else if u < lambda +. b.seed then contact full ~time
      else begin
        (* pick the uploader class proportionally to mu_c * n_c *)
        let target = u -. lambda -. b.seed in
        let acc = ref 0.0 in
        let chosen = ref (-1) in
        for ci = 0 to nc - 1 do
          if !chosen < 0 then begin
            acc := !acc +. (t.classes.(ci).mu *. float_of_int per_class.(ci).len);
            if target < !acc then chosen := ci
          end
        done;
        let ci = if !chosen < 0 then nc - 1 else !chosen in
        if per_class.(ci).len > 0 then begin
          let uploader = bag_uniform per_class.(ci) rng in
          contact uploader.pieces ~time
        end
      end;
      observe time
    in
    let scheduled ~time =
      match P2p_des.Heap.pop_min departures_heap with
      | Some (_, peer) ->
          if not peer.departed then depart peer ~time;
          observe time
      | None -> assert false
    in
    ( {
        Engine.total_rate;
        apply;
        next_scheduled =
          (fun () ->
            match P2p_des.Heap.min_key departures_heap with Some d -> d | None -> infinity);
        scheduled;
        population = (fun () -> global.len);
        extra_sample = (fun ~time:_ -> ());
        probe_sample = (fun ~time:_ -> assert false) (* no probe is attached *);
        finish =
          (fun ~time -> Array.iter (fun a -> P2p_stats.Timeavg.close a ~time) class_avg);
      },
      () )
  in
  let s, () =
    Engine.drive ?sample_every ?max_events ~name:"hetero" ~rng ~faults:Faults.none ~horizon
      build
  in
  {
    final_time = s.final_time;
    events = s.events;
    arrivals = s.arrivals;
    transfers = s.transfers;
    departures = s.departures;
    time_avg_n = s.time_avg_n;
    max_n = s.max_n;
    final_n = s.final_n;
    truncated = s.truncated;
    samples = s.samples;
    class_mean_n = Array.map P2p_stats.Timeavg.average class_avg;
    class_mean_sojourn = Array.map P2p_stats.Welford.mean sojourn;
  }

let simulate_seeded ?sample_every ?max_events ~seed t ~horizon =
  simulate ?sample_every ?max_events ~rng:(Rng.of_seed seed) t ~horizon
