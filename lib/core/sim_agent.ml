module Pieceset = P2p_pieceset.Pieceset

type dwell = Peers.dwell = Exp_dwell | Deterministic_dwell | Erlang_dwell of int
type census = Swarm | Neighbourhood

type config = {
  k : int;
  us : float;
  classes : Params.klass list;
  policy : Policy.t;
  dwell : dwell;
  eta : float;
  rare_piece : int;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
  degree : int option;
  census : census;
}

let class_config ~k ~us classes =
  { k; us; classes; policy = Policy.random_useful; dwell = Exp_dwell; eta = 1.0; rare_piece = 0;
    initial = []; faults = Faults.none; degree = None; census = Swarm }

let default_config (p : Params.t) = class_config ~k:p.k ~us:p.us (Params.classes p)

let peers_config config =
  { Peers.us = config.us; classes = config.classes; dwell = config.dwell; eta = config.eta;
    initial = config.initial; faults = config.faults; degree = config.degree }

type groups = {
  young : int;
  infected : int;
  gifted : int;
  one_club : int;
  former_one_club : int;
}

let groups_total g = g.young + g.infected + g.gifted + g.one_club + g.former_one_club

type stats = groups Peers.stats

(* A peer's piece set and its Fig. 2 history with respect to the rare
   piece. *)
type holding = {
  mutable pieces : Pieceset.t;
  gifted : bool;
  mutable infected : bool;
  mutable was_one_club : bool;
}

(* Reject a bad config before any draw. *)
let validate config =
  let fail fmt = Printf.ksprintf (fun msg -> invalid_arg ("Sim_agent.run: " ^ msg)) fmt in
  let k = config.k in
  Params.check_classes ~who:"Sim_agent.run" ~k ~us:config.us config.classes;
  Peers.validate ~who:"Sim_agent.run" (peers_config config);
  if config.rare_piece < 0 || config.rare_piece >= k then
    fail "rare piece %d out of range" config.rare_piece;
  if config.census = Neighbourhood && Option.is_none config.degree then
    fail "a neighbourhood census needs a sparse overlay";
  let first = List.hd config.classes in
  if (not (Float.is_finite first.gamma))
     && List.exists (fun (c, n) -> n > 0 && Pieceset.equal c (Pieceset.full ~k)) config.initial
  then fail "initial peer seeds need a finite gamma in class %S" first.label

(* The piece-set content: [state] is the census, the type counts the
   policy and the probe read. *)
let content config state : (Pieceset.t, holding, groups) Peers.content =
 fun ~rng ~probe:_ swarm ->
  let k = config.k in
  let full = Pieceset.full ~k in
  let one_club_type = Pieceset.remove config.rare_piece full in
  let all_leave_at_once =
    List.for_all (fun (c : Params.klass) -> not (Float.is_finite c.gamma)) config.classes
  in
  let staged = ref 0 in
  let stage = function
    | Some piece ->
        staged := piece;
        true
    | None -> false
  in
  let sample ~uploader down =
    stage (Policy.sample config.policy ~rng ~k ~state ~uploader ~downloader:down.pieces)
  in
  (* Copies of each piece held by [up] and its overlay neighbours. *)
  let neighbourhood_copies up =
    let counts = Array.make k 0 in
    let tally h = Pieceset.iter (fun i -> counts.(i) <- counts.(i) + 1) h.pieces in
    tally (Peers.content up);
    Peers.iter_neighbours swarm up tally;
    fun i -> counts.(i)
  in
  {
    Peers.name = "sim_agent";
    make =
      (fun c ->
        { pieces = c; gifted = Pieceset.mem config.rare_piece c; infected = false;
          was_one_club = Pieceset.equal c one_club_type });
    join = (fun h -> State.add_peer state h.pieces);
    leave = (fun h -> State.remove_peer state h.pieces);
    full = (fun h -> Pieceset.equal h.pieces full);
    offer_seed = sample ~uploader:Policy.Fixed_seed;
    offer =
      (fun up down ->
        let u = Peers.content up in
        if u == down then false (* self-contact is never useful *)
        else if config.census = Neighbourhood then begin
          (* the rarest useful piece among the uploader and its
             neighbours, ties uniform *)
          let useful = Pieceset.diff u.pieces down.pieces in
          if Pieceset.is_empty useful then false
          else begin
            staged := Policy.rarest ~rng ~copies:(neighbourhood_copies up) useful;
            true
          end
        end
        else sample ~uploader:(Policy.Peer u.pieces) down);
    receive =
      (fun h ~stays ->
        let piece = !staged in
        let target = Pieceset.add piece h.pieces in
        if piece = config.rare_piece && (not h.gifted) && not (Pieceset.equal h.pieces one_club_type)
        then h.infected <- true;
        if Pieceset.equal target one_club_type then h.was_one_club <- true;
        if stays || not (Pieceset.equal target full) then
          State.move_peer state ~from_:h.pieces ~to_:target
        else State.remove_peer state h.pieces;
        h.pieces <- target;
        piece);
    club =
      (fun () ->
        State.count state one_club_type + if all_leave_at_once then 0 else State.count state full);
    (* The one-club witness that needs no designated piece: max over
       pieces of the fraction of peers whose type is exactly F - {i}. *)
    witness =
      (fun ~n ->
        if n = 0 then 0.0
        else begin
          let best = ref 0 in
          for i = 0 to k - 1 do
            best := Int.max !best (State.count state (Pieceset.remove i full))
          done;
          float_of_int !best /. float_of_int n
        end);
    group =
      (fun () ->
        let g = ref { young = 0; infected = 0; gifted = 0; one_club = 0; former_one_club = 0 } in
        Peers.iter swarm (fun h ->
            let c = !g in
            if h.gifted then g := { c with gifted = c.gifted + 1 }
            else if h.infected then g := { c with infected = c.infected + 1 }
            else if Pieceset.equal h.pieces one_club_type then
              g := { c with one_club = c.one_club + 1 }
            else if h.was_one_club then g := { c with former_one_club = c.former_one_club + 1 }
            else g := { c with young = c.young + 1 });
        !g);
    pieces = (fun h -> h.pieces);
    probe_sample =
      (fun ~time ->
        P2p_obs.Probe.sample ~time ~k ~n:(State.n state) ~count_of:(State.count state)
          ~piece_counts:(State.piece_count_vector state ~k));
  }

let run ?probe ?observer ?sample_every ?max_events ~rng config ~horizon =
  validate config;
  let state = State.create () in
  let observer = Option.map (fun f ~time _ -> f ~time ~state) observer in
  let stats, _ =
    Peers.run ?probe ?observer ?sample_every ?max_events ~rng (peers_config config)
      (content config state) ~horizon
  in
  (stats, state)

let run_seeded ?probe ?observer ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?observer ?sample_every ?max_events ~rng:(P2p_prng.Rng.of_seed seed) config ~horizon
