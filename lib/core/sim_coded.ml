module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Field = P2p_gf.Field
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

type gift = Coded of int | Span of Subspace.t

let peers_config c =
  let arrivals = List.map (fun (j, rate) -> (Coded j, rate)) c.arrivals in
  { (Peers.config ~us:c.us [ { Params.label = "all"; mu = c.mu; gamma = c.gamma; arrivals } ])
    with faults = c.faults }

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

let content config : (gift, Subspace.t, unit) Peers.content =
 fun ~rng ~probe swarm ->
  let k = config.k in
  let field = Field.gf config.q in
  let near_complete = ref 0 in
  let track ~before ~after =
    if before = k - 1 then decr near_complete;
    if after = k - 1 then incr near_complete
  in
  (* Sampled phase timers for the two halves of the GF(q) row
     arithmetic: rank updates (Gaussian elimination on receive) vs
     vector selection (basis scan / random member on transmit). *)
  let rank_tm = Hist.timer (Hist.get probe.Probe.hists "sim_coded/rank_update") in
  let select_tm = Hist.timer (Hist.get probe.Probe.hists "sim_coded/vector_select") in
  (* One subspace as the format carrier plus two caller-owned scratch
     rows: the whole contact hot path reuses these, so a transfer
     allocates nothing.  [scratch] holds the staged coding vector. *)
  let proto = Subspace.create field ~k in
  let scratch = Subspace.alloc_xvec proto in
  let scratch2 = Subspace.alloc_xvec proto in
  (* The staged upload comes from a subspace equal to the downloader's. *)
  let same = ref false in
  let selected t0 =
    Hist.tock select_tm t0;
    same := false;
    true
  in
  {
    Peers.name = "sim_coded";
    make =
      (function
      | Span v -> Subspace.copy v
      | Coded j ->
          let s = Subspace.create field ~k in
          let rec feed j =
            if j > 0 && Subspace.dim s < k then begin
              Subspace.random_full_into proto rng scratch;
              ignore (Subspace.insert_xvec s scratch);
              feed (j - 1)
            end
          in
          feed j;
          s);
    join = (fun s -> track ~before:(-1) ~after:(Subspace.dim s));
    leave = (fun s -> track ~before:(Subspace.dim s) ~after:(-1));
    full = Subspace.is_full;
    (* The fixed seed sends a uniform vector of F_q^K; a seed downloader
       has nothing to receive. *)
    offer_seed =
      (fun down ->
        if Subspace.is_full down then false
        else begin
          let t0 = Hist.tick select_tm in
          Subspace.random_full_into proto rng scratch;
          selected t0
        end);
    offer =
      (fun up down ->
        let sp = Peers.content up in
        if Subspace.dim sp = 0 || Subspace.is_full down then false
        else if Subspace.equal sp down then begin
          (* The downloader already holds everything this uploader can
             send, the common upload once peers pile up in one
             hyperplane V⁻.  Burn the coefficient draws
             [random_member_into] would make (none under smart exchange)
             so the draw stream matches a built vector; skip vector
             construction and reduction. *)
          if not config.smart_exchange then
            for _ = 1 to Subspace.dim sp do
              ignore (Rng.int_below rng config.q)
            done;
          same := true;
          true
        end
        else begin
          let t0 = Hist.tick select_tm in
          (* Remark 16: smart exchange sends a basis vector outside the
             downloader's subspace when one exists. *)
          if config.smart_exchange then
            ignore
              (Subspace.first_uncovered_into ~uploader:sp ~downloader:down ~scratch:scratch2
                 scratch)
          else Subspace.random_member_into sp rng scratch;
          selected t0
        end);
    (* A useful vector raising dim d → d+1 is traced as piece d. *)
    receive =
      (fun s ~stays:_ ->
        if !same then -1
        else begin
          let before = Subspace.dim s in
          let t0 = Hist.tick rank_tm in
          let inserted = Subspace.insert_xvec s scratch in
          Hist.tock rank_tm t0;
          if inserted then begin
            track ~before ~after:(Subspace.dim s);
            before
          end
          else -1
        end);
    club = (fun () -> !near_complete);
    witness = (fun ~n -> if n = 0 then 0.0 else float_of_int !near_complete /. float_of_int n);
    group = ignore;
    (* Cardinality-only encoding: an arrival spanning dimension d is
       traced as holding the first d piece indices. *)
    pieces =
      (fun s ->
        let rec build i acc = if i < 0 then acc else build (i - 1) (Pieceset.add i acc) in
        build (Subspace.dim s - 1) Pieceset.empty);
    probe_sample =
      (fun ~time ->
        (* Coded analogue of the piece-count probe: entry i counts the
           peers whose subspace dimension exceeds i, so the vector is
           nonincreasing, the rarest "piece" is K-1, and its count is the
           number of dwelling seeds. *)
        let counts = Array.make k 0 in
        Peers.iter swarm (fun s ->
            for j = 0 to Subspace.dim s - 1 do
              counts.(j) <- counts.(j) + 1
            done);
        let seeds = counts.(k - 1) in
        let count_of s =
          let c = Pieceset.cardinal s in
          if c = k then seeds else if c = k - 1 then !near_complete else 0
        in
        Probe.sample ~time ~k ~n:(Peers.size swarm) ~count_of ~piece_counts:counts);
  }

let validate config =
  if config.k < 1 then invalid_arg "Sim_coded.run: k must be >= 1";
  if List.exists (fun (j, rate) -> j < 0 || rate < 0.0) config.arrivals then
    invalid_arg "Sim_coded.run: bad arrival entry";
  if not (List.fold_left (fun acc (_, r) -> acc +. r) 0.0 config.arrivals > 0.0) then
    invalid_arg "Sim_coded.run: no arrivals"

let run ?probe ?sample_every ?max_events ~rng config ~horizon =
  validate config;
  let s, swarm =
    Peers.run ?probe ?sample_every ?max_events ~rng (peers_config config) (content config)
      ~horizon
  in
  let dim_histogram = Array.make (config.k + 1) 0 in
  Peers.iter swarm (fun sp ->
      let d = Subspace.dim sp in
      dim_histogram.(d) <- dim_histogram.(d) + 1);
  {
    final_time = s.final_time;
    events = s.events;
    arrivals = s.arrivals;
    useful_transfers = s.transfers;
    useless_transfers = s.useless_transfers;
    completions = s.completions;
    departures = s.departures;
    time_avg_n = s.time_avg_n;
    max_n = s.max_n;
    final_n = s.final_n;
    truncated = s.truncated;
    outage_time = s.outage_time;
    aborted_peers = s.aborted_peers;
    lost_transfers = s.lost_transfers;
    samples = s.samples;
    dim_histogram;
    near_complete_fraction = s.one_club_time_fraction;
  }

let run_seeded ?probe ?sample_every ?max_events ~seed config ~horizon =
  run ?probe ?sample_every ?max_events ~rng:(Rng.of_seed seed) config ~horizon
