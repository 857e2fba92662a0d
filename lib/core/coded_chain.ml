module Lattice = P2p_coding.Lattice

type config = {
  q : int;
  k : int;
  us : float;
  mu : float;
  gamma : float;
  arrivals : (int * float) list;
}

type t = {
  cfg : config;
  lat : Lattice.t;
  arrival_rates : float array;  (* per subspace id *)
  lambda_effective : float;  (* total arrival rate that changes the state *)
  immediate : bool;
}

let create cfg =
  if cfg.us < 0.0 || cfg.mu <= 0.0 || cfg.gamma <= 0.0 then
    invalid_arg "Coded_chain.create: bad rates";
  List.iter
    (fun (j, rate) ->
      if j < 0 || rate < 0.0 then invalid_arg "Coded_chain.create: bad arrival entry")
    cfg.arrivals;
  if List.fold_left (fun acc (_, r) -> acc +. r) 0.0 cfg.arrivals <= 0.0 then
    invalid_arg "Coded_chain.create: total arrival rate must be positive";
  let lat = Lattice.build ~q:cfg.q ~k:cfg.k in
  let immediate = not (Float.is_finite cfg.gamma) in
  let arrival_rates = Array.make (Lattice.count lat) 0.0 in
  List.iter
    (fun (j, rate) ->
      if rate > 0.0 then begin
        let span = Lattice.span_distribution lat ~coded:j in
        Array.iteri
          (fun v p -> arrival_rates.(v) <- arrival_rates.(v) +. (rate *. p))
          span
      end)
    cfg.arrivals;
  (* Arrivals that decode instantly leave immediately when gamma = inf:
     they never enter the state. *)
  if immediate then arrival_rates.(Lattice.full lat) <- 0.0;
  let lambda_effective = Array.fold_left ( +. ) 0.0 arrival_rates in
  { cfg; lat; arrival_rates; lambda_effective; immediate }

let lattice t = t.lat
let config t = t.cfg
let arrival_rate_to t v = t.arrival_rates.(v)
let mu_tilde t = (1.0 -. (1.0 /. float_of_int t.cfg.q)) *. t.cfg.mu

type state = { counts : int array; mutable n : int }

let empty_state t = { counts = Array.make (Lattice.count t.lat) 0; n = 0 }

let state_of t entries =
  let s = empty_state t in
  List.iter
    (fun (v, c) ->
      if c < 0 then invalid_arg "Coded_chain.state_of: negative count";
      s.counts.(v) <- s.counts.(v) + c;
      s.n <- s.n + c)
    entries;
  s

let copy_state s = { counts = Array.copy s.counts; n = s.n }

type transition =
  | Arrival of Lattice.subspace
  | Seed_departure
  | Transfer of { downloader : Lattice.subspace; target : Lattice.subspace }

(* Aggregate rate of a type-v peer being lifted to exactly [target]. *)
let transfer_rate t state ~downloader ~target =
  let x_v = state.counts.(downloader) in
  if x_v = 0 || state.n = 0 then 0.0
  else begin
    let seed_part =
      if t.cfg.us > 0.0 then
        t.cfg.us *. Lattice.seed_move_probability t.lat ~downloader ~target
      else 0.0
    in
    let peer_part = ref 0.0 in
    Array.iteri
      (fun u x_u ->
        if x_u > 0 then begin
          let p = Lattice.upload_move_probability t.lat ~uploader:u ~downloader ~target in
          if p > 0.0 then peer_part := !peer_part +. (float_of_int x_u *. p)
        end)
      state.counts;
    float_of_int x_v /. float_of_int state.n *. (seed_part +. (t.cfg.mu *. !peer_part))
  end

let transitions t state =
  let acc = ref [] in
  Array.iteri
    (fun v rate -> if rate > 0.0 then acc := (Arrival v, rate) :: !acc)
    t.arrival_rates;
  let full = Lattice.full t.lat in
  if (not t.immediate) && state.counts.(full) > 0 then
    acc := (Seed_departure, t.cfg.gamma *. float_of_int state.counts.(full)) :: !acc;
  Array.iteri
    (fun v x_v ->
      if x_v > 0 && v <> full then
        Array.iter
          (fun target ->
            let rate = transfer_rate t state ~downloader:v ~target in
            if rate > 0.0 then acc := (Transfer { downloader = v; target }, rate) :: !acc)
          (Lattice.covers t.lat v))
    state.counts;
  !acc

let apply t state = function
  | Arrival v ->
      if v = Lattice.full t.lat && t.immediate then
        invalid_arg "Coded_chain.apply: complete arrival with gamma = inf";
      state.counts.(v) <- state.counts.(v) + 1;
      state.n <- state.n + 1
  | Seed_departure ->
      let full = Lattice.full t.lat in
      if state.counts.(full) <= 0 then invalid_arg "Coded_chain.apply: no seed to depart";
      state.counts.(full) <- state.counts.(full) - 1;
      state.n <- state.n - 1
  | Transfer { downloader; target } ->
      if state.counts.(downloader) <= 0 then
        invalid_arg "Coded_chain.apply: no such downloader";
      state.counts.(downloader) <- state.counts.(downloader) - 1;
      if target = Lattice.full t.lat && t.immediate then state.n <- state.n - 1
      else state.counts.(target) <- state.counts.(target) + 1

(* ---- exact stationary analysis ---- *)

type solved = {
  space : Balance.space;
  pi : float array;
  mean_n : float;
  mass_at_cap : float;
}

(* The subspace ids a state counts, by slot: all of them, less the full
   space when gamma = inf (a decoded peer leaves at once). *)
let carried t =
  let full = Lattice.full t.lat in
  Array.of_list
    (List.filter
       (fun v -> not (t.immediate && v = full))
       (List.init (Lattice.count t.lat) Fun.id))

let stationary ?tol t ~n_max =
  let carried = carried t in
  let slot = Array.make (Lattice.count t.lat) (-1) in
  Array.iteri (fun pos v -> slot.(v) <- pos) carried;
  let space = Balance.space ~who:"Coded_chain.stationary" ~dims:(Array.length carried) ~n_max in
  let rows =
    Balance.rows space (fun x _ emit ->
        let s = empty_state t in
        Array.iteri
          (fun pos c ->
            s.counts.(carried.(pos)) <- c;
            s.n <- s.n + c)
          x;
        (* a decoded peer's slot is -1 at gamma = inf: it leaves *)
        List.iter
          (fun (transition, rate) ->
            match transition with
            | Arrival v -> emit ~from_:(-1) ~to_:slot.(v) rate
            | Seed_departure -> emit ~from_:slot.(Lattice.full t.lat) ~to_:(-1) rate
            | Transfer { downloader; target } ->
                emit ~from_:slot.(downloader) ~to_:slot.(target) rate)
          (transitions t s))
  in
  let pi = Balance.stationary ?tol space rows in
  let mean_n = Balance.expect space pi (fun _ n -> float_of_int n) in
  let mass_at_cap = Balance.expect space pi (fun _ n -> if n = n_max then 1.0 else 0.0) in
  { space; pi; mean_n; mass_at_cap }

(* E[sum of peer dimensions] / E[N]: the population-weighted mean. *)
let mean_dim t solved =
  let dims = Array.map (Lattice.dim t.lat) (carried t) in
  let weighted =
    Balance.expect solved.space solved.pi (fun x _ ->
        let acc = ref 0 in
        Array.iteri (fun pos c -> acc := !acc + (c * dims.(pos))) x;
        float_of_int !acc)
  in
  if solved.mean_n <= 0.0 then nan else weighted /. solved.mean_n

(* ---- Eq. (56) Lyapunov ---- *)

let gamma_le_mu_tilde t = Float.is_finite t.cfg.gamma && t.cfg.gamma <= mu_tilde t

let rho t = if Float.is_finite t.cfg.gamma then t.cfg.mu /. t.cfg.gamma else 0.0
let rho_tilde t = if Float.is_finite t.cfg.gamma then mu_tilde t /. t.cfg.gamma else 0.0

let default_coeffs t =
  let frac = 1.0 -. (1.0 /. float_of_int t.cfg.q) in
  let jump =
    frac /. (1.0 -. rho_tilde t) *. (float_of_int t.cfg.k +. rho t)
  in
  let alpha = 0.9 in
  {
    Lyapunov.r = 0.05;
    d = 2.0 *. (jump +. 1.0);
    beta = Float.min 0.1 ((1.0 /. alpha -. 1.0) /. (jump *. jump));
    alpha;
    p_const = 1.0;
  }

let e_v t state v =
  let acc = ref 0 in
  Array.iteri
    (fun v' x -> if x > 0 && Lattice.leq t.lat v' v then acc := !acc + x)
    state.counts;
  !acc

let h_v t state v =
  let frac = 1.0 -. (1.0 /. float_of_int t.cfg.q) in
  let scale = frac /. (1.0 -. rho_tilde t) in
  let acc = ref 0.0 in
  Array.iteri
    (fun v' x ->
      if x > 0 && not (Lattice.leq t.lat v' v) then
        acc :=
          !acc
          +. (float_of_int x *. (float_of_int (t.cfg.k - Lattice.dim t.lat v') +. rho t)))
    state.counts;
  scale *. !acc

let w t coeffs state =
  if gamma_le_mu_tilde t then
    invalid_arg "Coded_chain.w: gamma <= mu_tilde is outside the Eq. (56) regime";
  let full = Lattice.full t.lat in
  let n = float_of_int state.n in
  let acc = ref 0.0 in
  for v = 0 to Lattice.count t.lat - 1 do
    let weight = coeffs.Lyapunov.r ** float_of_int (Lattice.dim t.lat v) in
    if v = full then begin
      if not t.immediate then acc := !acc +. (weight *. 0.5 *. n *. n)
    end
    else begin
      let ev = float_of_int (e_v t state v) in
      let tv =
        (0.5 *. ev *. ev)
        +. (coeffs.Lyapunov.alpha *. ev *. Lyapunov.phi coeffs (h_v t state v))
      in
      acc := !acc +. (weight *. tv)
    end
  done;
  !acc

let drift_w t coeffs state =
  let here = w t coeffs state in
  List.fold_left
    (fun acc (transition, rate) ->
      let next = copy_state state in
      apply t next transition;
      acc +. (rate *. (w t coeffs next -. here)))
    0.0 (transitions t state)

type scan_point = { state_desc : string; n : int; drift_value : float; drift_per_peer : float }

let scan_hyperplane_states t coeffs ~sizes =
  let planes = Lattice.hyperplanes t.lat in
  List.concat_map
    (fun size ->
      Array.to_list
        (Array.map
           (fun plane ->
             let state = state_of t [ (plane, size) ] in
             let dv = drift_w t coeffs state in
             {
               state_desc = Printf.sprintf "%d peers at hyperplane #%d" size plane;
               n = size;
               drift_value = dv;
               drift_per_peer = dv /. float_of_int size;
             })
           planes))
    sizes
