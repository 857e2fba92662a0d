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
  { cfg; lat; arrival_rates; immediate }

let lattice t = t.lat
let config t = t.cfg
let arrival_rate_to t v = t.arrival_rates.(v)
let mu_tilde t = (1.0 -. (1.0 /. float_of_int t.cfg.q)) *. t.cfg.mu

let state_of t entries =
  let x = Array.make (Lattice.count t.lat) 0 in
  List.iter
    (fun (v, c) ->
      if c < 0 then invalid_arg "Coded_chain.state_of: negative count";
      x.(v) <- x.(v) + c)
    entries;
  x

(* Aggregate rate of a type-v peer of a nonempty state being lifted to
   exactly [target]. *)
let transfer_rate t x ~n ~downloader ~target =
  let seed_part =
    if t.cfg.us > 0.0 then t.cfg.us *. Lattice.seed_move_probability t.lat ~downloader ~target
    else 0.0
  in
  let peer_part = ref 0.0 in
  Array.iteri
    (fun u x_u ->
      if x_u > 0 then begin
        let p = Lattice.upload_move_probability t.lat ~uploader:u ~downloader ~target in
        if p > 0.0 then peer_part := !peer_part +. (float_of_int x_u *. p)
      end)
    x;
  float_of_int x.(downloader) /. float_of_int n *. (seed_part +. (t.cfg.mu *. !peer_part))

let transitions t x =
  let n = Array.fold_left ( + ) 0 x and full = Lattice.full t.lat in
  let acc = ref [] in
  Array.iteri (fun v rate -> if rate > 0.0 then acc := (-1, v, rate) :: !acc) t.arrival_rates;
  if (not t.immediate) && x.(full) > 0 then
    acc := (full, -1, t.cfg.gamma *. float_of_int x.(full)) :: !acc;
  Array.iteri
    (fun v x_v ->
      if x_v > 0 && v <> full then
        Array.iter
          (fun target ->
            let rate = transfer_rate t x ~n ~downloader:v ~target in
            (* a decoded peer leaves at once when gamma = inf *)
            let target = if target = full && t.immediate then -1 else target in
            if rate > 0.0 then acc := (v, target, rate) :: !acc)
          (Lattice.covers t.lat v))
    x;
  !acc

(* ---- exact stationary analysis ---- *)

type solved = {
  space : Balance.space;
  pi : float array;
  mean_n : float;
  mass_at_cap : float;
}

(* A state's slots are the subspace ids.  Ids ascend by dimension, so the
   full space is the last one, and at gamma = inf, where it holds no
   peer, the space drops it. *)
let stationary ?tol t ~n_max =
  let dims = Lattice.count t.lat - if t.immediate then 1 else 0 in
  let space = Balance.space ~who:"Coded_chain.stationary" ~dims ~n_max in
  let rows =
    Balance.rows space (fun x _ emit ->
        List.iter (fun (from_, to_, rate) -> emit ~from_ ~to_ rate) (transitions t x))
  in
  let pi = Balance.stationary ?tol space rows in
  let mean_n = Balance.expect space pi (fun _ n -> float_of_int n) in
  let mass_at_cap = Balance.expect space pi (fun _ n -> if n = n_max then 1.0 else 0.0) in
  { space; pi; mean_n; mass_at_cap }

(* E[sum of peer dimensions] / E[N]: the population-weighted mean. *)
let mean_dim t solved =
  let weighted =
    Balance.expect solved.space solved.pi (fun x _ ->
        let acc = ref 0 in
        Array.iteri (fun v c -> acc := !acc + (c * Lattice.dim t.lat v)) x;
        float_of_int !acc)
  in
  if solved.mean_n <= 0.0 then nan else weighted /. solved.mean_n

(* ---- Eq. (56) Lyapunov ---- *)

let rho t = if Float.is_finite t.cfg.gamma then t.cfg.mu /. t.cfg.gamma else 0.0
let rho_tilde t = if Float.is_finite t.cfg.gamma then mu_tilde t /. t.cfg.gamma else 0.0

(* H of Eq. (56): the weight K − dim V' + μ/γ, scaled by (1−1/q)/(1−ρ̃). *)
let h_scale t = (1.0 -. (1.0 /. float_of_int t.cfg.q)) /. (1.0 -. rho_tilde t)

let default_coeffs t = Lyapunov.ramp_coeffs ~jump:(h_scale t *. (float_of_int t.cfg.k +. rho t))

let w t coeffs x =
  if Float.is_finite t.cfg.gamma && t.cfg.gamma <= mu_tilde t then
    invalid_arg "Coded_chain.w: gamma <= mu_tilde is outside the Eq. (56) regime";
  Lyapunov.lattice_w coeffs ~leq:(Lattice.leq t.lat) ~dim:(Lattice.dim t.lat)
    ~top:(Lattice.full t.lat) ~seeds:(not t.immediate) ~mix:coeffs.alpha
    ~h_weight:(fun v -> float_of_int (t.cfg.k - Lattice.dim t.lat v) +. rho t)
    ~h_scale:(h_scale t) x

let drift_w t coeffs x = Lyapunov.drift_counts ~f:(w t coeffs) (transitions t x) x

let scan_hyperplane_states t coeffs ~sizes =
  List.concat_map
    (fun size ->
      Array.to_list
        (Array.map
           (fun plane ->
             Lyapunov.point
               ~state_desc:(Printf.sprintf "%d peers at hyperplane #%d" size plane)
               ~n:size
               (drift_w t coeffs (state_of t [ (plane, size) ])))
           (Lattice.hyperplanes t.lat)))
    sizes
