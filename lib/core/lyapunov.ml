module Pieceset = P2p_pieceset.Pieceset

type coeffs = { r : float; d : float; beta : float; alpha : float; p_const : float }

let lambda_star (p : Params.t) ~s =
  (* λ*_{H_S} = Σ_{C ⊄ S} λ_C (K − |C| + μ/γ). *)
  let rho = Params.mu_over_gamma p in
  Array.fold_left
    (fun acc (c, rate) ->
      if Pieceset.subset c s then acc
      else acc +. (rate *. (float_of_int (p.k - Pieceset.cardinal c) +. rho)))
    0.0 p.arrivals

let ramp_coeffs ~jump =
  let alpha = 0.9 in
  { r = 0.05; d = 2.0 *. (jump +. 1.0); beta = Float.min 0.1 ((1.0 /. alpha -. 1.0) /. (jump *. jump));
    alpha; p_const = 1.0 }

let gamma_le_mu (p : Params.t) = Float.is_finite p.gamma && p.gamma <= p.mu

let default_coeffs (p : Params.t) =
  let rho = Params.mu_over_gamma p in
  if not (gamma_le_mu p) then ramp_coeffs ~jump:((float_of_int p.k +. rho) /. (1.0 -. rho))
  else
    (* Lemma 13 only needs β small, and a larger β keeps max φ =
       2d + 1/(2β) — hence n₀ — small.  p with
       λ_{E_C} − p (U_s + λ*_{H_C}) < 0 for all proper C (Eq. 44): keep p
       as small as the constraint allows so the constant-order drift
       terms (∝ p·max φ) do not push the negative-drift threshold n₀ out
       of numerically checkable range. *)
    let p_const =
      List.fold_left
        (fun acc s ->
          let inflow = Params.lambda_within p s in
          let drive = p.us +. lambda_star p ~s in
          if drive <= 0.0 then
            invalid_arg "Lyapunov.default_coeffs: some piece cannot enter the system"
          else Float.max acc (1.25 *. (inflow +. 0.1) /. drive))
        0.1
        (Pieceset.all_proper ~k:p.k)
    in
    { (ramp_coeffs ~jump:(float_of_int (p.k + 1))) with beta = 0.1; p_const }

let phi c x =
  let edge = (2.0 *. c.d) +. (1.0 /. c.beta) in
  if x < 0.0 then invalid_arg "Lyapunov.phi: negative argument"
  else if x <= 2.0 *. c.d then (2.0 *. c.d) +. (1.0 /. (2.0 *. c.beta)) -. x
  else if x <= edge then c.beta /. 2.0 *. ((x -. edge) ** 2.0)
  else 0.0

let phi_slope_bound c x =
  let edge = (2.0 *. c.d) +. (1.0 /. c.beta) in
  if x <= 2.0 *. c.d then -1.0 else if x <= edge then c.beta *. (x -. edge) else 0.0

(* E_v and the unscaled H_v of the count vector x (by type id): the
   peers of types below v, and the h_weight-weighted peers of the rest. *)
let e_h ~leq ~h_weight x v =
  let e = ref 0 and h = ref 0.0 in
  Array.iteri
    (fun v' c ->
      if c > 0 then
        if leq v' v then e := !e + c else h := !h +. (float_of_int c *. h_weight v'))
    x;
  (!e, !h)

let lattice_w coeffs ~leq ~dim ~top ~seeds ~mix ~h_weight ~h_scale x =
  let n = float_of_int (Array.fold_left ( + ) 0 x) in
  let acc = ref 0.0 in
  for v = 0 to Array.length x - 1 do
    let weight = coeffs.r ** float_of_int (dim v) in
    if v = top then begin
      if seeds then acc := !acc +. (weight *. 0.5 *. n *. n)
    end
    else begin
      let e, h = e_h ~leq ~h_weight x v in
      let e = float_of_int e in
      acc := !acc +. (weight *. ((0.5 *. e *. e) +. (mix *. e *. phi coeffs (h_scale *. h))))
    end
  done;
  !acc

let drift_by ~step ~f moves x =
  let here = f x in
  List.fold_left (fun acc (from_, to_, rate) -> acc +. (rate *. (f (step x ~from_ ~to_) -. here))) 0.0 moves

let drift_counts ~f moves x =
  drift_by ~f moves x ~step:(fun x ~from_ ~to_ ->
      let next = Array.copy x in
      if from_ >= 0 then next.(from_) <- next.(from_) - 1;
      if to_ >= 0 then next.(to_) <- next.(to_) + 1;
      next)

(* The piece-set lattice: a type is its Pieceset index, ordered by
   inclusion and graded by its piece count. *)
let subset a b = a land b = a
let card c = Pieceset.cardinal (Pieceset.of_index c)

let counts (p : Params.t) state =
  let x = Array.make (1 lsl p.k) 0 in
  State.iter state (fun c v -> x.(Pieceset.to_index c) <- v);
  x

(* H's per-type weight and scale: Eq. (11) for γ > μ, Eq. (43) else. *)
let h_eq11 (p : Params.t) =
  let rho = Params.mu_over_gamma p in
  ((fun c -> float_of_int (p.k - card c) +. rho), 1.0 /. (1.0 -. rho))

let h_eq43 (p : Params.t) = ((fun c -> float_of_int (p.k + 1 - card c)), 1.0)

let e_c state ~c = State.count_subset_peers state c

let h_of (h_weight, h_scale) p state ~c =
  h_scale *. snd (e_h ~leq:subset ~h_weight (counts p state) (Pieceset.to_index c))

let h_c p = h_of (h_eq11 p) p
let h_prime_c p = h_of (h_eq43 p) p

let on_pieces (p : Params.t) coeffs ~mix (h_weight, h_scale) state =
  lattice_w coeffs ~leq:subset ~dim:card ~top:((1 lsl p.k) - 1)
    ~seeds:(not (Params.immediate_departure p)) ~mix ~h_weight ~h_scale (counts p state)

let w p coeffs state =
  if gamma_le_mu p then invalid_arg "Lyapunov.w: gamma <= mu; use w_prime";
  on_pieces p coeffs ~mix:coeffs.alpha (h_eq11 p) state

let w_prime p coeffs state =
  if not (gamma_le_mu p) then invalid_arg "Lyapunov.w_prime: gamma > mu; use w";
  on_pieces p coeffs ~mix:coeffs.p_const (h_eq43 p) state

let auto p coeffs state = if gamma_le_mu p then w_prime p coeffs state else w p coeffs state

let drift p ~f state =
  drift_by ~f (Rate.transitions p state) state ~step:(fun state ~from_ ~to_ ->
      let next = State.copy state in
      State.apply_move next ~from_ ~to_;
      next)

let drift_w p coeffs state = drift p ~f:(auto p coeffs) state

let m_phi coeffs = (3.0 *. coeffs.d) +. (1.0 /. coeffs.beta)

(* the aggregate rate of type changes and departures: every move but arrivals *)
let d_total p state =
  List.fold_left
    (fun acc (from_, _, rate) -> if from_ >= 0 then acc +. rate else acc)
    0.0 (Rate.transitions p state)

let lw (p : Params.t) coeffs state =
  let full = Params.full_set p in
  let mix, h = if gamma_le_mu p then (coeffs.p_const, h_eq43 p) else (coeffs.alpha, h_eq11 p) in
  let include_full = not (Params.immediate_departure p) in
  List.fold_left
    (fun acc c ->
      let weight = coeffs.r ** float_of_int (Pieceset.cardinal c) in
      if Pieceset.equal c full then
        if include_full then begin
          let n st = float_of_int (State.n st) in
          acc +. (weight *. n state *. drift p ~f:n state)
        end
        else acc
      else begin
        let e st = float_of_int (e_c st ~c) in
        let phi_h st = phi coeffs (h_of h p st ~c) in
        let ec = e state in
        let lt = (ec *. drift p ~f:e state) +. (mix *. ec *. drift p ~f:phi_h state) in
        acc +. (weight *. lt)
      end)
    0.0
    (Pieceset.all ~k:p.k)

type scan_point = {
  state_desc : string;
  n : int;
  drift_value : float;
  drift_per_peer : float;
}

let point ~state_desc ~n drift_value =
  { state_desc; n; drift_value; drift_per_peer = drift_value /. float_of_int n }

let scan_class_one (p : Params.t) coeffs ~sizes =
  List.concat_map
    (fun s ->
      List.map
        (fun size ->
          point
            ~state_desc:(Printf.sprintf "all %d peers of type %s" size (Pieceset.to_string s))
            ~n:size
            (drift_w p coeffs (State.of_counts [ (s, size) ])))
        sizes)
    (Pieceset.all_proper ~k:p.k)

let scan_class_two (p : Params.t) coeffs ~rng ~size ~samples =
  let types =
    Array.of_list
      (if Params.immediate_departure p then Pieceset.all_proper ~k:p.k else Pieceset.all ~k:p.k)
  in
  List.init samples (fun _ ->
      let pick () = types.(P2p_prng.Rng.int_below rng (Array.length types)) in
      let c1 = pick () in
      let c2 = pick () in
      let n1 = (size / 2) + P2p_prng.Rng.int_below rng (Int.max 1 (size / 4)) in
      let n2 = Int.max 1 (size - n1) in
      let state = State.of_counts [ (c1, n1); (c2, n2) ] in
      point
        ~state_desc:
          (Printf.sprintf "%d of %s + %d of %s" n1 (Pieceset.to_string c1) n2
             (Pieceset.to_string c2))
        ~n:(State.n state) (drift_w p coeffs state))
