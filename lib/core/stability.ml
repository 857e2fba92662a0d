module Pieceset = P2p_pieceset.Pieceset

type verdict = Transient | Positive_recurrent | Borderline

let verdict_to_string = function
  | Transient -> "transient"
  | Positive_recurrent -> "positive-recurrent"
  | Borderline -> "borderline"

let pp_verdict fmt v = Format.pp_print_string fmt (verdict_to_string v)

let gift_weight (p : Params.t) ~piece =
  (* Σ_{C ∋ k} λ_C (K + 1 − |C|), the numerator's gifted-arrival part. *)
  Array.fold_left
    (fun acc (c, rate) ->
      if Pieceset.mem piece c then acc +. (rate *. float_of_int (p.k + 1 - Pieceset.cardinal c))
      else acc)
    0.0 p.arrivals

let threshold (p : Params.t) ~piece =
  let rho = Params.mu_over_gamma p in
  if rho >= 1.0 then infinity else (p.us +. gift_weight p ~piece) /. (1.0 -. rho)

let binding_piece p =
  let best = ref 0 and best_threshold = ref (threshold p ~piece:0) in
  for piece = 1 to p.Params.k - 1 do
    let t = threshold p ~piece in
    if t < !best_threshold then begin
      best := piece;
      best_threshold := t
    end
  done;
  !best

let delta (p : Params.t) ~s =
  if Pieceset.equal s (Params.full_set p) then invalid_arg "Stability.delta: S must be proper";
  let rho = Params.mu_over_gamma p in
  let inflow = Params.lambda_within p s in
  let help =
    Array.fold_left
      (fun acc (c, rate) ->
        if Pieceset.subset c s then acc
        else acc +. (rate *. (float_of_int (p.k - Pieceset.cardinal c) +. rho)))
      0.0 p.arrivals
  in
  inflow -. ((p.us +. help) /. (1.0 -. rho))

let classify_detail ?(tolerance = 1e-9) (p : Params.t) =
  let mu_lt_gamma = Params.immediate_departure p || p.mu < p.gamma in
  if not mu_lt_gamma then begin
    (* 0 < γ <= μ: stability is equivalent to every piece being able to
       enter the system. *)
    let blocked = ref (-1) in
    for piece = p.k - 1 downto 0 do
      if not (Params.piece_can_enter p ~piece) then blocked := piece
    done;
    if !blocked >= 0 then (Transient, !blocked, neg_infinity) else (Positive_recurrent, 0, infinity)
  end
  else begin
    let lambda_total = Params.lambda_total p in
    let piece = binding_piece p in
    let thr = threshold p ~piece in
    let margin = (thr -. lambda_total) /. Float.max thr 1e-300 in
    if lambda_total > thr *. (1.0 +. tolerance) then (Transient, piece, margin)
    else if lambda_total < thr *. (1.0 -. tolerance) then (Positive_recurrent, piece, margin)
    else (Borderline, piece, margin)
  end

let classify ?tolerance p =
  let verdict, _, _ = classify_detail ?tolerance p in
  verdict

let effective_params (p : Params.t) ~uptime_fraction =
  if not (Float.is_finite uptime_fraction && uptime_fraction >= 0.0 && uptime_fraction <= 1.0)
  then
    invalid_arg
      (Printf.sprintf "Stability.effective_params: uptime_fraction must be in [0, 1], got %g"
         uptime_fraction);
  Params.with_us p ~us:(p.us *. uptime_fraction)

let classify_effective ?tolerance p ~uptime_fraction =
  classify ?tolerance (effective_params p ~uptime_fraction)

let stable_lambda_limit (p : Params.t) =
  let rho = Params.mu_over_gamma p in
  if rho >= 1.0 then
    (* γ <= μ: stable at any scale as long as every piece can enter. *)
    if
      List.for_all (fun piece -> Params.piece_can_enter p ~piece) (List.init p.k (fun i -> i))
    then infinity
    else 0.0
  else begin
    let lambda_total = Params.lambda_total p in
    let limit_for piece =
      let slack = (lambda_total *. (1.0 -. rho)) -. gift_weight p ~piece in
      if slack <= 0.0 then infinity else p.us /. slack *. lambda_total
    in
    let rec scan piece acc =
      if piece >= p.k then acc else scan (piece + 1) (Float.min acc (limit_for piece))
    in
    scan 1 (limit_for 0)
  end

let equivalent_check (p : Params.t) =
  if Params.mu_over_gamma p >= 1.0 then true
  else begin
    let lambda_total = Params.lambda_total p in
    let by_pieces =
      List.for_all
        (fun piece -> lambda_total < threshold p ~piece)
        (List.init p.k (fun i -> i))
    in
    let by_deltas =
      List.for_all (fun s -> delta p ~s < 0.0) (Pieceset.all_proper ~k:p.k)
    in
    by_pieces = by_deltas
  end

(* ---- peer classes: the heuristic region ---- *)

let rho_of (c : Params.klass) = if Float.is_finite c.gamma then c.mu /. c.gamma else 0.0

(* Σ over every class's arrival streams of [f c set rate]. *)
let sum_streams classes f =
  List.fold_left
    (fun acc (c : Params.klass) ->
      List.fold_left (fun acc (set, r) -> acc +. f c set r) acc c.arrivals)
    0.0 classes

let mean_seed_offspring classes ~piece =
  (* the one-club's class mix is the arrival mix of peers missing the piece *)
  let missing f =
    sum_streams classes (fun c set r -> if Pieceset.mem piece set then 0.0 else r *. f c)
  in
  let total = missing (fun _ -> 1.0) in
  if total <= 0.0 then 0.0 else missing rho_of /. total

let holding classes ~piece f =
  sum_streams classes (fun c set r -> if Pieceset.mem piece set then r *. f c set else 0.0)

let class_threshold ~k ~us classes ~piece =
  let m_bar = mean_seed_offspring classes ~piece in
  if m_bar >= 1.0 then infinity
  else begin
    let gifted =
      holding classes ~piece (fun c set -> float_of_int (k - Pieceset.cardinal set) +. rho_of c)
    in
    ((us +. gifted) /. (1.0 -. m_bar)) +. holding classes ~piece (fun _ _ -> 1.0)
  end

let classify_classes ?(tolerance = 1e-9) ~k ~us classes =
  let pieces = List.init k Fun.id in
  let enters piece = us > 0.0 || holding classes ~piece (fun _ _ -> 1.0) > 0.0 in
  if not (List.for_all enters pieces) then Transient
  else begin
    let lambda = sum_streams classes (fun _ _ r -> r) in
    let worst =
      List.fold_left
        (fun acc piece -> Float.min acc (class_threshold ~k ~us classes ~piece))
        infinity pieces
    in
    if lambda > worst *. (1.0 +. tolerance) then Transient
    else if lambda < worst *. (1.0 -. tolerance) then Positive_recurrent
    else Borderline
  end

(* Captured before [Coded.classify] shadows the name. *)
let theorem1_classify = classify

module Coded = struct
  type gift_params = {
    q : int;
    k : int;
    us : float;
    mu : float;
    gamma : float;
    lambda0 : float;
    lambda1 : float;
  }

  let validate g =
    if not (P2p_gf.Field.is_prime_power g.q) then
      invalid_arg (Printf.sprintf "Coded: q must be a prime power, got %d" g.q);
    if g.k < 1 then invalid_arg "Coded: k must be >= 1";
    if g.us < 0.0 || g.mu <= 0.0 || g.gamma <= 0.0 then invalid_arg "Coded: bad rates";
    if g.lambda0 < 0.0 || g.lambda1 < 0.0 || g.lambda0 +. g.lambda1 <= 0.0 then
      invalid_arg "Coded: arrival rates must be nonnegative with positive sum"

  let f_of g =
    validate g;
    g.lambda1 /. (g.lambda0 +. g.lambda1)

  let transient_f_threshold ~q ~k = float_of_int q /. (float_of_int (q - 1) *. float_of_int k)

  let recurrent_f_threshold_exact ~q ~k =
    let qf = float_of_int q in
    let frac = 1.0 -. (1.0 /. qf) in
    1.0 /. (frac *. frac *. (float_of_int (k - 1) +. (qf /. (qf -. 1.0))))

  let recurrent_f_threshold_paper ~q ~k =
    let qf = float_of_int q in
    qf *. qf /. ((qf -. 1.0) *. (qf -. 1.0) *. float_of_int k)

  let classify ?(tolerance = 1e-9) g =
    validate g;
    let qf = float_of_int g.q in
    let frac = 1.0 -. (1.0 /. qf) in
    let mu_tilde = frac *. g.mu in
    let lambda_total = g.lambda0 +. g.lambda1 in
    let finite_gamma = Float.is_finite g.gamma in
    (* A random coded vector lies outside a fixed hyperplane V⁻ with
       probability 1 − 1/q, so Σ_{V ⊄ V⁻} λ_V = λ1 (1 − 1/q). *)
    let outside = g.lambda1 *. frac in
    let mu_lt_gamma = (not finite_gamma) || g.mu < g.gamma in
    let mu_tilde_lt_gamma = (not finite_gamma) || mu_tilde < g.gamma in
    let rho = if finite_gamma then g.mu /. g.gamma else 0.0 in
    let rho_tilde = if finite_gamma then mu_tilde /. g.gamma else 0.0 in
    let transient =
      (mu_lt_gamma
      && lambda_total
         > (g.us +. (outside *. float_of_int g.k)) /. (1.0 -. rho) *. (1.0 +. tolerance))
      || ((not mu_lt_gamma) && g.us = 0.0 && g.lambda1 = 0.0)
    in
    let recurrent =
      (mu_tilde_lt_gamma
      && lambda_total
         < (g.us +. (outside *. (float_of_int (g.k - 1) +. (qf /. (qf -. 1.0)))))
           *. frac /. (1.0 -. rho_tilde) *. (1.0 -. tolerance))
      || ((not mu_tilde_lt_gamma) && (g.us > 0.0 || g.lambda1 > 0.0))
    in
    match (transient, recurrent) with
    | true, false -> Transient
    | false, true -> Positive_recurrent
    | false, false -> Borderline
    | true, true ->
        (* The necessary and sufficient conditions cannot both hold. *)
        assert false

  type profile = {
    pq : int;
    pk : int;
    pus : float;
    pmu : float;
    pgamma : float;
    parrivals : (int * float) list;
  }

  let profile_of_gift g =
    validate g;
    {
      pq = g.q;
      pk = g.k;
      pus = g.us;
      pmu = g.mu;
      pgamma = g.gamma;
      parrivals =
        (if g.lambda0 > 0.0 then [ (0, g.lambda0) ] else [])
        @ (if g.lambda1 > 0.0 then [ (1, g.lambda1) ] else []);
    }

  let validate_profile p =
    if not (P2p_gf.Field.is_prime_power p.pq) then
      invalid_arg (Printf.sprintf "Coded.profile: q must be a prime power, got %d" p.pq);
    if p.pk < 1 then invalid_arg "Coded.profile: k must be >= 1";
    if p.pus < 0.0 || p.pmu <= 0.0 || p.pgamma <= 0.0 then
      invalid_arg "Coded.profile: bad rates";
    List.iter
      (fun (j, rate) ->
        if j < 0 || rate < 0.0 then invalid_arg "Coded.profile: bad arrival entry")
      p.parrivals;
    if List.fold_left (fun acc (_, r) -> acc +. r) 0.0 p.parrivals <= 0.0 then
      invalid_arg "Coded.profile: total arrival rate must be positive"

  (* Σ_{V ⊄ V⁻} λ_V · weight(dim V), computed exactly from the rank law of
     the random gift matrices. *)
  let outside_sum p ~weight =
    List.fold_left
      (fun acc (j, rate) ->
        if rate <= 0.0 then acc
        else begin
          let decomposition =
            P2p_coding.Rank_dist.outside_hyperplane_decomposition ~q:p.pq ~k:p.pk ~coded:j
          in
          Array.fold_left
            (fun acc (r, w) -> acc +. (rate *. w *. weight r))
            acc decomposition
        end)
      0.0 p.parrivals

  let profile_thresholds p =
    validate_profile p;
    let qf = float_of_int p.pq in
    let frac = 1.0 -. (1.0 /. qf) in
    let finite_gamma = Float.is_finite p.pgamma in
    let rho = if finite_gamma then p.pmu /. p.pgamma else 0.0 in
    let mu_tilde = frac *. p.pmu in
    let rho_tilde = if finite_gamma then mu_tilde /. p.pgamma else 0.0 in
    let transient_rhs =
      if rho >= 1.0 then infinity
      else
        (p.pus +. outside_sum p ~weight:(fun r -> float_of_int (p.pk - r + 1)))
        /. (1.0 -. rho)
    in
    let recurrent_rhs =
      if rho_tilde >= 1.0 then infinity
      else
        (p.pus
        +. outside_sum p ~weight:(fun r -> float_of_int (p.pk - r) +. (qf /. (qf -. 1.0))))
        *. frac /. (1.0 -. rho_tilde)
    in
    (transient_rhs, recurrent_rhs)

  let classify_profile ?(tolerance = 1e-9) p =
    validate_profile p;
    let qf = float_of_int p.pq in
    let frac = 1.0 -. (1.0 /. qf) in
    let mu_tilde = frac *. p.pmu in
    let finite_gamma = Float.is_finite p.pgamma in
    let mu_lt_gamma = (not finite_gamma) || p.pmu < p.pgamma in
    let mu_tilde_lt_gamma = (not finite_gamma) || mu_tilde < p.pgamma in
    let lambda_total = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 p.parrivals in
    let has_gift = List.exists (fun (j, rate) -> j >= 1 && rate > 0.0) p.parrivals in
    let transient_rhs, recurrent_rhs = profile_thresholds p in
    let transient =
      (mu_lt_gamma && lambda_total > transient_rhs *. (1.0 +. tolerance))
      || ((not mu_lt_gamma) && p.pus = 0.0 && not has_gift)
    in
    let recurrent =
      (mu_tilde_lt_gamma && lambda_total < recurrent_rhs *. (1.0 -. tolerance))
      || ((not mu_tilde_lt_gamma) && (p.pus > 0.0 || has_gift))
    in
    match (transient, recurrent) with
    | true, false -> Transient
    | false, true -> Positive_recurrent
    | false, false -> Borderline
    | true, true -> assert false

  let uncoded_equivalent_is_transient ~k ~f =
    if f < 0.0 || f > 1.0 then invalid_arg "Coded.uncoded_equivalent_is_transient: f in [0,1]";
    if f >= 1.0 then false
    else begin
      let arrivals =
        (Pieceset.empty, 1.0 -. f)
        :: List.init k (fun i -> (Pieceset.singleton i, f /. float_of_int k))
      in
      let p = Params.make ~k ~us:0.0 ~mu:1.0 ~gamma:infinity ~arrivals in
      theorem1_classify p = Transient
    end
end
