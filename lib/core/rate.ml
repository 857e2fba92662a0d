module Pieceset = P2p_pieceset.Pieceset

(* Eq. (1) for every (C, i) at once, by a subset transform.  With
   A = S ∩ C and D = S ∖ C, the peer sum Σ_{S ∋ i} x_S/|S∖C| is
   Σ_{D ⊆ C̄, D ∋ i} Y_C(D)/|D|, Y_C(D) = Σ_{A ⊆ C} x⁺_{A ∪ D}.  A depth-first
   walk over C (a child adds a piece j above max C) gets Y_C from its parent
   by folding out j, Y_C(D) = Y_parent(D) + Y_parent(D ∪ {j}), 3^K adds in
   all; level |C| of [levels] holds Y_C(D) at C ∪ D.  Each occupied C scales
   it by 1/|D| into [w] and gathers one sum per missing piece, K·3^(K−1) adds
   (the per-(C, i) scan does K·4^K/4).  Terms are nonnegative, so a peer
   sum is within K + 2^(K−1) roundings of exact. *)
type kernel = { cards : int array; inv : float array; levels : float array; w : float array;
                gammas : float array }

let kernel ~k =
  let d = 1 lsl k in
  { cards = Array.init d (fun s -> Pieceset.cardinal (Pieceset.of_index s));
    inv = Array.init (k + 1) (fun m -> 1.0 /. float_of_int (max m 1));
    levels = Array.make (d * (k + 1)) 0.0; w = Array.make d 0.0; gammas = Array.make (d * k) 0.0 }

let gammas ?(us_scale = 1.0) (p : Params.t) t x ~n =
  let k = p.k and d = 1 lsl p.k and lv = t.levels and w = t.w in
  if Array.length t.gammas <> d * k then invalid_arg "Rate.gammas: kernel built for another k";
  Array.fill t.gammas 0 (d * k) 0.0;
  let rec visit c l lo =
    (* Γ for every piece missing from c, if occupied: W(D) = Y_c(D)/|D|, then gathers *)
    if l < k && x.(c) > 0.0 then begin
      let s = ref ((c + 1) lor c) and base = l * d in
      while !s < d do
        Array.unsafe_set w !s
          (Array.unsafe_get lv (base + !s) *. Array.unsafe_get t.inv (Array.unsafe_get t.cards !s - l));
        s := (!s + 1) lor c
      done;
      let seed_part = us_scale *. p.us /. float_of_int (k - l) and scale = x.(c) /. n in
      for i = 0 to k - 1 do
        let fix = c lor (1 lsl i) in
        if fix <> c then begin
          let acc = ref 0.0 and s = ref fix in
          while !s < d do
            acc := !acc +. Array.unsafe_get w !s;
            s := (!s + 1) lor fix
          done;
          t.gammas.((c * k) + i) <- scale *. (seed_part +. (p.mu *. !acc))
        end
      done
    end;
    for j = lo to k - 1 do
      let bit = 1 lsl j and src = l * d and dst = (l + 1) * d in
      let child = c lor bit and s = ref (c lor bit) in
      while !s < d do
        Array.unsafe_set lv (dst + !s)
          (Array.unsafe_get lv (src + !s - bit) +. Array.unsafe_get lv (src + !s));
        s := (!s + 1) lor child
      done;
      visit child (l + 1) (j + 1)
    done
  in
  for s = 0 to d - 1 do lv.(s) <- (if x.(s) > 0.0 then x.(s) else 0.0) done;
  if n > 0.0 then visit 0 0 0;
  t.gammas

let gamma_c_i (p : Params.t) state ~c ~piece =
  let x = Array.make (1 lsl p.k) 0.0 in
  State.iter state (fun s v -> x.(Pieceset.to_index s) <- float_of_int v);
  let g = gammas p (kernel ~k:p.k) x ~n:(float_of_int (State.n state)) in
  if piece >= p.k then 0.0 else g.((Pieceset.to_index c * p.k) + piece)

let policy_weight (policy : Policy.t) ~k ~state ~uploader ~downloader ~piece =
  if Pieceset.is_empty (Policy.useful_pieces ~k ~uploader ~downloader) then 0.0
  else begin
    let dist = policy.distribution ~k ~state ~uploader ~downloader in
    List.fold_left (fun acc (i, pr) -> if i = piece then acc +. pr else acc) 0.0 dist
  end

let transfer_rate ~policy (p : Params.t) state ~c ~piece =
  let n = State.n state in
  let x_c = State.count state c in
  if n = 0 || x_c = 0 || Pieceset.mem piece c then 0.0
  else begin
    let seed_part =
      if p.us > 0.0 then
        p.us *. policy_weight policy ~k:p.k ~state ~uploader:Policy.Fixed_seed ~downloader:c ~piece
      else 0.0
    in
    let peer_part =
      State.fold state ~init:0.0 ~f:(fun acc s x_s ->
          if Pieceset.can_help ~uploader:s ~downloader:c then
            acc
            +. float_of_int x_s
               *. policy_weight policy ~k:p.k ~state ~uploader:(Policy.Peer s) ~downloader:c
                    ~piece
          else acc)
    in
    float_of_int x_c /. float_of_int n *. (seed_part +. (p.mu *. peer_part))
  end

let transitions ?(policy = Policy.random_useful) (p : Params.t) state =
  let full = Params.full_set p in
  let top = Pieceset.to_index full in
  let acc = ref [] in
  (* Arrivals always enabled. *)
  Array.iter (fun (c, rate) -> acc := (-1, Pieceset.to_index c, rate) :: !acc) p.arrivals;
  (* Seed departures when gamma is finite. *)
  if not (Params.immediate_departure p) then begin
    let seeds = State.count state full in
    if seeds > 0 then acc := (top, -1, p.gamma *. float_of_int seeds) :: !acc
  end;
  (* Piece transfers; completing one at gamma = inf leaves the system. *)
  State.iter state (fun c _ ->
      if not (Pieceset.equal c full) then
        Pieceset.iter
          (fun piece ->
            let rate = transfer_rate ~policy p state ~c ~piece in
            let target = Pieceset.to_index (Pieceset.add piece c) in
            let target = if target = top && Params.immediate_departure p then -1 else target in
            if rate > 0.0 then acc := (Pieceset.to_index c, target, rate) :: !acc)
          (Pieceset.complement ~k:p.k c));
  !acc
