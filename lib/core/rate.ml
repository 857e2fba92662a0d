module Pieceset = P2p_pieceset.Pieceset

(* Eq. (1) on a dense occupancy vector, for every (C, i) at once.  The
   division table holds x_S / m at S * (k + 1) + m (+0.0 where x_S <= 0),
   so each peer sum over S ∋ i is a branch-free gather in ascending S,
   bit-for-bit the plain per-(C, i) scan.  Four downloader types share
   each walk over S, so their dependent addition chains overlap. *)
type kernel = { cards : int array; share : float array; gammas : float array }

let kernel ~k =
  let d = 1 lsl k in
  let cards = Array.init d (fun s -> Pieceset.cardinal (Pieceset.of_index s)) in
  { cards; share = Array.make (d * (k + 1)) 0.0; gammas = Array.make (d * k) 0.0 }

let gammas ?(us_scale = 1.0) (p : Params.t) t x ~n =
  let k = p.k and d = 1 lsl p.k and w = p.k + 1 and share = t.share and cards = t.cards in
  if Array.length t.gammas <> d * k then invalid_arg "Rate.gammas: kernel built for another k";
  for s = 0 to d - 1 do
    for m = 1 to k do
      share.((s * w) + m) <- (if x.(s) > 0.0 then x.(s) /. float_of_int m else 0.0)
    done
  done;
  Array.fill t.gammas 0 (d * k) 0.0;
  let set i c peer_part =
    if c < d then begin
      let missing = Pieceset.missing_count ~k (Pieceset.of_index c) in
      let seed_part = us_scale *. p.us /. float_of_int missing in
      t.gammas.((c * k) + i) <- x.(c) /. n *. (seed_part +. (p.mu *. peer_part))
    end
  in
  if n > 0.0 then
    for i = 0 to k - 1 do
      let bit = 1 lsl i in
      (* The next type above c that lacks piece i and has mass (>= d if none). *)
      let rec next c =
        let c = ((c lor bit) + 1) land lnot bit in
        if c < d && x.(c) <= 0.0 then next c else c
      in
      let c1 = ref (next (-1)) in
      while !c1 < d do
        let c2 = next !c1 in
        let c3 = next c2 in
        let c4 = next c3 in
        let o1 = lnot !c1 and o2 = lnot c2 and o3 = lnot c3 and o4 = lnot c4 in
        (* (s + 1) lor bit is the next index above s holding piece i, and
           s < d keeps every read in bounds. *)
        let a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 and a4 = ref 0.0 and s = ref bit in
        while !s < d do
          let row = !s * w in
          a1 := !a1 +. Array.unsafe_get share (row + Array.unsafe_get cards (!s land o1));
          a2 := !a2 +. Array.unsafe_get share (row + Array.unsafe_get cards (!s land o2));
          a3 := !a3 +. Array.unsafe_get share (row + Array.unsafe_get cards (!s land o3));
          a4 := !a4 +. Array.unsafe_get share (row + Array.unsafe_get cards (!s land o4));
          s := (!s + 1) lor bit
        done;
        set i !c1 !a1; set i c2 !a2;
        set i c3 !a3; set i c4 !a4;
        c1 := next c4
      done
    done;
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
