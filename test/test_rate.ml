(* Transition rates: Eq. (1) closed form, general-policy rates, and the
   generator row enumeration. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let closef ?(tol = 1e-12) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g got %.8g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let params ?(k = 2) ?(us = 1.0) ?(mu = 1.0) ?(gamma = 2.0) () =
  Params.make ~k ~us ~mu ~gamma ~arrivals:[ (PS.empty, 1.0) ]

(* Hand-computed instance of Eq. (1):
   K=2, U_s=1, mu=1; x = (x_{} = 2, x_{1} = 1, x_{2} = 1, x_{12} = 1), n=5.
   Gamma_{{},{1}} = (2/5)(U_s/2 + mu(x_{1}/1 + x_{12}/2)) = (2/5)(0.5+1.5) = 0.8 *)
let worked_state () =
  State.of_counts
    [ (PS.empty, 2); (PS.singleton 0, 1); (PS.singleton 1, 1); (PS.of_list [ 0; 1 ], 1) ]

let test_eq1_worked_example () =
  let p = params () in
  let s = worked_state () in
  closef "Gamma {}->{1}" 0.8 (Rate.gamma_c_i p s ~c:PS.empty ~piece:0);
  closef "Gamma {}->{2}" 0.8 (Rate.gamma_c_i p s ~c:PS.empty ~piece:1);
  (* Gamma_{{1},{1,2}} = (1/5)(U_s/1 + mu(x_{2}/1 + x_{12}/1)) = (1/5)(1+2) = 0.6 *)
  closef "Gamma {1}->{1,2}" 0.6 (Rate.gamma_c_i p s ~c:(PS.singleton 0) ~piece:1)

let test_eq1_zero_cases () =
  let p = params () in
  let s = worked_state () in
  closef "piece already held" 0.0 (Rate.gamma_c_i p s ~c:(PS.singleton 0) ~piece:0);
  closef "empty state" 0.0 (Rate.gamma_c_i p (State.create ()) ~c:PS.empty ~piece:0);
  closef "absent type" 0.0
    (Rate.gamma_c_i p (State.of_counts [ (PS.singleton 0, 1) ]) ~c:PS.empty ~piece:1)

let test_policy_rate_matches_eq1 () =
  (* Under random-useful selection the general-policy rate must equal the
     closed form, on randomized states. *)
  let rng = P2p_prng.Rng.of_seed 7 in
  let p = params ~k:3 ~us:0.7 ~mu:1.3 () in
  for _ = 1 to 200 do
    let entries =
      List.filter_map
        (fun c ->
          let count = P2p_prng.Rng.int_below rng 4 in
          if count > 0 then Some (PS.of_index c, count) else None)
        (List.init 8 (fun i -> i))
    in
    let s = State.of_counts entries in
    List.iter
      (fun c ->
        let cset = PS.of_index c in
        PS.iter
          (fun piece ->
            closef ~tol:1e-9 "policy = Eq.(1)"
              (Rate.gamma_c_i p s ~c:cset ~piece)
              (Rate.transfer_rate ~policy:Policy.random_useful p s ~c:cset ~piece))
          (PS.complement ~k:3 cset))
      (List.init 7 (fun i -> i))
  done

(* The per-(C, i) scan, kept as the kernel's reference: for one (C, i),
   every S holding piece i with positive mass, summed with Neumaier's
   compensation so its peer sum is within about 2u of exact. *)
let reference_gamma (p : Params.t) ~us_scale x ~n ~c ~piece =
  let xc = x.(c) and cset = PS.of_index c in
  if xc <= 0.0 || n <= 0.0 || PS.mem piece cset then 0.0
  else begin
    let seed_part = us_scale *. p.us /. float_of_int (PS.missing_count ~k:p.k cset) in
    let sum = ref 0.0 and comp = ref 0.0 in
    for s = 0 to (1 lsl p.k) - 1 do
      let sset = PS.of_index s in
      if x.(s) > 0.0 && PS.mem piece sset then begin
        let v = x.(s) /. float_of_int (PS.cardinal (PS.diff sset cset)) in
        let t = !sum +. v in
        (comp := !comp +. if !sum >= v then !sum -. t +. v else v -. t +. !sum);
        sum := t
      end
    done;
    xc /. n *. (seed_part +. (p.mu *. (!sum +. !comp)))
  end

(* Zeros, integration overshoots just below zero, and tiny, ordinary and
   huge masses, so the kernel's +0.0 entries and its scaling are
   exercised at every scale. *)
let random_mass rng =
  match P2p_prng.Rng.int_below rng 6 with
  | 0 -> 0.0
  | 1 -> -1e-12
  | 2 -> 1e-300 *. (1.0 +. P2p_prng.Rng.float rng)
  | 3 -> 1e12 *. (1.0 +. P2p_prng.Rng.float rng)
  | 4 -> 1e250 *. (1.0 +. P2p_prng.Rng.float rng)
  | _ -> 1e3 *. P2p_prng.Rng.float rng

(* The kernel regroups the peer sum, so it is held to a rounding bound,
   not to bits.  All terms are nonnegative, so each rounding costs at most
   u = 2^-53 of the exact sum.  Kernel peer sum: |C| fold adds, the 1/m
   entry and its product, and 2^(K-|C|-1) - 1 gather adds, at most
   K + 2^(K-1) in all; reference: one division per term and the
   compensated sum, about 2.  Each side then rounds mu * peer, the add of
   the seed part and the product with x_C / n (both sides compute that
   factor and the seed part identically): 3 more each.  So the gap is
   within gamma_m = m u / (1 - m u) with m = K + 2^(K-1) + 8, plus one
   subnormal ulp where the product underflows. *)
let test_kernel_matches_scan () =
  let rng = P2p_prng.Rng.of_seed 21 in
  let u = epsilon_float /. 2.0 and tiny = Int64.float_of_bits 1L in
  for k = 1 to 10 do
    let p = params ~k ~us:0.7 ~mu:1.3 () in
    let d = 1 lsl k in
    let m = float_of_int (k + (1 lsl (k - 1)) + 8) in
    let bound = m *. u /. (1.0 -. (m *. u)) in
    (* One kernel across all vectors: stale tables must not leak. *)
    let kernel = Rate.kernel ~k in
    for trial = 1 to (if k >= 8 then 10 else 40) do
      (* Trailing entries (the fluid backend's augmented slots) are ignored. *)
      let x = Array.init (d + 3) (fun _ -> random_mass rng) in
      let us_scale = [| 1.0; 0.0; 0.37 |].(trial mod 3) in
      let pop = ref 0.0 in
      for s = 0 to d - 1 do
        pop := !pop +. x.(s)
      done;
      let n = if trial mod 10 = 0 then 0.0 else Float.max !pop 1e-9 in
      let g = Rate.gammas ~us_scale p kernel x ~n in
      for c = 0 to d - 1 do
        for piece = 0 to k - 1 do
          let expected = reference_gamma p ~us_scale x ~n ~c ~piece in
          let got = g.((c * k) + piece) in
          let zero = x.(c) <= 0.0 || n <= 0.0 || (c lsr piece) land 1 = 1 in
          if
            (zero && Int64.bits_of_float got <> 0L)
            || not (Float.abs (got -. expected) <= (bound *. expected) +. tiny)
          then
            Alcotest.failf "k=%d trial %d C=%d i=%d: kernel %h, scan %h (bound %g)" k trial c
              piece got expected bound
        done
      done
    done
  done;
  Alcotest.check_raises "kernel built for another k"
    (Invalid_argument "Rate.gammas: kernel built for another k") (fun () ->
      ignore (Rate.gammas (params ~k:3 ()) (Rate.kernel ~k:2) (Array.make 8 1.0) ~n:8.0))

(* The summed rate of the row's moves from type index [from_] to [to_]. *)
let move_rate moves ~from_ ~to_ =
  List.fold_left (fun acc (f, t, r) -> if f = from_ && t = to_ then acc +. r else acc) 0.0 moves

let test_transitions_complete () =
  let p = params () in
  let s = worked_state () in
  let ts = Rate.transitions p s in
  (* 1 arrival stream + 1 seed departure + transfers:
     {} can get piece 1, piece 2; {1} can get 2; {2} can get 1 -> 4 transfers *)
  Alcotest.(check int) "transition count" 6 (List.length ts);
  (* seed departure rate = gamma * x_F = 2*1 *)
  closef "departure rate" 2.0 (move_rate ts ~from_:3 ~to_:(-1))

let test_transitions_no_departure_when_inf () =
  let p = params ~gamma:infinity () in
  (* gamma = inf means no full peers can exist in a valid state; build a
     state without them. *)
  let s = State.of_counts [ (PS.empty, 2); (PS.singleton 0, 1) ] in
  let ts = Rate.transitions p s in
  Alcotest.(check bool) "no seed departure"
    true
    (List.for_all (fun (from_, _, _) -> from_ <> 3) ts)

(* Each kind of transition as its move, applied by State.apply_move. *)
let test_apply_arrival () =
  let p = params () in
  let s = State.create () in
  closef "arrival move" 1.0 (move_rate (Rate.transitions p s) ~from_:(-1) ~to_:0);
  State.apply_move s ~from_:(-1) ~to_:0;
  Alcotest.(check int) "added" 1 (State.count s PS.empty)

let test_apply_transfer () =
  let p = params () in
  let s = State.of_counts [ (PS.empty, 1) ] in
  (* U_s / (K - |C|) from the seed, no peer can help *)
  closef "transfer move" 0.5 (move_rate (Rate.transitions p s) ~from_:0 ~to_:1);
  State.apply_move s ~from_:0 ~to_:1;
  Alcotest.(check int) "moved" 1 (State.count s (PS.singleton 0));
  Alcotest.(check int) "n kept" 1 (State.n s)

let test_apply_completion_finite_gamma () =
  let p = params () in
  let s = State.of_counts [ (PS.singleton 0, 1) ] in
  closef "completion move" 1.0 (move_rate (Rate.transitions p s) ~from_:1 ~to_:3);
  State.apply_move s ~from_:1 ~to_:3;
  Alcotest.(check int) "became seed" 1 (State.count s (PS.full ~k:2));
  Alcotest.(check int) "n kept" 1 (State.n s)

let test_apply_completion_immediate () =
  let p = params ~gamma:infinity () in
  let s = State.of_counts [ (PS.singleton 0, 1) ] in
  let ts = Rate.transitions p s in
  closef "completion departs" 1.0 (move_rate ts ~from_:1 ~to_:(-1));
  closef "no seed made" 0.0 (move_rate ts ~from_:1 ~to_:3);
  State.apply_move s ~from_:1 ~to_:(-1);
  Alcotest.(check int) "departed" 0 (State.n s)

let test_apply_seed_departure () =
  let p = params () in
  let s = State.of_counts [ (PS.full ~k:2, 2) ] in
  closef "departure move" 4.0 (move_rate (Rate.transitions p s) ~from_:3 ~to_:(-1));
  State.apply_move s ~from_:3 ~to_:(-1);
  Alcotest.(check int) "one left" 1 (State.count s (PS.full ~k:2))

let test_apply_invalid () =
  let p = params () in
  (* a transfer adds exactly one piece the downloader lacks *)
  List.iter
    (fun (from_, to_, _) ->
      if from_ >= 0 && to_ >= 0 then
        Alcotest.(check bool)
          (Printf.sprintf "move %d -> %d adds one missing piece" from_ to_)
          true
          (from_ land to_ = from_ && PS.cardinal (PS.of_index (to_ lxor from_)) = 1))
    (Rate.transitions p (worked_state ()));
  let s = State.of_counts [ (PS.singleton 0, 1) ] in
  Alcotest.(check bool) "move from an absent type" true
    (try
       State.apply_move s ~from_:0 ~to_:1;
       false
     with Invalid_argument _ -> true)

(* Flow conservation: summing Gamma_{C,C+i} over all C,i against the
   aggregate upload capacity. Each contact-with-useful-piece uploads, so
   total transfer rate <= U_s + mu * n. *)
let test_total_transfer_rate_bounded () =
  let rng = P2p_prng.Rng.of_seed 8 in
  let p = params ~k:3 ~us:0.5 ~mu:2.0 () in
  for _ = 1 to 100 do
    let entries =
      List.filter_map
        (fun c ->
          let count = P2p_prng.Rng.int_below rng 5 in
          if count > 0 then Some (PS.of_index c, count) else None)
        (List.init 8 (fun i -> i))
    in
    if entries <> [] then begin
      let s = State.of_counts entries in
      let transfer_total =
        List.fold_left
          (* transfers: the moves out of a proper type (7 is F) *)
          (fun acc (from_, _, r) -> if from_ >= 0 && from_ < 7 then acc +. r else acc)
          0.0 (Rate.transitions p s)
      in
      let cap = p.us +. (p.mu *. float_of_int (State.n s)) in
      Alcotest.(check bool) "bounded by capacity" true (transfer_total <= cap +. 1e-9)
    end
  done

let test_rarest_first_rate_shifts_mass () =
  (* With rarest-first, a type-{} peer downloading from the seed must get
     the globally rarer piece with probability 1. *)
  let p = params ~k:2 ~us:1.0 ~mu:1.0 () in
  (* piece 2 (index 1) is rarer: 1 copy vs 3 copies of piece 1 *)
  let s = State.of_counts [ (PS.empty, 5); (PS.singleton 0, 3); (PS.singleton 1, 1) ] in
  let rate_rare =
    Rate.transfer_rate ~policy:Policy.rarest_first p s ~c:PS.empty ~piece:1
  in
  let rate_common =
    Rate.transfer_rate ~policy:Policy.rarest_first p s ~c:PS.empty ~piece:0
  in
  (* Seed always sends piece 2 to a type-{} peer; type-{1} peers can only
     send piece 1 (still useful, forced); type-{2} sends piece 2. *)
  let x_empty = 5.0 and n = 9.0 in
  closef "rare piece rate" (x_empty /. n *. (1.0 +. 1.0)) rate_rare;
  closef "common piece rate" (x_empty /. n *. 3.0) rate_common

let () =
  Alcotest.run "rate"
    [
      ( "eq1",
        [
          Alcotest.test_case "worked example" `Quick test_eq1_worked_example;
          Alcotest.test_case "zero cases" `Quick test_eq1_zero_cases;
          Alcotest.test_case "policy matches closed form" `Quick test_policy_rate_matches_eq1;
          Alcotest.test_case "dense kernel matches scan" `Quick
            test_kernel_matches_scan;
          Alcotest.test_case "rarest-first shifts mass" `Quick test_rarest_first_rate_shifts_mass;
        ] );
      ( "generator",
        [
          Alcotest.test_case "transitions complete" `Quick test_transitions_complete;
          Alcotest.test_case "no departure at gamma=inf" `Quick test_transitions_no_departure_when_inf;
          Alcotest.test_case "apply arrival" `Quick test_apply_arrival;
          Alcotest.test_case "apply transfer" `Quick test_apply_transfer;
          Alcotest.test_case "apply completion (finite)" `Quick test_apply_completion_finite_gamma;
          Alcotest.test_case "apply completion (inf)" `Quick test_apply_completion_immediate;
          Alcotest.test_case "apply seed departure" `Quick test_apply_seed_departure;
          Alcotest.test_case "apply invalid" `Quick test_apply_invalid;
          Alcotest.test_case "capacity bound" `Quick test_total_transfer_rate_bounded;
        ] );
    ]
