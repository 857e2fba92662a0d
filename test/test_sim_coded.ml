(* The network-coded swarm simulator (Section VIII-B). *)

open P2p_core

let gift f =
  { Stability.Coded.q = 16; k = 6; us = 0.0; mu = 1.0; gamma = infinity;
    lambda0 = 1.0 -. f; lambda1 = f }

let test_of_gift () =
  let cfg = Sim_coded.of_gift (gift 0.3) in
  Alcotest.(check int) "q" 16 cfg.q;
  Alcotest.(check (list (pair int (float 1e-12)))) "arrivals" [ (0, 0.7); (1, 0.3) ] cfg.arrivals;
  let cfg0 = Sim_coded.of_gift (gift 0.0) in
  Alcotest.(check (list (pair int (float 1e-12)))) "no gift stream" [ (0, 1.0) ] cfg0.arrivals

let test_conservation () =
  let s = Sim_coded.run_seeded ~seed:1 (Sim_coded.of_gift (gift 0.4)) ~horizon:400.0 in
  Alcotest.(check int) "arrivals - departures = final" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check int) "dim histogram sums to final" s.final_n
    (Array.fold_left ( + ) 0 s.dim_histogram)

let test_stable_side () =
  let s = Sim_coded.run_seeded ~seed:2 (Sim_coded.of_gift (gift 0.5)) ~horizon:600.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict);
  Alcotest.(check bool) "small population" true (s.time_avg_n < 50.0)

let test_transient_side () =
  let s = Sim_coded.run_seeded ~seed:3 (Sim_coded.of_gift (gift 0.02)) ~horizon:600.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "unstable" "appears-unstable" (Classify.verdict_to_string r.verdict);
  (* the coded one-club: by the end nearly everyone sits at dimension K-1
     (the time average is lower because the club needs time to form) *)
  let club_final =
    float_of_int s.dim_histogram.(5) /. float_of_int (Int.max 1 s.final_n)
  in
  Alcotest.(check bool) "final near-complete club" true (club_final > 0.8);
  Alcotest.(check bool) "club dominates time average too" true
    (s.near_complete_fraction > 0.3)

let test_completions_decode () =
  let s = Sim_coded.run_seeded ~seed:4 (Sim_coded.of_gift (gift 0.5)) ~horizon:400.0 in
  Alcotest.(check bool) "peers decode and depart" true (s.completions > 50);
  Alcotest.(check bool) "useful transfers happen" true (s.useful_transfers > 0);
  (* each completed peer needed at least K useful receptions (minus gifts) *)
  Alcotest.(check bool) "useful >= completions * (K-1)" true
    (s.useful_transfers >= s.completions * (6 - 1))

let test_finite_gamma_seeds_dwell () =
  let g = { (gift 0.5) with gamma = 1.0 } in
  let s = Sim_coded.run_seeded ~seed:5 (Sim_coded.of_gift g) ~horizon:400.0 in
  Alcotest.(check bool) "seeds counted in population" true (s.time_avg_n > 0.0);
  Alcotest.(check int) "conservation with dwell" (s.arrivals - s.departures) s.final_n

let test_smart_exchange_more_efficient () =
  (* Remark 16: with description exchange an uploader that can help
     always sends something useful.  From two peers holding distinct
     lines of F_2^6 the first contact is a self-contact (useless either
     way) with probability 1/2; otherwise a plain uploader sends its
     line's nonzero vector with probability 1/2, a smart one always.  So
     the first upload is useless with probability 3/4 plain, 1/2 smart. *)
  let field = P2p_gf.Field.gf 2 in
  let line i =
    Sim_coded.Span
      (P2p_coding.Subspace.of_vectors field ~k:6 [ Array.init 6 (fun j -> Bool.to_int (i = j)) ])
  in
  let useless_fraction smart_exchange =
    let sim =
      { Sim_coded.q = 2; k = 6; us = 0.0; mu = 1.0; gamma = infinity; arrivals = [ (0, 1e-6) ];
        smart_exchange; faults = Faults.none }
    in
    let config = { (Sim_coded.peers_config sim) with initial = [ (line 0, 1); (line 1, 1) ] } in
    let rng = P2p_prng.Rng.of_seed 6 in
    let useless = ref 0 and uploads = ref 0 in
    for _ = 1 to 4000 do
      let s, _ = Peers.run ~max_events:1 ~rng config (Sim_coded.content sim) ~horizon:1e6 in
      useless := !useless + s.useless_transfers;
      uploads := !uploads + s.transfers + s.useless_transfers
    done;
    float_of_int !useless /. float_of_int !uploads
  in
  let plain = useless_fraction false and smart = useless_fraction true in
  (* 4000 draws: the standard error is under 0.008 *)
  Alcotest.(check bool) (Printf.sprintf "plain useless %.3f vs 3/4" plain) true
    (Float.abs (plain -. 0.75) < 0.03);
  Alcotest.(check bool) (Printf.sprintf "smart useless %.3f vs 1/2" smart) true
    (Float.abs (smart -. 0.5) < 0.03)

let test_gifted_with_many_pieces () =
  (* Arrivals holding K random coded pieces usually decode instantly. *)
  let cfg =
    { Sim_coded.q = 16; k = 4; us = 0.0; mu = 1.0; gamma = infinity;
      arrivals = [ (6, 1.0) ]; smart_exchange = false; faults = Faults.none }
  in
  let s = Sim_coded.run_seeded ~seed:7 cfg ~horizon:200.0 in
  Alcotest.(check bool) "most arrivals complete immediately" true
    (s.completions > s.arrivals / 2)

let test_deterministic () =
  let run () = Sim_coded.run_seeded ~seed:8 (Sim_coded.of_gift (gift 0.3)) ~horizon:200.0 in
  let a = run () and b = run () in
  Alcotest.(check int) "same events" a.events b.events;
  Alcotest.(check int) "same useful" a.useful_transfers b.useful_transfers

let test_validation () =
  Alcotest.(check bool) "no arrivals rejected" true
    (try
       ignore
         (Sim_coded.run_seeded ~seed:9
            { Sim_coded.q = 4; k = 3; us = 0.0; mu = 1.0; gamma = infinity; arrivals = [];
              smart_exchange = false; faults = Faults.none }
            ~horizon:10.0);
       false
     with Invalid_argument _ -> true)

(* Classes, overlays and an initial population reach the coded swarm
   through the driver's config alone: a warm start of 30 peers in one
   hyperplane of F_16^4, a slow dwelling class beside a fast impatient
   one, on a degree-3 overlay.  Every peer is accounted for, the class
   means split the population, and the overlay reports its degree. *)
let test_driver_features () =
  let sim =
    { Sim_coded.q = 16; k = 4; us = 0.5; mu = 1.0; gamma = infinity; arrivals = [];
      smart_exchange = false; faults = Faults.none }
  in
  let field = P2p_gf.Field.gf 16 in
  let unit i = Array.init 4 (fun j -> Bool.to_int (i = j)) in
  let club = P2p_coding.Subspace.of_vectors field ~k:4 (List.init 3 unit) in
  let classes =
    [
      { Params.label = "sticky"; mu = 0.5; gamma = 0.5; arrivals = [ (Sim_coded.Coded 1, 0.4) ] };
      { Params.label = "fast"; mu = 2.0; gamma = infinity; arrivals = [ (Sim_coded.Coded 0, 0.6) ] };
    ]
  in
  let config =
    { (Peers.config ~us:0.5 classes) with
      initial = [ (Sim_coded.Span club, 30) ]; degree = Some 3 }
  in
  let s, swarm =
    Peers.run ~rng:(P2p_prng.Rng.of_seed 4) config (Sim_coded.content sim) ~horizon:300.0
  in
  Alcotest.(check int) "conservation" (30 + s.arrivals - s.departures) s.final_n;
  Alcotest.(check int) "final swarm" s.final_n (Peers.size swarm);
  Alcotest.(check bool) "some peers decoded" true (s.completions > 0);
  Alcotest.(check (float 1e-9)) "class means sum to the mean"
    s.time_avg_n (Array.fold_left ( +. ) 0.0 s.class_mean_n);
  Alcotest.(check bool) "overlay degree measured" true (s.mean_degree_time_avg > 0.0)

let () =
  Alcotest.run "sim_coded"
    [
      ( "sim_coded",
        [
          Alcotest.test_case "of_gift" `Quick test_of_gift;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "stable side" `Quick test_stable_side;
          Alcotest.test_case "transient side" `Quick test_transient_side;
          Alcotest.test_case "completions decode" `Quick test_completions_decode;
          Alcotest.test_case "finite gamma" `Quick test_finite_gamma_seeds_dwell;
          Alcotest.test_case "smart exchange" `Quick test_smart_exchange_more_efficient;
          Alcotest.test_case "gifted many pieces" `Quick test_gifted_with_many_pieces;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "driver features" `Quick test_driver_features;
        ] );
    ]
