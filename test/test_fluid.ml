(* The fluid (mean-field) limit. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let stable = Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5
let transient = Scenario.flash_crowd ~k:3 ~lambda:1.0 ~us:0.1 ~mu:1.0 ~gamma:infinity

let test_of_state () =
  let s = State.of_counts [ (PS.empty, 2); (PS.singleton 1, 3) ] in
  let x = Fluid.of_state ~k:3 s in
  Alcotest.(check int) "dense size" 8 (Array.length x);
  Alcotest.(check (float 1e-12)) "empty slot" 2.0 x.(0);
  Alcotest.(check (float 1e-12)) "{2} slot" 3.0 x.(PS.to_index (PS.singleton 1));
  Alcotest.(check (float 1e-12)) "total" 5.0 (Fluid.total x)

let test_derivative_mass_balance () =
  (* d(total)/dt = lambda_total - gamma x_F (finite gamma, no one at full
     collection departs otherwise). *)
  let x = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 5); (PS.full ~k:3, 2) ]) in
  let dx = Fluid.derivative stable x in
  let total_rate = Array.fold_left ( +. ) 0.0 dx in
  Alcotest.(check (float 1e-9)) "mass balance" (3.0 -. (1.5 *. 2.0)) total_rate

let test_derivative_mass_balance_gamma_inf () =
  (* gamma = inf: mass leaves through completions; with nobody one piece
     away, total derivative = lambda exactly. *)
  let x = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 5) ]) in
  let dx = Fluid.derivative transient x in
  let total_rate = Array.fold_left ( +. ) 0.0 dx in
  Alcotest.(check (float 1e-9)) "only arrivals" 1.0 total_rate

let test_derivative_matches_generator_drift () =
  (* The fluid RHS is the exact mean drift of the jump process: compare
     against Lyapunov.drift of the per-type count functions. *)
  let s =
    State.of_counts [ (PS.empty, 4); (PS.singleton 0, 3); (PS.of_list [ 0; 1 ], 2) ]
  in
  let x = Fluid.of_state ~k:3 s in
  let dx = Fluid.derivative stable x in
  List.iter
    (fun c ->
      let f st = float_of_int (State.count st (PS.of_index c)) in
      let expected = Lyapunov.drift stable ~f s in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "type %d drift" c)
        expected dx.(c))
    (List.init 8 (fun i -> i))

let test_integrate_records () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let traj = Fluid.integrate stable ~init ~dt:0.1 ~horizon:10.0 ~record_every:10 in
  Alcotest.(check bool) "records include end" true
    (Array.length traj.times >= 10);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 traj.times.(0);
  Alcotest.(check bool) "population grows from empty" true
    (traj.totals.(Array.length traj.totals - 1) > 0.0)

let test_equilibrium_stable () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  match Fluid.equilibrium stable ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      let dx = Fluid.derivative stable eq in
      let norm = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 dx in
      Alcotest.(check bool) "derivative tiny" true (norm < 1e-4);
      Alcotest.(check bool) "finite population" true
        (Fluid.total eq > 1.0 && Fluid.total eq < 100.0)

let test_transient_no_equilibrium () =
  (* Start from a heavy one-club; the transient fluid grows forever. *)
  let club = PS.of_list [ 1; 2 ] in
  let init = Fluid.of_state ~k:3 (State.of_counts [ (club, 100) ]) in
  match Fluid.equilibrium ~horizon:300.0 transient ~init with
  | None -> ()
  | Some eq ->
      Alcotest.failf "unexpected equilibrium with n = %.1f" (Fluid.total eq)

let test_transient_linear_growth () =
  let club = PS.of_list [ 1; 2 ] in
  let init = Fluid.of_state ~k:3 (State.of_counts [ (club, 100) ]) in
  let traj = Fluid.integrate transient ~init ~dt:0.02 ~horizon:200.0 ~record_every:100 in
  let n = Array.length traj.times in
  let pts = Array.init (n / 2) (fun i -> (traj.times.(i + (n / 2)), traj.totals.(i + (n / 2)))) in
  let fit = P2p_stats.Regression.fit pts in
  (* Delta = lambda - threshold = 1 - 0.1 = 0.9 *)
  Alcotest.(check bool)
    (Printf.sprintf "fluid slope %.3f near Delta 0.9" fit.slope)
    true
    (Float.abs (fit.slope -. 0.9) < 0.1)

let test_nonnegativity_preserved () =
  let init = Fluid.of_state ~k:3 (State.of_counts [ (PS.empty, 50) ]) in
  let traj = Fluid.integrate stable ~init ~dt:0.05 ~horizon:50.0 ~record_every:20 in
  Array.iter
    (Array.iter (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.0)))
    traj.states

(* The adaptive stepper must land on the same equilibria the fixed-step
   RK4 integrator found.  Values pinned from the pre-RK45 implementation
   (dt = 0.01, tol = 1e-6); agreement within 1e-3 absolute per
   component is well inside both integrators' error. *)
let test_equilibrium_matches_rk4_pinned () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  match Fluid.equilibrium stable ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      let pinned =
        [|
          0.0; 1.12388078582; 1.12388078582; 1.60816963592;
          1.12388078582; 1.60816963592; 1.60816963592; 1.99999972634;
        |]
      in
      Alcotest.(check (float 1e-3)) "total" 10.1961509916 (Fluid.total eq);
      Array.iteri
        (fun i v -> Alcotest.(check (float 1e-3)) (Printf.sprintf "x[%d]" i) v eq.(i))
        pinned

let test_two_chunk_equilibrium_pinned () =
  (* K = 2, lambda = us = mu = 1, gamma = inf: the Norros–Reittu–Eirola
     closed form gives x_0 = 1, x_1 = x_2 = 1/sqrt 2, total 1 + sqrt 2.
     Pinned against the old RK4 run of the same scenario. *)
  let p = Scenario.flash_crowd ~k:2 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:infinity in
  let init = Fluid.of_state ~k:2 (State.create ()) in
  match Fluid.equilibrium p ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      Alcotest.(check (float 1e-3)) "total 1 + sqrt 2" 2.41421277951 (Fluid.total eq);
      Alcotest.(check (float 1e-3)) "x_empty" 1.0 eq.(0);
      Alcotest.(check (float 1e-3)) "x_{1}" (1.0 /. Float.sqrt 2.0) eq.(1);
      Alcotest.(check (float 1e-3)) "x_{2}" (1.0 /. Float.sqrt 2.0) eq.(2)

let test_grid_times_exact () =
  (* Recorded times are exact multiples of dt * record_every (computed as
     float-of-int multiples, not accumulated sums), ending at the horizon. *)
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let traj = Fluid.integrate stable ~init ~dt:0.1 ~horizon:10.0 ~record_every:10 in
  let n = Array.length traj.times in
  Alcotest.(check int) "11 grid points + horizon dedup" 11 n;
  Array.iteri
    (fun i t -> Alcotest.(check (float 0.0)) (Printf.sprintf "grid %d" i) (float_of_int i *. 1.0) t)
    traj.times

(* The million-peer K = 8 flash crowd of the fluid benchmark, cut at
   horizon 2: step counts and the float bits of the exact ODE-integral
   counters.  Any change to the order of the RHS sums moves these bits.
   Re-pinned when grid points stopped being integrator barriers (207
   steps and 1,244 evaluations before), and when Rate.gammas became a
   subset transform (departures 0x3715c9a1d8e7f191 before, one ulp; the
   other bits and the counts held); "dense sampling law" below bounds
   what such changes may move against an rtol 1e-11 reference. *)
let test_k8_golden () =
  let p = Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ] in
  let control = Ode.control ~rtol:1e-6 ~atol:1e-9 () in
  let config = { (Sim_fluid.default_config p) with initial = [ (PS.empty, 1e6) ]; control } in
  let s, _ = Sim_fluid.run_seeded ~seed:1 config ~horizon:2.0 in
  Alcotest.(check int) "steps" 16 s.Sim_fluid.steps;
  Alcotest.(check int) "rejected steps" 0 s.rejected_steps;
  Alcotest.(check int) "rhs evals" 98 s.rhs_evals;
  List.iter
    (fun (name, bits, v) -> Alcotest.(check int64) name bits (Int64.bits_of_float v))
    [
      ("transfers", 0x40198e62bfe44f6aL, s.transfers);
      ("departures", 0x3715c9a1d8e7f190L, s.departures);
      ("final_n", 0x412e861000000000L, s.final_n);
      ("time_avg_n", 0x412e8547fffffffeL, s.time_avg_n);
    ]

(* ---- grid samples from the dense output ---- *)

(* The fluid benchmark scenario: a million-peer K = 8 flash crowd. *)
let k8 = Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ]
let k8_config ?(faults = Faults.none) () =
  { (Sim_fluid.default_config k8) with initial = [ (PS.empty, 1e6) ]; faults }

let k8_dim = Fluid.dim k8

let density_total y =
  let acc = ref 0.0 in
  for i = 0 to k8_dim - 1 do
    acc := !acc +. Float.max 0.0 y.(i)
  done;
  !acc

(* The K = 8 state at every grid point [i * every] on [0, horizon],
   integrated by a bare session under [control].  With [dense], grid
   points inside an accepted step come from the step's interpolant, as
   Sim_fluid samples them; otherwise every grid point is a barrier the
   session lands on.  Seed-outage toggles, drawn from [seed] as the
   engine draws them, are barriers either way. *)
let grid_states ~control ~dense ?(faults = Faults.none) ~seed ~horizon ~every () =
  let kernel = Rate.kernel ~k:8 in
  let rhs us_scale _t y =
    let dy = Array.make (k8_dim + Fluid.aug_slots) 0.0 in
    Fluid.drift_into k8 ~kernel ~us_scale ~abort_rate:0.0 ~loss_factor:1.0 y dy;
    dy
  in
  let frun = Faults.start faults ~rng:(P2p_prng.Rng.of_seed seed) in
  let y0 = Array.make (k8_dim + Fluid.aug_slots) 0.0 in
  y0.(0) <- 1e6;
  let s = Ode.session ~control ~f:(rhs 1.0) ~t0:0.0 ~y0 () in
  let n = int_of_float (Float.round (horizon /. every)) + 1 in
  let grid i = float_of_int i *. every in
  let out = Array.make n [||] and next = ref 0 in
  let take ~before t at =
    while !next < n && (grid !next < t || ((not before) && grid !next = t)) do
      out.(!next) <- at (grid !next);
      incr next
    done
  in
  let live _ = Array.copy (Ode.state s) in
  take ~before:false 0.0 live;
  let on_step s = take ~before:true (Ode.time s) (Ode.dense_eval s) in
  let clock = ref 0.0 in
  while !clock < horizon do
    let toggle = Faults.next_toggle frun in
    let barrier = Float.min horizon (if dense then toggle else Float.min toggle (grid !next)) in
    ignore (Ode.advance ?on_step:(if dense then Some on_step else None) s ~to_:barrier);
    take ~before:false barrier live;
    if toggle <= barrier then begin
      Faults.toggle frun ~now:toggle;
      Ode.set_rhs s (rhs (if Faults.seed_up frun then 1.0 else 0.0))
    end;
    clock := barrier
  done;
  Faults.finish frun ~now:horizon;
  (s, out, Faults.outage_time frun)

let rel a b = Float.abs (a -. b) /. Float.abs b

(* Law: a Sim_fluid run at the default rtol 1e-6, sampling its 200-point
   grid from the dense output, against an rtol 1e-11 / atol 1e-12
   reference that lands on every grid point.  The dense replica is tied
   to the run (same steps, evaluations and rounded samples), so its float
   states are the run's.  Measured on the no-fault scenario: worst
   relative error in N 4.0e-6 (2.35e-6 when every grid point was a
   barrier), both at the requested rtol. *)
let check_dense_law ?faults ~seed () =
  let horizon = 100.0 and every = 0.5 in
  let s, _ = Sim_fluid.run_seeded ~seed (k8_config ?faults ()) ~horizon in
  let session, dense, outage =
    grid_states ~control:Ode.default_control ~dense:true ?faults ~seed ~horizon ~every ()
  in
  let _, reference, _ =
    grid_states ~control:(Ode.control ~rtol:1e-11 ~atol:1e-12 ()) ~dense:false ?faults ~seed
      ~horizon ~every ()
  in
  Alcotest.(check int) "replica steps" (Ode.steps session) s.Sim_fluid.steps;
  Alcotest.(check int) "replica rhs evals" (Ode.evals session) s.rhs_evals;
  Alcotest.(check (float 0.0)) "replica outage time" outage s.outage_time;
  Alcotest.(check int) "one sample per grid point" (Array.length dense) (Array.length s.samples);
  let worst_n = ref 0.0 and worst_x = ref 0.0 in
  Array.iteri
    (fun i (t, n) ->
      Alcotest.(check int64)
        (Printf.sprintf "sample %d time" i)
        (Int64.bits_of_float (float_of_int i *. every))
        (Int64.bits_of_float t);
      let y = dense.(i) and r = reference.(i) in
      Alcotest.(check int) (Printf.sprintf "sample %d is the replica's" i)
        (int_of_float (Float.round (density_total y))) n;
      let nr = density_total r in
      worst_n := Float.max !worst_n (rel (density_total y) nr);
      for c = 0 to k8_dim - 1 do
        worst_x := Float.max !worst_x (Float.abs (y.(c) -. r.(c)) /. nr)
      done)
    s.samples;
  let check_le name v bound =
    Alcotest.(check bool) (Printf.sprintf "%s %.3g <= %g" name v bound) true (v <= bound)
  in
  check_le "worst relative error in N" !worst_n 1e-5;
  check_le "worst type-density error / N" !worst_x 1e-5;
  let last = reference.(Array.length reference - 1) in
  let aug i = last.(k8_dim + i) in
  check_le "transfers" (rel s.transfers (aug Fluid.aug_transfers)) 1e-6;
  check_le "departures" (rel s.departures (aug Fluid.aug_departures)) 1e-6;
  check_le "integral of N" (rel (s.time_avg_n *. horizon) (aug Fluid.aug_pop_integral)) 1e-6

let test_dense_sampling_law () = check_dense_law ~seed:1 ()

(* Toggles stay barriers: the replica lands on each one, and the run
   takes exactly its steps. *)
let test_dense_sampling_outage_law () =
  let faults = Faults.make ~outage:(20.0, 5.0) () in
  let frun = Faults.start faults ~rng:(P2p_prng.Rng.of_seed 3) in
  Alcotest.(check bool) "toggles inside the horizon" true (Faults.next_toggle frun < 100.0);
  check_dense_law ~faults ~seed:3 ()

let probed_run ~rng ~interval ~horizon =
  let samples = ref [] in
  let probe = P2p_obs.Probe.make ~interval ~on_sample:(fun x -> samples := x :: !samples) () in
  let s, _ = Sim_fluid.run ~probe ~rng (k8_config ()) ~horizon in
  (s, List.rev !samples)

(* Grid density buys no steps: counts only, so load cannot flake it. *)
let test_grid_density_no_steps () =
  let short, _ = Sim_fluid.run_seeded ~seed:1 (k8_config ()) ~horizon:1e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "%d accepted steps to horizon 1e-3" short.Sim_fluid.steps)
    true (short.steps <= 10);
  let plain, _ = Sim_fluid.run_seeded ~seed:1 (k8_config ()) ~horizon:100.0 in
  let sweep jobs =
    let res, _ =
      P2p_runner.Runner.run_map ~jobs ~master_seed:5 ~replications:2 (fun ~rng ~index:_ ->
          probed_run ~rng ~interval:0.05 ~horizon:100.0)
    in
    Array.map Option.get res
  in
  let seq = sweep 1 and par = sweep 2 in
  Array.iteri
    (fun i (probed, series) ->
      Alcotest.(check int) "probed steps" plain.steps probed.Sim_fluid.steps;
      Alcotest.(check int) "probed rhs evals" plain.rhs_evals probed.rhs_evals;
      Alcotest.(check int) "probe rows" 2001 (List.length series);
      Alcotest.(check bool)
        (Printf.sprintf "rep %d series identical across jobs" i)
        true
        (series = snd par.(i)))
    seq

(* An [until] crossing inside a step records only the grid points before
   it from that step, and the stop state itself. *)
let test_until_mid_step () =
  let every = 0.5 and threshold = 1e5 in
  let s, _ =
    Sim_fluid.run_seeded ~seed:1 ~until:(fun ~time:_ ~total -> total <= threshold) (k8_config ())
      ~horizon:100.0
  in
  let tc = s.Sim_fluid.final_time in
  Alcotest.(check bool) "stopped" true s.stopped;
  Alcotest.(check int) "grid points through tc"
    (int_of_float (Float.floor (tc /. every)) + 1)
    (Array.length s.samples);
  Array.iteri
    (fun i (t, n) ->
      Alcotest.(check (float 0.0)) "grid time" (float_of_int i *. every) t;
      Alcotest.(check bool) "recorded before the crossing" true (t = tc || float_of_int n > threshold))
    s.samples

let test_bad_arguments () =
  let init = Fluid.of_state ~k:3 (State.create ()) in
  let rejects name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "wrong size" (fun () -> Fluid.derivative stable (Array.make 3 0.0));
  rejects "dt = 0" (fun () -> Fluid.integrate stable ~init ~dt:0.0 ~horizon:1.0 ~record_every:1);
  rejects "dt < 0" (fun () ->
      Fluid.integrate stable ~init ~dt:(-0.1) ~horizon:1.0 ~record_every:1);
  rejects "dt nan" (fun () ->
      Fluid.integrate stable ~init ~dt:Float.nan ~horizon:1.0 ~record_every:1);
  rejects "horizon nan" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:Float.nan ~record_every:1);
  rejects "horizon < 0" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:(-1.0) ~record_every:1);
  rejects "horizon infinite" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:infinity ~record_every:1);
  rejects "record_every = 0" (fun () ->
      Fluid.integrate stable ~init ~dt:0.1 ~horizon:1.0 ~record_every:0)

let () =
  Alcotest.run "fluid"
    [
      ( "fluid",
        [
          Alcotest.test_case "of_state" `Quick test_of_state;
          Alcotest.test_case "mass balance" `Quick test_derivative_mass_balance;
          Alcotest.test_case "mass balance gamma=inf" `Quick test_derivative_mass_balance_gamma_inf;
          Alcotest.test_case "matches generator drift" `Quick test_derivative_matches_generator_drift;
          Alcotest.test_case "integrate records" `Quick test_integrate_records;
          Alcotest.test_case "equilibrium stable" `Quick test_equilibrium_stable;
          Alcotest.test_case "no equilibrium transient" `Quick test_transient_no_equilibrium;
          Alcotest.test_case "linear growth" `Quick test_transient_linear_growth;
          Alcotest.test_case "nonnegativity" `Quick test_nonnegativity_preserved;
          Alcotest.test_case "equilibrium matches RK4 pinned" `Quick
            test_equilibrium_matches_rk4_pinned;
          Alcotest.test_case "two-chunk equilibrium pinned" `Quick
            test_two_chunk_equilibrium_pinned;
          Alcotest.test_case "grid times exact" `Quick test_grid_times_exact;
          Alcotest.test_case "K=8 million-peer golden" `Slow test_k8_golden;
          Alcotest.test_case "dense sampling law" `Slow test_dense_sampling_law;
          Alcotest.test_case "dense sampling law with outage" `Slow
            test_dense_sampling_outage_law;
          Alcotest.test_case "grid density buys no steps" `Slow test_grid_density_no_steps;
          Alcotest.test_case "until mid-step" `Quick test_until_mid_step;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
        ] );
    ]
