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
   what such changes may move against an rtol 1e-11 reference.  The input
   is symmetric, so the run goes through explicit 2^K init densities
   (the same start, bit for bit) to stay on the 2^K layout it pins. *)
let test_k8_golden () =
  let p = Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ] in
  let control = Ode.control ~rtol:1e-6 ~atol:1e-9 () in
  let config = { (Sim_fluid.default_config p) with control } in
  let init = Array.make 256 0.0 in
  init.(0) <- 1e6;
  let s, _ = Sim_fluid.run_seeded ~seed:1 ~init config ~horizon:2.0 in
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

(* The same input on its default S_7 orbit layout (16 masses), pinned
   once "orbit = 2^K trajectory" held the layouts within 1e-9 of each
   other at rtol 1e-12. *)
let test_k8_orbit_golden () =
  let p = Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ] in
  let control = Ode.control ~rtol:1e-6 ~atol:1e-9 () in
  let config = { (Sim_fluid.default_config p) with initial = [ (PS.empty, 1e6) ]; control } in
  let s, _ = Sim_fluid.run_seeded ~seed:1 config ~horizon:2.0 in
  Alcotest.(check bool) "orbit layout" true (s.Sim_fluid.layout = Sim_fluid.Orbits 0);
  Alcotest.(check int) "steps" 17 s.steps;
  Alcotest.(check int) "rejected steps" 0 s.rejected_steps;
  Alcotest.(check int) "rhs evals" 104 s.rhs_evals;
  List.iter
    (fun (name, bits, v) -> Alcotest.(check int64) name bits (Int64.bits_of_float v))
    [
      ("transfers", 0x40198e61fcc1ea52L, s.transfers);
      ("departures", 0x3715c9377058a671L, s.departures);
      ("final_n", 0x412e860fffffffffL, s.final_n);
      ("time_avg_n", 0x412e854800000000L, s.time_avg_n);
    ]

(* ---- grid samples from the dense output ---- *)

(* The fluid benchmark scenario: a million-peer K = 8 flash crowd. *)
let k8 = Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ]
let k8_config ?(faults = Faults.none) () =
  { (Sim_fluid.default_config k8) with initial = [ (PS.empty, 1e6) ]; faults }

let k8_dim = Fluid.dim k8

(* The same start as explicit densities: keeps a run on the 2^K layout. *)
let k8_init =
  let x = Array.make k8_dim 0.0 in
  x.(0) <- 1e6;
  x

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
   barrier), both at the requested rtol.  The run is held to the 2^K
   layout (explicit init densities), which its replica integrates; the
   same input on its default orbit layout is held to the same bounds. *)
let check_dense_law ?faults ~seed () =
  let horizon = 100.0 and every = 0.5 in
  let s, _ = Sim_fluid.run_seeded ~seed ~init:k8_init (k8_config ?faults ()) ~horizon in
  let orbit, _ = Sim_fluid.run_seeded ~seed (k8_config ?faults ()) ~horizon in
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
  Alcotest.(check int) "orbit run: one sample per grid point" (Array.length reference)
    (Array.length orbit.samples);
  (* Its samples are rounded: half a peer of slack on top of the bound. *)
  let worst_orbit_n = ref 0.0 in
  Array.iteri
    (fun i (_, n) ->
      let nr = density_total reference.(i) in
      let gap = Float.max 0.0 (Float.abs (float_of_int n -. nr) -. 0.5) in
      worst_orbit_n := Float.max !worst_orbit_n (gap /. nr))
    orbit.samples;
  check_le "orbit run: worst relative error in N beyond rounding" !worst_orbit_n 1e-5;
  let last = reference.(Array.length reference - 1) in
  let aug i = last.(k8_dim + i) in
  List.iter
    (fun (run, (r : Sim_fluid.stats)) ->
      check_le (run ^ "transfers") (rel r.transfers (aug Fluid.aug_transfers)) 1e-6;
      check_le (run ^ "departures") (rel r.departures (aug Fluid.aug_departures)) 1e-6;
      check_le (run ^ "integral of N")
        (rel (r.time_avg_n *. horizon) (aug Fluid.aug_pop_integral))
        1e-6)
    [ ("", s); ("orbit run: ", orbit) ]

let test_dense_sampling_law () = check_dense_law ~seed:1 ()

(* Toggles stay barriers: the replica lands on each one, and the run
   takes exactly its steps. *)
let test_dense_sampling_outage_law () =
  let faults = Faults.make ~outage:(20.0, 5.0) () in
  let frun = Faults.start faults ~rng:(P2p_prng.Rng.of_seed 3) in
  Alcotest.(check bool) "toggles inside the horizon" true (Faults.next_toggle frun < 100.0);
  check_dense_law ~faults ~seed:3 ()

let probed_run ?init ~rng ~interval ~horizon () =
  let samples = ref [] in
  let probe = P2p_obs.Probe.make ~interval ~on_sample:(fun x -> samples := x :: !samples) () in
  let s, _ = Sim_fluid.run ~probe ?init ~rng (k8_config ()) ~horizon in
  (s, List.rev !samples)

(* The two layouts one K = 8 input can take: its own (orbits) and, by
   explicit init densities, the 2^K types. *)
let k8_layouts = [ ("orbits", None); ("2^K", Some k8_init) ]

(* Grid density buys no steps, on either layout: counts only, so load
   cannot flake it. *)
let test_grid_density_no_steps () =
  List.iter
    (fun (layout, init) ->
      let short, _ = Sim_fluid.run_seeded ~seed:1 ?init (k8_config ()) ~horizon:1e-3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d accepted steps to horizon 1e-3" layout short.Sim_fluid.steps)
        true (short.steps <= 10);
      let plain, _ = Sim_fluid.run_seeded ~seed:1 ?init (k8_config ()) ~horizon:100.0 in
      Alcotest.(check bool) (layout ^ ": layout") (init = None)
        (plain.layout <> Sim_fluid.Types);
      let sweep jobs =
        let res, _ =
          P2p_runner.Runner.run_map ~jobs ~master_seed:5 ~replications:2 (fun ~rng ~index:_ ->
              probed_run ?init ~rng ~interval:0.05 ~horizon:100.0 ())
        in
        Array.map Option.get res
      in
      let seq = sweep 1 and par = sweep 2 in
      Array.iteri
        (fun i (probed, series) ->
          Alcotest.(check int) (layout ^ ": probed steps") plain.steps probed.Sim_fluid.steps;
          Alcotest.(check int) (layout ^ ": probed rhs evals") plain.rhs_evals probed.rhs_evals;
          Alcotest.(check int) (layout ^ ": probe rows") 2001 (List.length series);
          Alcotest.(check bool)
            (Printf.sprintf "%s: rep %d series identical across jobs" layout i)
            true
            (series = snd par.(i)))
        seq)
    k8_layouts

(* An [until] crossing inside a step records only the grid points before
   it from that step, and the stop state itself, on either layout. *)
let test_until_mid_step () =
  let every = 0.5 and threshold = 1e5 in
  List.iter
    (fun (layout, init) ->
      let s, _ =
        Sim_fluid.run_seeded ~seed:1 ?init
          ~until:(fun ~time:_ ~total -> total <= threshold)
          (k8_config ()) ~horizon:100.0
      in
      let tc = s.Sim_fluid.final_time in
      Alcotest.(check bool) (layout ^ ": layout") (init = None) (s.layout <> Sim_fluid.Types);
      Alcotest.(check bool) (layout ^ ": stopped") true s.stopped;
      Alcotest.(check int) (layout ^ ": grid points through tc")
        (int_of_float (Float.floor (tc /. every)) + 1)
        (Array.length s.samples);
      Array.iteri
        (fun i (t, n) ->
          Alcotest.(check (float 0.0)) "grid time" (float_of_int i *. every) t;
          Alcotest.(check bool) "recorded before the crossing" true
            (t = tc || float_of_int n > threshold))
        s.samples)
    k8_layouts

(* ---- the S_{K−1} orbit layout ---- *)

let u = epsilon_float /. 2.0

(* A random orbit state around [piece]: some orbits empty, masses over
   six decades; [symmetric] makes y depend on |C| alone (no distinguished
   piece: y_{0,b} = y_{1,b−1}). *)
let random_orbit_state rs ~k ~symmetric =
  let z = Array.make (2 * k) 0.0 in
  let binom n m =
    let r = ref 1.0 in
    for i = 1 to m do
      r := !r *. float_of_int (n - m + i) /. float_of_int i
    done;
    !r
  in
  let draw () = if Random.State.int rs 4 = 0 then 0.0 else 10.0 ** Random.State.float rs 6.0 in
  if symmetric then begin
    let y = Array.init (k + 1) (fun _ -> draw ()) in
    for b = 0 to k - 1 do
      z.(b) <- y.(b) *. binom (k - 1) b;
      z.(k + b) <- y.(b + 1) *. binom (k - 1) b
    done
  end
  else Array.iteri (fun i _ -> z.(i) <- draw ()) z;
  z

(* Eq. (1) on the 2^K state an orbit state stands for, summed over each
   orbit, against the orbit flows, within the rounding bound of both
   sides: Rate.gammas' (K + 2^(K−1) + 8)u per Γ, the 2^K-term orbit sums,
   and the O(K) adds of the orbit side.  Every term is nonnegative, so
   the bound is relative. *)
let test_orbit_gammas_match () =
  let rs = Random.State.make [| 36 |] in
  for k = 1 to 10 do
    List.iter
      (fun (symmetric, us_scale, gamma) ->
        let piece = Random.State.int rs k in
        let p = Params.make ~k ~us:0.7 ~mu:1.3 ~gamma ~arrivals:[ (PS.empty, 1.0) ] in
        let o = Fluid.orbits p ~piece in
        let z = random_orbit_state rs ~k ~symmetric in
        let x = Fluid.orbit_densities o z in
        let n = Fluid.total x in
        let g = Array.copy (Fluid.orbit_gammas ~us_scale o p z ~n) in
        let gam = Rate.gammas ~us_scale p (Rate.kernel ~k) x ~n in
        let by_q = Array.make (2 * k) 0.0 and by_other = Array.make (2 * k) 0.0 in
        Array.iteri
          (fun c _ ->
            let i = Fluid.orbit_index ~k ~piece (PS.of_index c) in
            for j = 0 to k - 1 do
              let v = gam.((c * k) + j) in
              if j = piece then by_q.(i) <- by_q.(i) +. v else by_other.(i) <- by_other.(i) +. v
            done)
          x;
        let tol = float_of_int (k + (1 lsl k) + (1 lsl (k - 1)) + (16 * k) + 16) *. u in
        for i = 0 to (2 * k) - 1 do
          List.iter
            (fun (what, lumped, orbit) ->
              let err = Float.abs (lumped -. orbit) in
              if err > tol *. Float.max (Float.abs lumped) (Float.abs orbit) then
                Alcotest.failf "K=%d q=%d orbit %d %s: 2^K %.17g, orbits %.17g (%.2g u)" k piece
                  i what lumped orbit (err /. Float.abs lumped /. u))
            [ ("by q", by_q.(i), g.(i)); ("by another piece", by_other.(i), g.((2 * k) + i)) ]
        done)
      [ (false, 1.0, infinity); (true, 1.0, 2.0); (false, 0.0, 2.0); (true, 0.0, infinity) ]
  done

(* The whole right-hand side, faults included: the orbit drift against
   the 2^K drift summed over orbits, relative to the largest flow. *)
let test_orbit_drift_matches_lumped () =
  let rs = Random.State.make [| 8 |] in
  for k = 1 to 9 do
    List.iter
      (fun (symmetric, us_scale, abort_rate, loss_factor, gamma) ->
        let piece = Random.State.int rs k in
        let extra = if symmetric then PS.full ~k else PS.singleton piece in
        let extra =
          if Float.is_finite gamma || not (PS.equal extra (PS.full ~k)) then [ (extra, 0.5) ]
          else []
        in
        let p = Params.make ~k ~us:0.4 ~mu:1.1 ~gamma ~arrivals:((PS.empty, 2.0) :: extra) in
        let o = Fluid.orbits p ~piece in
        let z = random_orbit_state rs ~k ~symmetric in
        let x = Fluid.orbit_densities o z in
        let d = 1 lsl k in
        let dx = Array.make (d + Fluid.aug_slots) 0.0 in
        Fluid.drift_into p ~us_scale ~abort_rate ~loss_factor x dx;
        let dz = Array.make ((2 * k) + Fluid.aug_slots) 0.0 in
        Fluid.orbit_drift_into o p ~us_scale ~abort_rate ~loss_factor z dz;
        let lumped = Array.make (2 * k) 0.0 in
        for c = 0 to d - 1 do
          let i = Fluid.orbit_index ~k ~piece (PS.of_index c) in
          lumped.(i) <- lumped.(i) +. dx.(c)
        done;
        let scale = dx.(d + Fluid.aug_transfers) +. dx.(d + Fluid.aug_departures) +. 10.0 in
        let tol = 1e-12 *. scale in
        Array.iteri
          (fun i v ->
            if Float.abs (v -. dz.(i)) > tol then
              Alcotest.failf "K=%d orbit %d: lumped drift %.17g, orbit drift %.17g" k i v dz.(i))
          lumped;
        for a = 0 to Fluid.aug_slots - 1 do
          let v = dx.(d + a) and w = dz.((2 * k) + a) in
          if Float.abs (v -. w) > 1e-12 *. Float.max 1.0 (Float.abs v) then
            Alcotest.failf "K=%d augmented slot %d: 2^K %.17g, orbits %.17g" k a v w
        done)
      [
        (false, 1.0, 0.0, 1.0, infinity);
        (true, 1.0, 0.3, 0.7, 2.0);
        (false, 0.0, 0.3, 1.0, 3.0);
        (true, 0.0, 0.0, 0.6, infinity);
      ]
  done

let layout_of ~k ?(initial = []) arrivals =
  let p = Params.make ~k ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals in
  Sim_fluid.layout { (Sim_fluid.default_config p) with initial }

let test_orbit_layout_choice () =
  let check name want got =
    let show = function Sim_fluid.Types -> "types" | Orbits q -> Printf.sprintf "orbits %d" q in
    Alcotest.(check string) name (show want) (show got)
  in
  let open Sim_fluid in
  check "none=λ, none=m: fully symmetric" (Orbits 0)
    (layout_of ~k:8 ~initial:[ (PS.empty, 1e6) ] [ (PS.empty, 100.0) ]);
  check "one-club start of piece 2" (Orbits 1)
    (layout_of ~k:3 ~initial:[ (PS.of_list [ 0; 2 ], 100.0) ] [ (PS.empty, 2.0) ]);
  check "symmetric singletons" (Orbits 0)
    (layout_of ~k:5 (List.init 5 (fun i -> (PS.singleton i, 0.5))));
  check "two singletons fix the third piece" (Orbits 2)
    (layout_of ~k:3 [ (PS.singleton 0, 1.0); (PS.singleton 1, 1.0) ]);
  check "unequal rates in one orbit" Types
    (layout_of ~k:3 [ (PS.singleton 0, 1.0); (PS.singleton 1, 2.0) ]);
  check "-a 1,3=5: not invariant" Types (layout_of ~k:4 [ (PS.of_list [ 0; 2 ], 5.0) ]);
  check "at K = 62, a one-club start" (Orbits 61)
    (layout_of ~k:62 ~initial:[ (PS.remove 61 (PS.full ~k:62), 1.0) ] [ (PS.empty, 1.0) ]);
  let p = Params.make ~k:3 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 1.0) ] in
  let s, _ =
    Sim_fluid.run_seeded ~seed:1 ~init:(Array.make 8 1.0) (Sim_fluid.default_config p)
      ~horizon:1.0
  in
  check "explicit init densities" Types s.layout

(* The orbit and 2^K trajectories at rtol 1e-12, sampled on the grid
   [i * every] (each grid point a barrier of a bare session), lumped
   2^K state against orbit masses: each orbit mass relative to itself,
   or to 1e-6 N when smaller. *)
let orbit_agreement ~name (p : Params.t) ~initial ~horizon ~every =
  let control = Ode.control ~rtol:1e-12 ~atol:1e-12 () in
  let piece =
    match Sim_fluid.layout { (Sim_fluid.default_config p) with initial } with
    | Sim_fluid.Orbits q -> q
    | Types -> Alcotest.failf "%s: input should be invariant" name
  in
  let k = p.k and d = Fluid.dim p in
  let o = Fluid.orbits p ~piece in
  let kernel = Rate.kernel ~k in
  let trajectory dim slot drift =
    let y0 = Array.make (dim + Fluid.aug_slots) 0.0 in
    List.iter (fun (set, m) -> y0.(slot set) <- y0.(slot set) +. m) initial;
    let f _t y =
      let dy = Array.make (dim + Fluid.aug_slots) 0.0 in
      drift y dy;
      dy
    in
    let s = Ode.session ~control ~f ~t0:0.0 ~y0 () in
    let n = int_of_float (Float.round (horizon /. every)) in
    Array.init (n + 1) (fun i ->
        ignore (Ode.advance s ~to_:(float_of_int i *. every));
        Array.copy (Ode.state s))
  in
  let types =
    trajectory d PS.to_index
      (Fluid.drift_into p ~kernel ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0)
  in
  let orbits =
    trajectory (2 * k) (Fluid.orbit_index ~k ~piece)
      (Fluid.orbit_drift_into o p ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0)
  in
  let worst = ref 0.0 in
  Array.iteri
    (fun g x ->
      let z = orbits.(g) in
      let lumped = Array.make (2 * k) 0.0 in
      for c = 0 to d - 1 do
        let i = Fluid.orbit_index ~k ~piece (PS.of_index c) in
        lumped.(i) <- lumped.(i) +. x.(c)
      done;
      let n = Array.fold_left ( +. ) 0.0 lumped in
      Array.iteri
        (fun i v ->
          let rel = Float.abs (v -. z.(i)) /. Float.max (Float.abs v) (1e-6 *. n) in
          worst := Float.max !worst rel)
        lumped;
      for a = 0 to Fluid.aug_slots - 1 do
        let v = x.(d + a) and w = z.((2 * k) + a) in
        worst := Float.max !worst (Float.abs (v -. w) /. Float.max 1e-6 (Float.abs v))
      done)
    types;
  Alcotest.(check bool)
    (Printf.sprintf "%s: worst relative gap %.3g <= 1e-9" name !worst)
    true (!worst <= 1e-9)

let test_orbit_agreement_mega () =
  orbit_agreement ~name:"K = 8 million-peer crowd"
    (Params.make ~k:8 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 100.0) ])
    ~initial:[ (PS.empty, 1e6) ] ~horizon:100.0 ~every:0.5

let syndrome = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity

let test_orbit_agreement_one_club () =
  orbit_agreement ~name:"syndrome point, --init 1,3=100" syndrome
    ~initial:[ (PS.of_list [ 0; 2 ], 100.0) ] ~horizon:400.0 ~every:2.0

(* Sim_fluid itself on both layouts at rtol 1e-12: the orbit run's final
   state, expanded to 2^K, and its exact integrals against the same run
   forced onto the 2^K layout by explicit init densities. *)
let test_orbit_run_matches_types_run () =
  let control = Ode.control ~rtol:1e-12 ~atol:1e-12 () in
  let config = { (k8_config ()) with control } in
  let init = Array.make k8_dim 0.0 in
  init.(0) <- 1e6;
  let horizon = 20.0 in
  let a, xa = Sim_fluid.run_seeded ~seed:1 config ~horizon in
  let b, xb = Sim_fluid.run_seeded ~seed:1 ~init config ~horizon in
  Alcotest.(check bool) "orbit layout ran" true (a.layout = Sim_fluid.Orbits 0);
  Alcotest.(check bool) "types layout ran" true (b.layout = Sim_fluid.Types);
  let n = b.final_n in
  Array.iteri
    (fun c v ->
      if Float.abs (v -. xb.(c)) > 1e-9 *. Float.max (Float.abs xb.(c)) (1e-6 *. n) then
        Alcotest.failf "type %d: orbits %.17g, 2^K %.17g" c v xb.(c))
    xa;
  List.iter
    (fun (name, v, w) ->
      Alcotest.(check bool) (Printf.sprintf "%s %.17g ~ %.17g" name v w) true
        (rel v w <= 1e-9))
    [
      ("final N", a.final_n, b.final_n);
      ("transfers", a.transfers, b.transfers);
      ("departures", a.departures, b.departures);
      ("time-avg N", a.time_avg_n, b.time_avg_n);
    ]

(* Theorem 1 as a fluid number: from the binding piece's one-club, the
   orbit fluid grows at Δ = λ − U_s/(1 − μ/γ) within 1% outside the
   region and drains (non-positive) inside it, at K = 3, 8 and 50. *)
let test_one_club_slope () =
  List.iter
    (fun (k, lambda, gamma) ->
      let p = Scenario.flash_crowd ~k ~lambda ~us:0.3 ~mu:2.0 ~gamma in
      let piece = Stability.binding_piece p in
      let delta = Stability.delta p ~s:(PS.remove piece (PS.full ~k)) in
      let mass = 4e6 *. Float.max 1.0 (Float.abs delta) in
      match Sim_fluid.one_club_slope ~mass p ~piece with
      | None -> Alcotest.failf "K=%d: no orbit run" k
      | Some slope ->
          let name =
            Printf.sprintf "K=%d λ=%g γ=%g: slope %.6g, Δ %.6g" k lambda gamma slope delta
          in
          if delta > 0.0 then
            Alcotest.(check bool) name true (Float.abs (slope -. delta) <= 0.01 *. delta)
          else Alcotest.(check bool) name true (slope <= 0.0))
    [
      (3, 2.0, infinity);
      (3, 0.25, infinity);
      (3, 2.0, 4.0);
      (8, 2.0, infinity);
      (8, 0.6, infinity);
      (8, 0.2, infinity);
      (50, 2.0, infinity);
      (50, 0.4, infinity);
      (50, 0.25, infinity);
    ]

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
          Alcotest.test_case "K=8 million-peer orbit golden" `Quick test_k8_orbit_golden;
          Alcotest.test_case "dense sampling law" `Slow test_dense_sampling_law;
          Alcotest.test_case "dense sampling law with outage" `Slow
            test_dense_sampling_outage_law;
          Alcotest.test_case "grid density buys no steps" `Slow test_grid_density_no_steps;
          Alcotest.test_case "until mid-step" `Quick test_until_mid_step;
          Alcotest.test_case "orbit flows = Rate.gammas summed" `Quick test_orbit_gammas_match;
          Alcotest.test_case "orbit drift = 2^K drift lumped" `Quick
            test_orbit_drift_matches_lumped;
          Alcotest.test_case "orbit layout choice" `Quick test_orbit_layout_choice;
          Alcotest.test_case "orbit = 2^K trajectory, K=8 crowd" `Slow test_orbit_agreement_mega;
          Alcotest.test_case "orbit = 2^K trajectory, one-club" `Quick
            test_orbit_agreement_one_club;
          Alcotest.test_case "orbit run = 2^K run" `Slow test_orbit_run_matches_types_run;
          Alcotest.test_case "one-club slope = Delta" `Quick test_one_club_slope;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
        ] );
    ]
