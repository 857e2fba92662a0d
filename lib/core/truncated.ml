module Pieceset = P2p_pieceset.Pieceset

(* A state counts the proper types C in slot [C] (they fill slots
   0 .. 2^K - 2), then peer seeds by Erlang stage from slot [full]
   = 2^K - 1; at gamma = inf there is no seed slot. *)
type t = {
  n_max : int;
  full : int;
  seeds : int;  (* seed slots: the Erlang stages, 0 at gamma = inf *)
  space : Balance.space;
  rows : Balance.sparse;
}

(* The peer seeds of a state, over every stage. *)
let seed_count v ~full ~seeds =
  let s = ref 0 in
  for j = full to full + seeds - 1 do
    s := !s + v.(j)
  done;
  !s

let build ?(stages = 1) (params : Params.t) ~n_max =
  if stages < 1 then invalid_arg "Truncated.build: stages must be >= 1";
  let immediate = Params.immediate_departure params in
  if immediate && stages > 1 then invalid_arg "Truncated.build: Erlang stages need finite gamma";
  let k = params.k in
  let full = Pieceset.to_index (Params.full_set params) in
  let seeds = if immediate then 0 else stages in
  let space = Balance.space ~who:"Truncated.build" ~dims:(full + seeds) ~n_max in
  let stage_rate = float_of_int stages *. params.gamma in
  let kernel = Rate.kernel ~k and x = Array.make (full + 1) 0.0 in
  let rows =
    Balance.rows space (fun v n emit ->
        (* Eq. (1) sees the seeds of every stage as type-F peers *)
        for c = 0 to full - 1 do
          x.(c) <- float_of_int v.(c)
        done;
        x.(full) <- float_of_int (seed_count v ~full ~seeds);
        let gammas = Rate.gammas params kernel x ~n:(float_of_int n) in
        Array.iter (fun (c, rate) -> emit ~from_:(-1) ~to_:(Pieceset.to_index c) rate) params.arrivals;
        for c = 0 to full - 1 do
          if v.(c) > 0 then
            Pieceset.iter
              (fun piece ->
                let rate = gammas.((c * k) + piece) in
                let target = c lor (1 lsl piece) in
                if rate > 0.0 then
                  emit ~from_:c ~to_:(if target = full && immediate then -1 else target) rate)
              (Pieceset.complement ~k (Pieceset.of_index c))
        done;
        for j = full to full + seeds - 1 do
          if v.(j) > 0 then
            emit ~from_:j
              ~to_:(if j < full + seeds - 1 then j + 1 else -1)
              (stage_rate *. float_of_int v.(j))
        done)
  in
  { n_max; full; seeds; space; rows }

let state_count t = Balance.size t.space
let space t = t.space
let rows t = t.rows

let stationary ?tol ?max_iters t = Balance.stationary ?tol ?max_sweeps:max_iters t.space t.rows

let mean_population t pi = Balance.expect t.space pi (fun _ n -> float_of_int n)

let population_tail t pi ~at_least =
  Balance.expect t.space pi (fun _ n -> if n >= at_least then 1.0 else 0.0)

(* The count of type c in a state: a proper type's slot, or the seeds
   summed over their stages; 0 for a type the chain does not carry. *)
let type_count t c v =
  let c = Pieceset.to_index c in
  if c < t.full then v.(c) else if c = t.full then seed_count v ~full:t.full ~seeds:t.seeds else 0

let mean_type_count t pi c = Balance.expect t.space pi (fun v _ -> float_of_int (type_count t c v))

(* The empty state is the zero vector, rank 0. *)
let probability_empty _ pi = pi.(0)

let truncation_mass_at_cap t pi =
  Balance.expect t.space pi (fun _ n -> if n = t.n_max then 1.0 else 0.0)

let mean_hitting_time_to_empty ?tol ?max_sweeps t ~from_ =
  let fail why = invalid_arg ("Truncated.mean_hitting_time_to_empty: " ^ why) in
  let v = Array.make (t.full + t.seeds) 0 in
  List.iter
    (fun (c, count) ->
      let c = Pieceset.to_index c in
      if count < 0 then fail "negative count";
      if c > t.full || (c = t.full && t.seeds = 0) then fail "start not enumerated";
      v.(c) <- v.(c) + count)
    from_;
  if Array.fold_left ( + ) 0 v > t.n_max then fail "start exceeds the cap";
  Balance.time_to_empty ?tol ?max_sweeps t.space t.rows ~start:(Balance.rank t.space v)

let return_time_to_empty t pi =
  let p_empty = probability_empty t pi in
  (* the empty state's total outflow is the arrival rate *)
  let out_empty = Array.fold_left ( +. ) 0.0 t.rows.rates.(0) in
  if p_empty <= 0.0 || out_empty <= 0.0 then infinity
  else 1.0 /. (p_empty *. out_empty)
