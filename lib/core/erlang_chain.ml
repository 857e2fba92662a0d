module Pieceset = P2p_pieceset.Pieceset

type t = {
  params : Params.t;
  m : int;  (* Erlang stages *)
  n_max : int;
  proper : Pieceset.t array;  (* the 2^K - 1 non-full types *)
  states : int array array;  (* counts: proper types ++ m seed stages *)
  targets : int array array;
  rates : float array array;
  pop : int array;  (* total population per state *)
}

let count_states ~num_types ~n_max =
  let acc = ref 1.0 in
  for i = 1 to num_types do
    acc := !acc *. float_of_int (n_max + i) /. float_of_int i
  done;
  !acc

let build (params : Params.t) ~stages ~n_max =
  if stages < 1 then invalid_arg "Erlang_chain.build: stages must be >= 1";
  if Params.immediate_departure params then
    invalid_arg "Erlang_chain.build: needs finite gamma";
  if n_max < 1 then invalid_arg "Erlang_chain.build: n_max must be >= 1";
  let proper = Array.of_list (Pieceset.all_proper ~k:params.k) in
  let np = Array.length proper in
  let num_types = np + stages in
  if count_states ~num_types ~n_max > 2_000_000.0 then
    invalid_arg "Erlang_chain.build: state space too large";
  (* enumerate compositions *)
  let states = ref [] in
  let current = Array.make num_types 0 in
  let rec fill pos remaining =
    if pos = num_types then states := Array.copy current :: !states
    else
      for v = 0 to remaining do
        current.(pos) <- v;
        fill (pos + 1) (remaining - v)
      done
  in
  fill 0 n_max;
  let states = Array.of_list (List.rev !states) in
  let index = Hashtbl.create (2 * Array.length states) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) states;
  let full = Params.full_set params in
  let stage_rate = float_of_int stages *. params.gamma in
  let kernel = Rate.kernel ~k:params.k and x = Array.make (1 lsl params.k) 0.0 in
  let n_states = Array.length states in
  let targets = Array.make n_states [||] in
  let rates = Array.make n_states [||] in
  let pop = Array.map (Array.fold_left ( + ) 0) states in
  let proper_index = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace proper_index (Pieceset.to_index c) i) proper;
  Array.iteri
    (fun si vec ->
      let n = pop.(si) in
      (* the piece-transfer rates see seeds (all stages) as type-F peers *)
      Array.iteri (fun i c -> x.(Pieceset.to_index c) <- float_of_int vec.(i)) proper;
      x.(Pieceset.to_index full) <-
        float_of_int (Array.fold_left ( + ) 0 (Array.sub vec np stages));
      let gammas = Rate.gammas params kernel x ~n:(float_of_int n) in
      let row = ref [] in
      let push vec' rate = row := (Hashtbl.find index vec', rate) :: !row in
      (* arrivals (rejected at the cap) *)
      if n < n_max then
        Array.iter
          (fun (c, rate) ->
            let vec' = Array.copy vec in
            if Pieceset.equal c full then vec'.(np) <- vec'.(np) + 1
            else begin
              let i = Hashtbl.find proper_index (Pieceset.to_index c) in
              vec'.(i) <- vec'.(i) + 1
            end;
            push vec' rate)
          params.arrivals;
      (* piece transfers: Eq. (1) with seeds aggregated as type F *)
      Array.iteri
        (fun i c ->
          if vec.(i) > 0 then
            Pieceset.iter
              (fun piece ->
                let rate = gammas.((Pieceset.to_index c * params.k) + piece) in
                if rate > 0.0 then begin
                  let target = Pieceset.add piece c in
                  let vec' = Array.copy vec in
                  vec'.(i) <- vec'.(i) - 1;
                  if Pieceset.equal target full then vec'.(np) <- vec'.(np) + 1
                  else begin
                    let j = Hashtbl.find proper_index (Pieceset.to_index target) in
                    vec'.(j) <- vec'.(j) + 1
                  end;
                  push vec' rate
                end)
              (Pieceset.complement ~k:params.k c))
        proper;
      (* seed stage progression and final departure *)
      for s = 0 to stages - 1 do
        let here = vec.(np + s) in
        if here > 0 then begin
          let vec' = Array.copy vec in
          vec'.(np + s) <- here - 1;
          if s < stages - 1 then vec'.(np + s + 1) <- vec'.(np + s + 1) + 1;
          push vec' (stage_rate *. float_of_int here)
        end
      done;
      targets.(si) <- Array.of_list (List.rev_map fst !row);
      rates.(si) <- Array.of_list (List.rev_map snd !row))
    states;
  { params; m = stages; n_max; proper; states; targets; rates; pop }

let state_count t = Array.length t.states
let stages t = t.m

type solved = { mean_n : float; mean_seeds : float; mass_at_cap : float; p_empty : float }

let solve ?tol t =
  let pi =
    Balance.solve ?tol { Balance.targets = t.targets; rates = t.rates } ~sweep_key:t.pop
  in
  let np = Array.length t.proper in
  let mean_n = ref 0.0 and mean_seeds = ref 0.0 and cap = ref 0.0 and empty = ref 0.0 in
  Array.iteri
    (fun i p ->
      mean_n := !mean_n +. (p *. float_of_int t.pop.(i));
      let seeds = ref 0 in
      for s = 0 to t.m - 1 do
        seeds := !seeds + t.states.(i).(np + s)
      done;
      mean_seeds := !mean_seeds +. (p *. float_of_int !seeds);
      if t.pop.(i) = t.n_max then cap := !cap +. p;
      if t.pop.(i) = 0 then empty := !empty +. p)
    pi;
  { mean_n = !mean_n; mean_seeds = !mean_seeds; mass_at_cap = !cap; p_empty = !empty }
