module Pieceset = P2p_pieceset.Pieceset

type result = {
  states_explored : int;
  truncated : bool;
  types_seen : Pieceset.t list;
}

let explore ?(policy = Policy.random_useful) ?(max_states = 500_000) (p : Params.t) ~n_max =
  if n_max < 1 then invalid_arg "Reachability.explore: n_max must be >= 1";
  (* states are keyed by their sorted (type, count) list *)
  let visited = Hashtbl.create 4096 in
  let types_seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let start = State.create () in
  Hashtbl.replace visited (State.to_alist start) ();
  Queue.push start queue;
  let explored = ref 0 in
  let truncated = ref false in
  while not (Queue.is_empty queue) do
    let state = Queue.pop queue in
    incr explored;
    State.iter state (fun c _ -> Hashtbl.replace types_seen c ());
    if !explored >= max_states then begin
      truncated := true;
      Queue.clear queue
    end
    else
      List.iter
        (fun (from_, to_, rate) ->
          (* no arrivals at the cap *)
          if rate > 0.0 && (from_ >= 0 || State.n state < n_max) then begin
            let next = State.copy state in
            State.apply_move next ~from_ ~to_;
            let key = State.to_alist next in
            if not (Hashtbl.mem visited key) then begin
              Hashtbl.replace visited key ();
              Queue.push next queue
            end
          end)
        (Rate.transitions ~policy p state)
  done;
  let types =
    Hashtbl.fold (fun c () acc -> c :: acc) types_seen []
    |> List.sort Pieceset.compare
  in
  { states_explored = !explored; truncated = !truncated; types_seen = types }

let prefix_types_only ~k types =
  List.for_all
    (fun c ->
      let card = Pieceset.cardinal c in
      card <= k && Pieceset.equal c (if card = 0 then Pieceset.empty else Pieceset.of_list (List.init card (fun i -> i))))
    types

let all_types_reachable ~k types =
  List.length types = 1 lsl k
  && List.for_all (fun c -> Pieceset.subset c (Pieceset.full ~k)) types
