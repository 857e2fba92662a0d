module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist

(* Per-node neighbor set: dense array for O(1) uniform sampling plus a
   position table for O(1) removal. *)
type node_entry = {
  mutable neigh : int array;
  mutable len : int;
  pos : (int, int) Hashtbl.t;
}

type t = {
  nodes : (int, node_entry) Hashtbl.t;
  mutable node_list : int array;  (* dense list of node ids *)
  mutable node_len : int;
  node_slot : (int, int) Hashtbl.t;  (* id -> index in node_list *)
  mutable edges : int;
}

let create () =
  {
    nodes = Hashtbl.create 64;
    node_list = Array.make 16 0;
    node_len = 0;
    node_slot = Hashtbl.create 64;
    edges = 0;
  }

let node_count t = t.node_len
let edge_count t = t.edges

let entry t id =
  match Hashtbl.find_opt t.nodes id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Adjacency: unknown node %d" id)

let mem_edge t a b =
  match Hashtbl.find_opt t.nodes a with
  | None -> false
  | Some e -> Hashtbl.mem e.pos b

let add_node t id =
  if id < 0 then invalid_arg "Adjacency.add_node: negative id";
  if Hashtbl.mem t.nodes id then
    invalid_arg (Printf.sprintf "Adjacency.add_node: node %d exists" id);
  Hashtbl.replace t.nodes id { neigh = Array.make 4 0; len = 0; pos = Hashtbl.create 8 };
  if t.node_len = Array.length t.node_list then begin
    let bigger = Array.make (2 * t.node_len) 0 in
    Array.blit t.node_list 0 bigger 0 t.node_len;
    t.node_list <- bigger
  end;
  t.node_list.(t.node_len) <- id;
  Hashtbl.replace t.node_slot id t.node_len;
  t.node_len <- t.node_len + 1

let push_neighbor e id =
  if e.len = Array.length e.neigh then begin
    let bigger = Array.make (Int.max 4 (2 * e.len)) 0 in
    Array.blit e.neigh 0 bigger 0 e.len;
    e.neigh <- bigger
  end;
  e.neigh.(e.len) <- id;
  Hashtbl.replace e.pos id e.len;
  e.len <- e.len + 1

let drop_neighbor e id =
  match Hashtbl.find_opt e.pos id with
  | None -> false
  | Some i ->
      e.len <- e.len - 1;
      if i <> e.len then begin
        let moved = e.neigh.(e.len) in
        e.neigh.(i) <- moved;
        Hashtbl.replace e.pos moved i
      end;
      Hashtbl.remove e.pos id;
      true

let add_edge t a b =
  if a = b then invalid_arg "Adjacency.add_edge: self loop";
  let ea = entry t a and eb = entry t b in
  if not (Hashtbl.mem ea.pos b) then begin
    push_neighbor ea b;
    push_neighbor eb a;
    t.edges <- t.edges + 1
  end

let remove_edge t a b =
  match (Hashtbl.find_opt t.nodes a, Hashtbl.find_opt t.nodes b) with
  | Some ea, Some eb ->
      let removed = drop_neighbor ea b in
      if removed then begin
        ignore (drop_neighbor eb a);
        t.edges <- t.edges - 1
      end
  | _ -> ()

let remove_node t id =
  let e = entry t id in
  (* detach from every neighbor *)
  for i = 0 to e.len - 1 do
    let other = e.neigh.(i) in
    ignore (drop_neighbor (entry t other) id)
  done;
  t.edges <- t.edges - e.len;
  Hashtbl.remove t.nodes id;
  let slot = Hashtbl.find t.node_slot id in
  t.node_len <- t.node_len - 1;
  if slot <> t.node_len then begin
    let moved = t.node_list.(t.node_len) in
    t.node_list.(slot) <- moved;
    Hashtbl.replace t.node_slot moved slot
  end;
  Hashtbl.remove t.node_slot id

let degree t id = (entry t id).len

let neighbors t id =
  let e = entry t id in
  Array.sub e.neigh 0 e.len

let iter_neighbors t id f =
  let e = entry t id in
  for i = 0 to e.len - 1 do
    f e.neigh.(i)
  done

let sample_neighbor t id rng =
  let e = entry t id in
  if e.len = 0 then None else Some e.neigh.(Rng.int_below rng e.len)

let attach_uniform t id ~degree rng =
  let e = entry t id in
  ignore e;
  let others = t.node_len - 1 in
  let want = Int.min degree others in
  if want > 0 then begin
    (* sample distinct slots among the other nodes *)
    let chosen = Hashtbl.create (2 * want) in
    let attached = ref 0 in
    while !attached < want do
      let candidate = t.node_list.(Rng.int_below rng t.node_len) in
      if candidate <> id && not (Hashtbl.mem chosen candidate) then begin
        Hashtbl.add chosen candidate ();
        add_edge t id candidate;
        incr attached
      end
    done
  end

let mean_degree t =
  if t.node_len = 0 then nan else 2.0 *. float_of_int t.edges /. float_of_int t.node_len

let connected_component_sizes t =
  let visited = Hashtbl.create (2 * t.node_len) in
  let sizes = ref [] in
  for i = 0 to t.node_len - 1 do
    let root = t.node_list.(i) in
    if not (Hashtbl.mem visited root) then begin
      let size = ref 0 in
      let queue = Queue.create () in
      Queue.push root queue;
      Hashtbl.replace visited root ();
      while not (Queue.is_empty queue) do
        let node = Queue.pop queue in
        incr size;
        iter_neighbors t node (fun other ->
            if not (Hashtbl.mem visited other) then begin
              Hashtbl.replace visited other ();
              Queue.push other queue
            end)
      done;
      sizes := !size :: !sizes
    end
  done;
  List.sort (fun a b -> Int.compare b a) !sizes

let validate t =
  let ok = ref true in
  let half_edges = ref 0 in
  Hashtbl.iter
    (fun id e ->
      half_edges := !half_edges + e.len;
      for i = 0 to e.len - 1 do
        let other = e.neigh.(i) in
        (match Hashtbl.find_opt t.nodes other with
        | None -> ok := false
        | Some eo -> if not (Hashtbl.mem eo.pos id) then ok := false);
        if Hashtbl.find_opt e.pos other <> Some i then ok := false
      done)
    t.nodes;
  if !half_edges <> 2 * t.edges then ok := false;
  if Hashtbl.length t.nodes <> t.node_len then ok := false;
  !ok
