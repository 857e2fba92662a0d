module Pieceset = P2p_pieceset.Pieceset

type klass = {
  label : string;
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) list;
}

type t = {
  k : int;
  us : float;
  mu : float;
  gamma : float;
  arrivals : (Pieceset.t * float) array;
}

(* The checks [make] and [Sim_agent.validate] share.  A labelled class
   is named in the message; [make]'s lone class has the empty label. *)
let check_classes ~who ~k ~us classes =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg (who ^ ": " ^ m)) fmt in
  if k < 1 || k > Pieceset.max_pieces then
    fail "k must be in [1, %d], got %d" Pieceset.max_pieces k;
  if not (us >= 0.0 && Float.is_finite us) then fail "us must be finite >= 0, got %g" us;
  if classes = [] then fail "need at least one peer class";
  let full = Pieceset.full ~k in
  let total =
    List.fold_left
      (fun acc c ->
        let named = if c.label = "" then "" else Printf.sprintf "class %S: " c.label in
        if not (c.mu > 0.0 && Float.is_finite c.mu) then
          fail "%smu must be finite > 0, got %g" named c.mu;
        if not (c.gamma > 0.0) then
          fail "%sgamma must be positive (or infinity), got %g" named c.gamma;
        List.fold_left
          (fun acc (set, rate) ->
            if not (Pieceset.subset set full) then
              fail "%sarrival type %s has pieces beyond K=%d" named (Pieceset.to_string set) k;
            if not (rate >= 0.0 && Float.is_finite rate) then
              fail "%sarrival rates must be finite >= 0, got %g for type %s" named rate
                (Pieceset.to_string set);
            if rate > 0.0 && Pieceset.equal set full && not (Float.is_finite c.gamma) then
              fail "%sgamma = infinity requires lambda_F = 0" named;
            acc +. rate)
          acc c.arrivals)
      0.0 classes
  in
  if not (total > 0.0) then fail "total arrival rate must be positive"

let make ~k ~us ~mu ~gamma ~arrivals =
  check_classes ~who:"Params.make" ~k ~us [ { label = ""; mu; gamma; arrivals } ];
  (* Deduplicate: sum rates per type, drop zero entries. *)
  let table = Hashtbl.create 16 in
  List.iter
    (fun (c, rate) ->
      let prev = Option.value (Hashtbl.find_opt table c) ~default:0.0 in
      Hashtbl.replace table c (prev +. rate))
    arrivals;
  let entries =
    Hashtbl.fold (fun c rate acc -> if rate > 0.0 then (c, rate) :: acc else acc) table []
  in
  let arrivals =
    List.sort (fun (a, _) (b, _) -> Pieceset.compare a b) entries |> Array.of_list
  in
  { k; us; mu; gamma; arrivals }

let classes t =
  [ { label = "all"; mu = t.mu; gamma = t.gamma; arrivals = Array.to_list t.arrivals } ]

let immediate_departure t = not (Float.is_finite t.gamma)
let mu_over_gamma t = if immediate_departure t then 0.0 else t.mu /. t.gamma
let lambda_total t = Array.fold_left (fun acc (_, r) -> acc +. r) 0.0 t.arrivals

let lambda t c =
  let found = ref 0.0 in
  Array.iter (fun (c', r) -> if Pieceset.equal c c' then found := r) t.arrivals;
  !found

let lambda_containing t ~piece =
  Array.fold_left
    (fun acc (c, r) -> if Pieceset.mem piece c then acc +. r else acc)
    0.0 t.arrivals

let lambda_within t s =
  Array.fold_left
    (fun acc (c, r) -> if Pieceset.subset c s then acc +. r else acc)
    0.0 t.arrivals

let[@inline] full_set t = Pieceset.full ~k:t.k

let piece_can_enter t ~piece = t.us > 0.0 || lambda_containing t ~piece > 0.0

let with_gamma t ~gamma =
  make ~k:t.k ~us:t.us ~mu:t.mu ~gamma ~arrivals:(Array.to_list t.arrivals)

let with_us t ~us = make ~k:t.k ~us ~mu:t.mu ~gamma:t.gamma ~arrivals:(Array.to_list t.arrivals)
let with_arrivals t ~arrivals = make ~k:t.k ~us:t.us ~mu:t.mu ~gamma:t.gamma ~arrivals

let pp fmt t =
  Format.fprintf fmt "@[<v>K=%d U_s=%g mu=%g gamma=%s@,arrivals:" t.k t.us t.mu
    (if immediate_departure t then "inf" else Printf.sprintf "%g" t.gamma);
  Array.iter (fun (c, r) -> Format.fprintf fmt "@,  lambda_%a = %g" Pieceset.pp c r) t.arrivals;
  Format.fprintf fmt "@]"
