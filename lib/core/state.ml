module Pieceset = P2p_pieceset.Pieceset

(* Occupied types live in dense parallel arrays with O(1) swap-removal,
   with a hash table mapping type -> slot.  The dense layout keeps the
   per-event operations (count lookups, uniform peer sampling, piece-count
   maintenance) allocation-free and cache-friendly: sampling scans a flat
   int array instead of walking hash buckets, and the per-piece copy
   counts are maintained incrementally so rarest-first style policies read
   them in O(1) instead of recomputing O(occupied types * k) per contact. *)
type t = {
  mutable types : Pieceset.t array;  (* slots [0, len) occupied *)
  mutable vals : int array;  (* vals.(s) > 0 for s < len *)
  mutable len : int;
  slot_of : (Pieceset.t, int) Hashtbl.t;
  mutable total : int;
  mutable same_pairs : int;  (* Σ_C x_C²: ordered pairs of same-type peers *)
  piece_counts : int array;  (* piece i -> copies held across all peers *)
}

type pair = { mutable uploader : Pieceset.t; mutable downloader : Pieceset.t }

let create () =
  {
    types = [||];
    vals = [||];
    len = 0;
    slot_of = Hashtbl.create 32;
    total = 0;
    same_pairs = 0;
    piece_counts = Array.make Pieceset.max_pieces 0;
  }

let copy t =
  {
    types = Array.copy t.types;
    vals = Array.copy t.vals;
    len = t.len;
    slot_of = Hashtbl.copy t.slot_of;
    total = t.total;
    same_pairs = t.same_pairs;
    piece_counts = Array.copy t.piece_counts;
  }

(* [match ... with exception Not_found] avoids the [Some] allocation of
   [find_opt] on this per-event path. *)
let count t c = match Hashtbl.find t.slot_of c with v -> t.vals.(v) | exception Not_found -> 0

let n t = t.total
let occupied t = t.len
let same_type_pairs t = t.same_pairs

(* Add [dv] (possibly negative) to the copy count of every piece of [c];
   tail-recursive over the bitset, no closure, no allocation. *)
let rec bump_pieces pc c dv =
  if not (Pieceset.is_empty c) then begin
    let i = Pieceset.lowest c in
    Array.unsafe_set pc i (Array.unsafe_get pc i + dv);
    bump_pieces pc (Pieceset.remove i c) dv
  end

(* Slot-level add/remove: maintain the dense arrays, the slot table and
   [same_pairs] only.  [total] and [piece_counts] are the callers'
   business, so [move_peer] can account for just the moved pieces. *)
let add_slot t c v =
  match Hashtbl.find t.slot_of c with
  | slot ->
      let x = t.vals.(slot) in
      t.vals.(slot) <- x + v;
      t.same_pairs <- t.same_pairs + (v * ((2 * x) + v))
  | exception Not_found ->
      t.same_pairs <- t.same_pairs + (v * v);
      if t.len = Array.length t.types then begin
        let cap = Int.max 16 (2 * t.len) in
        let types = Array.make cap Pieceset.empty and vals = Array.make cap 0 in
        Array.blit t.types 0 types 0 t.len;
        Array.blit t.vals 0 vals 0 t.len;
        t.types <- types;
        t.vals <- vals
      end;
      t.types.(t.len) <- c;
      t.vals.(t.len) <- v;
      Hashtbl.replace t.slot_of c t.len;
      t.len <- t.len + 1

let remove_slot t c =
  match Hashtbl.find t.slot_of c with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "State.remove_peer: no type %s peer" (Pieceset.to_string c))
  | slot ->
      let v = t.vals.(slot) in
      t.same_pairs <- t.same_pairs - ((2 * v) - 1);
      if v = 1 then begin
        (* Swap-remove the emptied slot to keep the prefix dense. *)
        let last = t.len - 1 in
        Hashtbl.remove t.slot_of c;
        if slot <> last then begin
          let moved = t.types.(last) in
          t.types.(slot) <- moved;
          t.vals.(slot) <- t.vals.(last);
          Hashtbl.replace t.slot_of moved slot
        end;
        t.len <- last
      end
      else t.vals.(slot) <- v - 1

let add_peers t c v =
  add_slot t c v;
  t.total <- t.total + v;
  bump_pieces t.piece_counts c v

let add_peer t c = add_peers t c 1

let of_counts entries =
  let t = create () in
  List.iter
    (fun (c, v) ->
      if v < 0 then invalid_arg "State.of_counts: negative count";
      if v > 0 then add_peers t c v)
    entries;
  t

let remove_peer t c =
  remove_slot t c;
  t.total <- t.total - 1;
  bump_pieces t.piece_counts c (-1)

let move_peer t ~from_ ~to_ =
  if Pieceset.equal from_ to_ then ()
  else begin
    (* One peer changes type: move the slot count, then touch only the
       pieces that actually changed hands (for a download, exactly one). *)
    remove_slot t from_;
    add_slot t to_ 1;
    bump_pieces t.piece_counts (Pieceset.diff to_ from_) 1;
    bump_pieces t.piece_counts (Pieceset.diff from_ to_) (-1)
  end

let iter t f =
  for s = 0 to t.len - 1 do
    f t.types.(s) t.vals.(s)
  done

let fold t ~init ~f =
  let acc = ref init in
  for s = 0 to t.len - 1 do
    acc := f !acc t.types.(s) t.vals.(s)
  done;
  !acc

let to_alist t =
  fold t ~init:[] ~f:(fun acc c v -> (c, v) :: acc)
  |> List.sort (fun (a, _) (b, _) -> Pieceset.compare a b)

let piece_copies t ~k ~piece =
  if piece < 0 || piece >= k then invalid_arg "State.piece_copies: piece out of range";
  t.piece_counts.(piece)

let piece_count_vector t ~k = Array.sub t.piece_counts 0 k

(* Slot holding peer number [target] in slot order; allocation-free. *)
let rec scan_peers vals target slot acc =
  let acc = acc + Array.unsafe_get vals slot in
  if acc > target then slot else scan_peers vals target (slot + 1) acc

(* The same, numbering only the peers outside slot [skip]: a target at
   or past the skipped slot's first peer shifts by its count, so the scan
   itself carries no per-slot test. *)
let slot_of_peer_skipping t ~skip target =
  let slot = scan_peers t.vals target 0 0 in
  if slot < skip then slot else scan_peers t.vals (target + t.vals.(skip)) 0 0

let sample_uniform_peer t ~draw =
  if t.total = 0 then invalid_arg "State.sample_uniform_peer: empty state";
  t.types.(scan_peers t.vals (draw t.total) 0 0)

let sample_peer_not_of t ~draw c =
  match Hashtbl.find t.slot_of c with
  | exception Not_found -> sample_uniform_peer t ~draw
  | skip ->
      let others = t.total - t.vals.(skip) in
      if others = 0 then invalid_arg "State.sample_peer_not_of: no peer of another type";
      t.types.(slot_of_peer_skipping t ~skip (draw others))

(* Slot whose cumulative weight x_C·(n − x_C) first exceeds [target]. *)
let rec scan_pairs vals n target slot acc =
  let x = Array.unsafe_get vals slot in
  let acc = acc + (x * (n - x)) in
  if acc > target then slot else scan_pairs vals n target (slot + 1) acc

let set_pair t pair ~up ~down =
  pair.uploader <- t.types.(up);
  pair.downloader <- t.types.(down)

(* Each try is accepted with probability 1 − Σx²/n²; once a one-club
   dominates, the exact scan takes over.  Both give the same law. *)
let rec draw_pair t ~draw pair tries =
  let n = t.total in
  if tries = 0 then
    let d = scan_pairs t.vals n (draw ((n * n) - t.same_pairs)) 0 0 in
    set_pair t pair ~up:(slot_of_peer_skipping t ~skip:d (draw (n - t.vals.(d)))) ~down:d
  else
    let d = scan_peers t.vals (draw n) 0 0 in
    let u = scan_peers t.vals (draw n) 0 0 in
    if u <> d then set_pair t pair ~up:u ~down:d else draw_pair t ~draw pair (tries - 1)

let sample_distinct_pair t ~draw pair =
  if t.total * t.total = t.same_pairs then
    invalid_arg "State.sample_distinct_pair: every peer has the same type";
  draw_pair t ~draw pair 3

let count_subset_peers t s =
  fold t ~init:0 ~f:(fun acc c v -> if Pieceset.subset c s then acc + v else acc)

let count_helpful_peers t s =
  fold t ~init:0 ~f:(fun acc c v -> if Pieceset.subset c s then acc else acc + v)

let equal a b =
  a.total = b.total && a.len = b.len
  && (let ok = ref true in
      iter a (fun c v -> if count b c <> v then ok := false);
      !ok)

let pp fmt t =
  Format.fprintf fmt "@[<h>n=%d:" t.total;
  List.iter (fun (c, v) -> Format.fprintf fmt " %a:%d" Pieceset.pp c v) (to_alist t);
  Format.fprintf fmt "@]"
