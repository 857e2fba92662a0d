module Pieceset = P2p_pieceset.Pieceset

(* Type -> slot: open addressing over two int arrays, [keys] and
   [slots], of one power-of-two capacity kept at most half full.  A key
   is a type's bitmask, never negative (K = 62's full set is [max_int]),
   so [-1] marks an empty cell.  The home cell is the high bits of a
   Fibonacci-style product, collisions probe linearly, and a deletion
   shifts the rest of its run back, so there are no tombstones.  The
   loops are top-level functions: a local [let rec] capturing the table
   would allocate a closure on every lookup. *)
let no_key = -1
let home c mask = ((c * 0x2545F4914F6CDD1D) lsr 32) land mask

(* Cell holding key [c], or the empty cell that ends its run. *)
let rec cell keys mask c i =
  let k = Array.unsafe_get keys i in
  if k = c || k = no_key then i else cell keys mask c ((i + 1) land mask)

(* Empty cell [hole] in a run: pull back each later entry of the run
   whose home is not cyclically in (hole, j], until the run ends. *)
let rec shift keys slots mask hole j =
  let k = Array.unsafe_get keys j in
  if k = no_key then Array.unsafe_set keys hole no_key
  else if (j - home k mask) land mask >= (j - hole) land mask then begin
    Array.unsafe_set keys hole k;
    Array.unsafe_set slots hole (Array.unsafe_get slots j);
    shift keys slots mask j ((j + 1) land mask)
  end
  else shift keys slots mask hole ((j + 1) land mask)

(* Two views of one multiset, kept in step by every add/remove/move.

   Slots: occupied types live in dense parallel arrays with O(1)
   swap-removal, and the table [keys]/[slots] maps a type to its slot.
   Counts, Σx², the per-piece copy counts (bumped incrementally so
   rarest-first style policies read them in O(1)) and the exact scan
   fallbacks read this view.

   The peer bag: position p < total holds one peer, of type [bag.(p)], so
   a uniform peer is one [bag.(draw n)] lookup.  The positions of each
   type form a doubly-linked list through [next]/[prev] whose head is
   [heads.(slot)].  [prev.(p) < 0] marks a head and encodes its slot as
   [-1 - slot], so filling a hole with the last position fixes a head
   without a table lookup.  A removal unlinks its type's head and moves
   the last position into the hole; a move relabels the head in place.

   The bag is built in one pass by the first draw, and kept from then
   on.  A state that is never sampled (the per-peer backend's counts,
   the exact chains' copies) never pays for it, and [copy] drops it, so
   copying stays O(occupied types) rather than O(n). *)
type t = {
  mutable types : Pieceset.t array;  (* slots [0, len) occupied *)
  mutable vals : int array;  (* vals.(s) > 0 for s < len *)
  mutable len : int;
  mutable keys : int array;  (* the type table's cells; see above *)
  mutable slots : int array;
  mutable bagged : bool;  (* the bag and lists below are built *)
  mutable heads : int array;  (* first bag position of slot s's list *)
  mutable bag : Pieceset.t array;  (* positions [0, total) hold peers *)
  mutable next : int array;  (* next position of the same type, or -1 *)
  mutable prev : int array;  (* previous position, or -1 - slot at a head *)
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
    keys = Array.make 32 no_key;
    slots = Array.make 32 0;
    bagged = false;
    heads = [||];
    bag = [||];
    next = [||];
    prev = [||];
    total = 0;
    same_pairs = 0;
    piece_counts = Array.make Pieceset.max_pieces 0;
  }

let copy t =
  {
    types = Array.copy t.types;
    vals = Array.copy t.vals;
    len = t.len;
    keys = Array.copy t.keys;
    slots = Array.copy t.slots;
    bagged = false;
    heads = [||];
    bag = [||];
    next = [||];
    prev = [||];
    total = t.total;
    same_pairs = t.same_pairs;
    piece_counts = Array.copy t.piece_counts;
  }

(* Cell holding type [c], or the empty cell where it would go. *)
let cell_of t (c : Pieceset.t) =
  let mask = Array.length t.keys - 1 in
  cell t.keys mask (c :> int) (home (c :> int) mask)

(* Slot of type [c], or -1. *)
let find_slot t c =
  let i = cell_of t c in
  if t.keys.(i) = no_key then -1 else t.slots.(i)

(* Point type [c] at [slot], inserting it if absent.  The table holds
   the [len] occupied types, so a new type that would fill it past half
   doubles it first, re-inserting those types from their slots. *)
let rec set_slot t (c : Pieceset.t) slot =
  let i = cell_of t c in
  if t.keys.(i) = no_key && 2 * (t.len + 1) > Array.length t.keys then begin
    t.keys <- Array.make (2 * Array.length t.keys) no_key;
    t.slots <- Array.make (Array.length t.keys) 0;
    for s = 0 to t.len - 1 do
      set_slot t t.types.(s) s
    done;
    set_slot t c slot
  end
  else begin
    t.keys.(i) <- (c :> int);
    t.slots.(i) <- slot
  end

let delete_key t c =
  let i = cell_of t c and mask = Array.length t.keys - 1 in
  shift t.keys t.slots mask i ((i + 1) land mask)

let count t c =
  let s = find_slot t c in
  if s < 0 then 0 else t.vals.(s)

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

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- the bag's lists ---- *)

let link t p slot =
  let h = t.heads.(slot) in
  t.next.(p) <- h;
  t.prev.(p) <- -1 - slot;
  if h >= 0 then t.prev.(h) <- p;
  t.heads.(slot) <- p

(* Detach the head position of [slot]'s list and return it. *)
let pop_head t slot =
  let p = t.heads.(slot) in
  let nx = t.next.(p) in
  t.heads.(slot) <- nx;
  if nx >= 0 then t.prev.(nx) <- -1 - slot;
  p

(* ---- slots ---- *)

(* Slot-level add/remove: maintain the dense arrays, the slot table,
   [same_pairs] and the list heads only.  Bag positions, [total] and
   [piece_counts] are the callers' business, so [move_peer] can account
   for just the moved pieces.  [add_slot] returns the slot. *)
let add_slot t c v =
  let slot = find_slot t c in
  if slot >= 0 then begin
    let x = t.vals.(slot) in
    t.vals.(slot) <- x + v;
    t.same_pairs <- t.same_pairs + (v * ((2 * x) + v));
    slot
  end
  else begin
    t.same_pairs <- t.same_pairs + (v * v);
    if t.len = Array.length t.types then begin
      let cap = Int.max 16 (2 * t.len) in
      t.types <- grow t.types cap Pieceset.empty;
      t.vals <- grow t.vals cap 0;
      if t.bagged then t.heads <- grow t.heads cap (-1)
    end;
    let slot = t.len in
    t.types.(slot) <- c;
    t.vals.(slot) <- v;
    if t.bagged then t.heads.(slot) <- -1;
    set_slot t c slot;
    t.len <- slot + 1;
    slot
  end

(* One peer of type [c] leaves its slot.  With a bag, that peer is the
   head of the type's list: it is unlinked, and its position returned
   (-1 without a bag). *)
let remove_slot t c =
  let slot = find_slot t c in
  if slot < 0 then
    invalid_arg (Printf.sprintf "State.remove_peer: no type %s peer" (Pieceset.to_string c));
  let p = if t.bagged then pop_head t slot else -1 in
  let v = t.vals.(slot) in
  t.same_pairs <- t.same_pairs - ((2 * v) - 1);
  if v = 1 then begin
    (* Swap-remove the emptied slot to keep the prefix dense; the moved
       slot's head re-encodes its new slot. *)
    let last = t.len - 1 in
    delete_key t t.types.(slot);
    if slot <> last then begin
      let moved = t.types.(last) in
      t.types.(slot) <- moved;
      t.vals.(slot) <- t.vals.(last);
      if t.bagged then begin
        let h = t.heads.(last) in
        t.heads.(slot) <- h;
        t.prev.(h) <- -1 - slot
      end;
      set_slot t moved slot
    end;
    t.len <- last
  end
  else t.vals.(slot) <- v - 1;
  p

(* ---- the bag ---- *)

(* Move the peer at position [src] (linked) into the unlinked [dst]. *)
let relocate t ~src ~dst =
  let nx = t.next.(src) and pv = t.prev.(src) in
  t.bag.(dst) <- t.bag.(src);
  t.next.(dst) <- nx;
  t.prev.(dst) <- pv;
  if pv < 0 then t.heads.(-1 - pv) <- dst else t.next.(pv) <- dst;
  if nx >= 0 then t.prev.(nx) <- dst

let reserve t cap =
  if cap > Array.length t.bag then begin
    let cap = Int.max cap (Int.max 16 (2 * Array.length t.bag)) in
    t.bag <- grow t.bag cap Pieceset.empty;
    t.next <- grow t.next cap (-1);
    t.prev <- grow t.prev cap (-1)
  end

(* The whole bag in one pass over the slots: each type's positions are
   contiguous, and its list runs through them in order. *)
let fill_bag t =
  reserve t t.total;
  t.heads <- Array.make (Array.length t.types) (-1);
  let p = ref 0 in
  for slot = 0 to t.len - 1 do
    let c = t.types.(slot) and v = t.vals.(slot) in
    let first = !p in
    Array.fill t.bag first v c;
    for q = first to first + v - 1 do
      t.next.(q) <- q + 1;
      t.prev.(q) <- q - 1
    done;
    t.next.(first + v - 1) <- -1;
    t.prev.(first) <- -1 - slot;
    t.heads.(slot) <- first;
    p := first + v
  done;
  t.bagged <- true

let add_peer t c =
  let slot = add_slot t c 1 in
  if t.bagged then begin
    reserve t (t.total + 1);
    t.bag.(t.total) <- c;
    link t t.total slot
  end;
  t.total <- t.total + 1;
  bump_pieces t.piece_counts c 1

let of_counts entries =
  let t = create () in
  List.iter
    (fun (c, v) ->
      if v < 0 then invalid_arg "State.of_counts: negative count";
      if v > 0 then begin
        ignore (add_slot t c v);
        t.total <- t.total + v;
        bump_pieces t.piece_counts c v
      end)
    entries;
  t

let remove_peer t c =
  let p = remove_slot t c in
  let last = t.total - 1 in
  if p >= 0 && p <> last then relocate t ~src:last ~dst:p;
  t.total <- last;
  bump_pieces t.piece_counts c (-1)

let move_peer t ~from_ ~to_ =
  if Pieceset.equal from_ to_ then ()
  else begin
    (* One peer changes type: relabel its bag position in place, move the
       slot count, then touch only the pieces that actually changed
       hands (for a download, exactly one). *)
    let p = remove_slot t from_ in
    let slot = add_slot t to_ 1 in
    if p >= 0 then begin
      t.bag.(p) <- to_;
      link t p slot
    end;
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
  if not t.bagged then fill_bag t;
  t.bag.(draw t.total)

(* A few uniform bag draws, accepted unless of type [c]; once [c]
   dominates, an exact scan over the other slots takes over.  A failed
   try draws nothing the result depends on, so both give the same law. *)
let rec draw_not_of t ~draw c tries =
  if tries = 0 then begin
    let skip = find_slot t c in
    let others = t.total - t.vals.(skip) in
    if others = 0 then invalid_arg "State.sample_peer_not_of: no peer of another type";
    t.types.(slot_of_peer_skipping t ~skip (draw others))
  end
  else
    let d = t.bag.(draw t.total) in
    if not (Pieceset.equal d c) then d else draw_not_of t ~draw c (tries - 1)

let sample_peer_not_of t ~draw c =
  if t.total = 0 then invalid_arg "State.sample_peer_not_of: empty state";
  if not t.bagged then fill_bag t;
  draw_not_of t ~draw c 3

(* Slot whose cumulative weight x_C·(n − x_C) first exceeds [target]. *)
let rec scan_pairs vals n target slot acc =
  let x = Array.unsafe_get vals slot in
  let acc = acc + (x * (n - x)) in
  if acc > target then slot else scan_pairs vals n target (slot + 1) acc

(* Each try is accepted with probability 1 − Σx²/n²; once a one-club
   dominates, the exact scan takes over.  Both give the same law. *)
let rec draw_pair t ~draw pair tries =
  let n = t.total in
  if tries = 0 then begin
    let d = scan_pairs t.vals n (draw ((n * n) - t.same_pairs)) 0 0 in
    pair.uploader <- t.types.(slot_of_peer_skipping t ~skip:d (draw (n - t.vals.(d))));
    pair.downloader <- t.types.(d)
  end
  else
    let d = t.bag.(draw n) in
    let u = t.bag.(draw n) in
    if not (Pieceset.equal u d) then begin
      pair.uploader <- u;
      pair.downloader <- d
    end
    else draw_pair t ~draw pair (tries - 1)

let sample_distinct_pair t ~draw pair =
  if t.total * t.total = t.same_pairs then
    invalid_arg "State.sample_distinct_pair: every peer has the same type";
  if not t.bagged then fill_bag t;
  draw_pair t ~draw pair 3

let bag_view t =
  if not t.bagged then fill_bag t;
  let rec walk p acc = if p < 0 then List.rev acc else walk t.next.(p) (p :: acc) in
  (Array.sub t.bag 0 t.total, List.init t.len (fun s -> (t.types.(s), walk t.heads.(s) [])))

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

let apply_move t ~from_ ~to_ =
  if from_ < 0 then add_peer t (Pieceset.of_index to_)
  else if to_ < 0 then remove_peer t (Pieceset.of_index from_)
  else move_peer t ~from_:(Pieceset.of_index from_) ~to_:(Pieceset.of_index to_)
