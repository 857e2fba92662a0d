type t = int
type piece = int

let max_pieces = 62

let empty = 0

(* [check_k], [full], [check_piece], [add] and [lowest] are inlined:
   each transfer calls them from other modules ([Params.full_set],
   [State]'s per-piece counts). *)
let[@inline] check_k k =
  if k < 1 || k > max_pieces then
    invalid_arg (Printf.sprintf "Pieceset: k = %d out of range [1, %d]" k max_pieces)

let[@inline] full ~k =
  check_k k;
  (* For k = 62 this is max_int, the all-ones pattern of a 63-bit int. *)
  (1 lsl k) - 1

let[@inline] check_piece i =
  if i < 0 || i >= max_pieces then
    invalid_arg (Printf.sprintf "Pieceset: piece %d out of range [0, %d)" i max_pieces)

let singleton i =
  check_piece i;
  1 lsl i

let mem i c = c land (1 lsl i) <> 0

let[@inline] add i c =
  check_piece i;
  c lor (1 lsl i)

let remove i c = c land lnot (1 lsl i)

(* Index of the lowest set bit: isolate it with [c land -c], then read the
   six binary digits of its position off fixed masks — O(1) and
   branch-predictable, shared by [fold], [iter], [nth_element] and
   [lowest].  (The classic de Bruijn multiply assumes 64-bit wraparound;
   OCaml ints are 63-bit, so positional masks are the safe equivalent.)
   [digit_mask j] covers the positions whose j-th index bit is 1. *)
let digit_mask j =
  let m = ref 0 in
  for i = 0 to max_pieces do
    if (i lsr j) land 1 = 1 then m := !m lor (1 lsl i)
  done;
  !m

let m0 = digit_mask 0
let m1 = digit_mask 1
let m2 = digit_mask 2
let m3 = digit_mask 3
let m4 = digit_mask 4
let m5 = digit_mask 5

let[@inline] lowest_bit c =
  let b = c land -c in
  (if b land m0 <> 0 then 1 else 0)
  lor (if b land m1 <> 0 then 2 else 0)
  lor (if b land m2 <> 0 then 4 else 0)
  lor (if b land m3 <> 0 then 8 else 0)
  lor (if b land m4 <> 0 then 16 else 0)
  lor (if b land m5 <> 0 then 32 else 0)

let cardinal c =
  (* Kernighan popcount; sets are small so this is plenty fast. *)
  let rec count c acc = if c = 0 then acc else count (c land (c - 1)) (acc + 1) in
  count c 0

let is_empty c = c = 0
let is_full ~k c = c = full ~k
let subset a b = a land lnot b = 0
let proper_subset a b = a <> b && subset a b
let can_help ~uploader ~downloader = not (subset uploader downloader)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let complement ~k c = full ~k land lnot c
let missing_count ~k c = k - cardinal c

let fold f c init =
  let rec go c acc = if c = 0 then acc else go (c land (c - 1)) (f (lowest_bit c) acc) in
  go c init

let iter f c =
  let rec go c =
    if c <> 0 then begin
      f (lowest_bit c);
      go (c land (c - 1))
    end
  in
  go c

let elements c = List.rev (fold (fun i acc -> i :: acc) c [])

let of_list pieces = List.fold_left (fun acc i -> add i acc) empty pieces

let nth_element c i =
  if i < 0 then invalid_arg "Pieceset.nth_element: negative index";
  let rec go c i =
    if c = 0 then invalid_arg "Pieceset.nth_element: index out of range"
    else if i = 0 then lowest_bit c
    else go (c land (c - 1)) (i - 1)
  in
  go c i

let choose_uniform draw c =
  let n = cardinal c in
  if n = 0 then invalid_arg "Pieceset.choose_uniform: empty set";
  nth_element c (draw n)

let[@inline] lowest c =
  if c = 0 then invalid_arg "Pieceset.lowest: empty set";
  lowest_bit c

let to_index c = c

let of_index i =
  (* Any nonnegative int is a valid 62-piece bitmask. *)
  if i < 0 then invalid_arg "Pieceset.of_index: negative";
  i

let all ~k =
  check_k k;
  List.init (1 lsl k) (fun i -> i)

let all_proper ~k =
  check_k k;
  List.init ((1 lsl k) - 1) (fun i -> i)

let subsets_of c =
  (* Standard sub-mask enumeration: walk s = (s - 1) land c. *)
  let rec go s acc = if s = 0 then 0 :: acc else go ((s - 1) land c) (s :: acc) in
  go c []

let strict_supersets_within ~k c =
  let f = full ~k in
  let missing = diff f c in
  (* Supersets of c are c lor m for every nonempty sub-mask m of missing. *)
  List.filter_map (fun m -> if m = 0 then None else Some (c lor m)) (subsets_of missing)

let compare = Int.compare
let equal = Int.equal
let hash c = c * 0x2545F491 land max_int

let pp fmt c =
  let ones = List.map (fun i -> i + 1) (elements c) in
  Format.fprintf fmt "{%a}" Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int) ones

let to_string c = Format.asprintf "%a" pp c
