module Field = P2p_gf.Field
module Mat = P2p_gf.Mat
module Kernel = P2p_gf.Kernel

(* The basis is maintained as the canonical row-reduced echelon form of
   the row space: nonzero rows, pivots normalised to 1, every pivot
   column zero in all other rows, rows sorted by pivot column.  The RREF
   of a subspace is unique, so maintaining it incrementally (reduce the
   incoming vector, normalise, back-eliminate, insert in pivot order)
   yields bit-identical bases — and therefore bit-identical random-member
   draw sequences — to the batch [Mat.row_reduce] the tracker previously
   re-ran on every insert.

   Row storage is preallocated at creation: [rows] holds K buffers that
   are permuted (never reallocated) as the basis grows, so a receive
   event allocates nothing.  Over GF(2) the rows are bitsliced into
   native-int words ([xw] words per row); over any other field they are
   element vectors of length K. *)

type t = {
  f : Field.t;
  kern : Kernel.t;
  k : int;
  packed : bool;  (* GF(2): rows are packed bit words *)
  xw : int;  (* internal row width: words_for k when packed, else k *)
  mutable dim : int;
  pivots : int array;  (* length k; pivots.(i) valid for i < dim, ascending *)
  rows : int array array;  (* k row buffers; rows.(i) valid for i < dim *)
  mutable gen : int;  (* bumped on every successful insert *)
}

type xvec = int array

let create f ~k =
  if k < 1 then invalid_arg "Subspace.create: k must be >= 1";
  let kern = Kernel.of_field f in
  let packed = f.Field.q = 2 in
  let xw = if packed then Kernel.words_for ~k else k in
  {
    f;
    kern;
    k;
    packed;
    xw;
    dim = 0;
    pivots = Array.make k (-1);
    rows = Array.init k (fun _ -> Array.make xw 0);
    gen = 0;
  }

let copy t =
  {
    t with
    pivots = Array.copy t.pivots;
    rows = Array.map Array.copy t.rows;
  }

let field t = t.f
let dim t = t.dim
let k t = t.k
let is_full t = t.dim = t.k
let generation t = t.gen

(* ---- internal-format scratch vectors ---- *)

let alloc_xvec t = Array.make t.xw 0
let clear_xvec t v = Array.fill v 0 t.xw 0

let pack_into t (v : Mat.vec) (dst : xvec) =
  if Array.length v <> t.k then invalid_arg "Subspace: wrong vector length";
  if t.packed then begin
    clear_xvec t dst;
    for j = 0 to t.k - 1 do
      if v.(j) land 1 <> 0 then Kernel.set_bit dst j
    done
  end
  else Array.blit v 0 dst 0 t.k

let unpack t (x : xvec) : Mat.vec =
  if t.packed then Array.init t.k (fun j -> Kernel.get_bit x j) else Array.copy x

(* Reduce [v] (internal format, clobbered) against the basis; returns the
   pivot column of the remainder, or -1 if [v] lies in the span.  Basis
   rows are fully reduced, so elimination order is immaterial. *)
let reduce_xvec t (v : xvec) =
  if t.packed then begin
    for i = 0 to t.dim - 1 do
      if Kernel.get_bit v (Array.unsafe_get t.pivots i) <> 0 then
        Kernel.xor_into ~x:(Array.unsafe_get t.rows i) ~y:v
    done;
    Kernel.lowest_bit v
  end
  else begin
    let kern = t.kern in
    for i = 0 to t.dim - 1 do
      let c = Array.unsafe_get v (Array.unsafe_get t.pivots i) in
      if c <> 0 then
        Kernel.axpy_into kern ~c:(Kernel.neg kern c) ~x:(Array.unsafe_get t.rows i) ~y:v
    done;
    let rec first j = if j >= t.k then -1 else if Array.unsafe_get v j <> 0 then j else first (j + 1) in
    first 0
  end

let contains_xvec t v = reduce_xvec t v < 0

(* Incremental RREF insert.  O(dim · k) element operations (O(dim · k/63)
   word operations over GF(2)), no allocation.  Clobbers [v]. *)
let insert_xvec t (v : xvec) =
  let piv = reduce_xvec t v in
  if piv < 0 then false
  else begin
    (* Normalise the new row (already 1 over characteristic-2 packed). *)
    if not t.packed then begin
      let c = v.(piv) in
      if c <> 1 then Kernel.scale_into t.kern ~c:(Kernel.inv t.kern c) v
    end;
    (* Back-eliminate the new pivot from every existing row.  [v] is zero
       at all existing pivot columns, so this preserves full reduction. *)
    if t.packed then
      for i = 0 to t.dim - 1 do
        let row = t.rows.(i) in
        if Kernel.get_bit row piv <> 0 then Kernel.xor_into ~x:v ~y:row
      done
    else
      for i = 0 to t.dim - 1 do
        let row = t.rows.(i) in
        let c = row.(piv) in
        if c <> 0 then Kernel.axpy_into t.kern ~c:(Kernel.neg t.kern c) ~x:v ~y:row
      done;
    (* Insert at the sorted position, rotating the spare row buffer in. *)
    let pos = ref t.dim in
    while !pos > 0 && t.pivots.(!pos - 1) > piv do
      decr pos
    done;
    let spare = t.rows.(t.dim) in
    for i = t.dim downto !pos + 1 do
      t.rows.(i) <- t.rows.(i - 1);
      t.pivots.(i) <- t.pivots.(i - 1)
    done;
    Array.blit v 0 spare 0 t.xw;
    t.rows.(!pos) <- spare;
    t.pivots.(!pos) <- piv;
    t.dim <- t.dim + 1;
    t.gen <- t.gen + 1;
    true
  end

(* Uniform member of the subspace: one coefficient draw per basis row, in
   basis (pivot) order, applying the row only when the coefficient is
   nonzero — the exact draw sequence of the closure-based tracker. *)
let random_member_into t rng (dst : xvec) =
  clear_xvec t dst;
  let q = t.f.Field.q in
  for i = 0 to t.dim - 1 do
    let c = P2p_prng.Rng.int_below rng q in
    if c <> 0 then begin
      if t.packed then Kernel.xor_into ~x:(Array.unsafe_get t.rows i) ~y:dst
      else Kernel.axpy_into t.kern ~c ~x:(Array.unsafe_get t.rows i) ~y:dst
    end
  done

(* Uniform vector of F_q^K: K draws in ascending index order, matching
   [Mat.random_vec]'s [Array.init] evaluation order draw-for-draw. *)
let random_full_into t rng (dst : xvec) =
  clear_xvec t dst;
  let q = t.f.Field.q in
  if t.packed then
    for j = 0 to t.k - 1 do
      if P2p_prng.Rng.int_below rng q <> 0 then Kernel.set_bit dst j
    done
  else
    for j = 0 to t.k - 1 do
      Array.unsafe_set dst j (P2p_prng.Rng.int_below rng q)
    done

(* Copy basis row [i] of [src] into [dst] (same field/k). *)
let blit_row src i (dst : xvec) = Array.blit src.rows.(i) 0 dst 0 src.xw

(* First uploader basis row outside the downloader's subspace (Remark 16
   smart exchange), copied into [dst]; [dst] is zeroed when the uploader
   is contained.  Returns whether a row was found.  [scratch] is
   clobbered. *)
let first_uncovered_into ~uploader ~downloader ~scratch (dst : xvec) =
  let rec go i =
    if i >= uploader.dim then begin
      clear_xvec downloader dst;
      false
    end
    else begin
      blit_row uploader i scratch;
      if contains_xvec downloader scratch then go (i + 1)
      else begin
        blit_row uploader i dst;
        true
      end
    end
  in
  go 0

(* ---- public Mat.vec API (tests, lattice tooling, cold paths) ---- *)

let insert t v =
  if Array.length v <> t.k then invalid_arg "Subspace.insert: wrong vector length";
  let x = alloc_xvec t in
  pack_into t v x;
  insert_xvec t x

let contains t v =
  if Array.length v <> t.k then invalid_arg "Subspace.contains: wrong vector length";
  let x = alloc_xvec t in
  pack_into t v x;
  contains_xvec t x

let basis t = Array.init t.dim (fun i -> unpack t t.rows.(i))

(* U ⊆ W implies pivots(U) ⊆ pivots(W): reducing a member of U whose
   leading column is j against W's RREF must consume a W-row with pivot
   exactly j.  The merge walk below is therefore a cheap necessary
   precheck before the row-by-row reduction. *)
let pivots_subset a b =
  let rec go i j =
    if i >= a.dim then true
    else if j >= b.dim then false
    else begin
      let pa = a.pivots.(i) and pb = b.pivots.(j) in
      if pa = pb then go (i + 1) (j + 1) else if pb < pa then go i (j + 1) else false
    end
  in
  go 0 0

(* Two subspaces of one field share its representation (packed iff
   q = 2, [xw] fixed by k), so their rows reduce against each other
   directly.  Rows of another field would be read as this one's
   elements, so mixing fields is an error. *)
let check_same_field name a b =
  if a.f.Field.q <> b.f.Field.q then invalid_arg ("Subspace." ^ name ^ ": different fields")

let subspace_leq a b =
  check_same_field "subspace_leq" a b;
  a.k = b.k
  && a.dim <= b.dim
  && pivots_subset a b
  && begin
       let scratch = alloc_xvec b in
       let rec go i =
         i >= a.dim
         || begin
              blit_row a i scratch;
              contains_xvec b scratch && go (i + 1)
            end
       in
       go 0
     end

let can_help ~uploader ~downloader = not (subspace_leq uploader downloader)

let random_member t rng =
  let x = alloc_xvec t in
  random_member_into t rng x;
  unpack t x

let sum_dim a b =
  (* dim(A + B), incrementally: extend a copy of A by B's rows. *)
  let acc = copy a in
  let scratch = alloc_xvec acc in
  for i = 0 to b.dim - 1 do
    blit_row b i scratch;
    ignore (insert_xvec acc scratch)
  done;
  acc.dim

let intersection_dim a b =
  check_same_field "intersection_dim" a b;
  if a.k <> b.k then invalid_arg "Subspace.intersection_dim: dimension mismatch";
  dim a + dim b - sum_dim a b

let useful_probability ~uploader ~downloader =
  (* P(random member of V_B useful to A) = 1 - |V_A ∩ V_B| / |V_B|
     = 1 - q^(dim(A∩B) - dim B). *)
  let q = float_of_int uploader.f.Field.q in
  let inter = intersection_dim downloader uploader in
  1.0 -. (q ** float_of_int (inter - dim uploader))

let of_vectors f ~k vectors =
  let t = create f ~k in
  List.iter (fun v -> ignore (insert t v)) vectors;
  t
