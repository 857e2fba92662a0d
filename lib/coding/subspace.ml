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
   event allocates nothing.

   Over a characteristic-2 field GF(2^m) a row is packed into m-bit
   lanes, [63 / m] lanes per native-int word (GF(2) is m = 1): entry j
   sits in word [j / lanes] at bit [(j mod lanes) * m].  Addition is
   [lxor] and the pivot is a count of trailing zeros.  Scaling a word by
   c takes whichever is fewer steps: up to m = 7, the sum over the m
   bit-planes b of the lanes' isolated bit b times c·x^b
   ([Kernel.lane_products]; no product carries out of its lane); from
   m = 8 on, where a word has fewer lanes than a lane has bits, one
   log/antilog lookup per nonzero lane.  Pivots are stored as lane
   positions, [(word lsl 6) lor shift], which order like columns and
   read a lane without a division.  Odd characteristic keeps element
   vectors of length K.

   The word loops stay in this module, and single-word rows (xw = 1,
   e.g. K = 8 over GF(16)) get their own branch that keeps the word in
   a register.  The default build would inline a small helper from
   another module, but [--profile dev] compiles with [-opaque], where it
   would cost a call per row operation. *)

let word_bits = 63

type t = {
  f : Field.t;
  kern : Kernel.t;
  k : int;
  m : int;  (* lane width in bits; 0 for element rows (odd characteristic) *)
  lanes : int;  (* lanes per word *)
  lsb : int;  (* bit 0 of every lane of a word *)
  mask : int;  (* one lane's bits: 2^m - 1 *)
  prods : int array;  (* c·x^b at [c*m + b] (the field's table), or [||] *)
  planes : bool;  (* scale by bit-planes; otherwise lane by lane via logs *)
  exp_ : int array;  (* doubled antilog table of GF(2^m), m >= 2 *)
  log_ : int array;
  xw : int;  (* internal row width: words when packed, else k *)
  mutable dim : int;
  pivots : int array;  (* length k; pivots.(i) valid for i < dim, ascending *)
  rows : int array array;  (* k row buffers; rows.(i) valid for i < dim *)
}

type xvec = int array

let create f ~k =
  if k < 1 then invalid_arg "Subspace.create: k must be >= 1";
  let kern = Kernel.of_field f in
  let m = if f.Field.p = 2 then f.Field.m else 0 in
  let lanes = if m = 0 then 0 else word_bits / m in
  let lsb = ref 0 in
  for l = 0 to lanes - 1 do
    lsb := !lsb lor (1 lsl (l * m))
  done;
  let prods = Kernel.lane_products kern in
  let exp_, log_ =
    match kern with Kernel.Char2 { exp_; log_; _ } -> (exp_, log_) | _ -> ([||], [||])
  in
  let xw = if m = 0 then k else (k + lanes - 1) / lanes in
  {
    f;
    kern;
    k;
    m;
    lanes;
    lsb = !lsb;
    mask = (1 lsl m) - 1;
    prods;
    planes = Array.length prods > 0;
    exp_;
    log_;
    xw;
    dim = 0;
    pivots = Array.make k (-1);
    rows = Array.init k (fun _ -> Array.make xw 0);
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

(* ---- internal-format scratch vectors ---- *)

let alloc_xvec t = Array.make t.xw 0

(* Plain loops over [int array]s: no C call and no write barrier for
   rows of a word or a few. *)
let clear_xvec t (v : xvec) =
  for i = 0 to t.xw - 1 do
    Array.unsafe_set v i 0
  done

let blit_xvec t (src : xvec) (dst : xvec) =
  for i = 0 to t.xw - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(* ---- lane arithmetic (characteristic 2) ---- *)

(* c·w for a packed word and c <> 0.  By bit-planes: bit b of every
   lane, isolated, times c·x^b.  Lane by lane: one log/antilog lookup
   per nonzero lane, stopping after the last one. *)
let[@inline] scale t c w =
  if c = 1 then w
  else begin
    let acc = ref 0 in
    if t.planes then begin
      let base = c * t.m in
      for b = 0 to t.m - 1 do
        acc := !acc lxor (((w lsr b) land t.lsb) * Array.unsafe_get t.prods (base + b))
      done
    end
    else begin
      let lc = Array.unsafe_get t.log_ c and rest = ref w and shift = ref 0 in
      while !rest <> 0 do
        let a = !rest land t.mask in
        if a <> 0 then
          acc := !acc lor (Array.unsafe_get t.exp_ (lc + Array.unsafe_get t.log_ a) lsl !shift);
        rest := !rest lsr t.m;
        shift := !shift + t.m
      done
    end;
    !acc
  end

(* The lane at position [p] of a packed row. *)
let[@inline] lane t (v : xvec) p = (Array.unsafe_get v (p lsr 6) lsr (p land 63)) land t.mask

(* The position of the lowest nonzero lane of a word, bit [b] set. *)
let[@inline] lane_start t b = b - (b mod t.m)

(* y <- c·x + y over packed words, c <> 0. *)
let lanes_axpy t c (x : xvec) (y : xvec) =
  for i = 0 to t.xw - 1 do
    Array.unsafe_set y i (Array.unsafe_get y i lxor scale t c (Array.unsafe_get x i))
  done

let pack_into t (v : Mat.vec) (dst : xvec) =
  if Array.length v <> t.k then invalid_arg "Subspace: wrong vector length";
  if t.m = 0 then Array.blit v 0 dst 0 t.k
  else begin
    clear_xvec t dst;
    for j = 0 to t.k - 1 do
      let i = j / t.lanes in
      dst.(i) <- dst.(i) lor ((v.(j) land t.mask) lsl (j mod t.lanes * t.m))
    done
  end

let unpack t (x : xvec) : Mat.vec =
  if t.m = 0 then Array.copy x
  else Array.init t.k (fun j -> (x.(j / t.lanes) lsr (j mod t.lanes * t.m)) land t.mask)

(* Reduce [v] (internal format, clobbered) against the basis; returns the
   pivot of the remainder (a lane position when packed, a column
   otherwise), or -1 if [v] lies in the span.  Basis rows are fully
   reduced, so elimination order is immaterial; in characteristic 2,
   subtracting c·row is adding it. *)
let reduce_xvec t (v : xvec) =
  if t.m = 0 then begin
    let kern = t.kern in
    for i = 0 to t.dim - 1 do
      let c = Array.unsafe_get v (Array.unsafe_get t.pivots i) in
      if c <> 0 then
        Kernel.axpy_into kern ~c:(Kernel.neg kern c) ~x:(Array.unsafe_get t.rows i) ~y:v
    done;
    let j = ref 0 in
    while !j < t.k && Array.unsafe_get v !j = 0 do
      incr j
    done;
    if !j < t.k then !j else -1
  end
  else if t.xw = 1 then begin
    let w = ref (Array.unsafe_get v 0) in
    for i = 0 to t.dim - 1 do
      let c = (!w lsr Array.unsafe_get t.pivots i) land t.mask in
      if c <> 0 then begin
        w := !w lxor scale t c (Array.unsafe_get (Array.unsafe_get t.rows i) 0)
      end
    done;
    Array.unsafe_set v 0 !w;
    if !w = 0 then -1 else lane_start t (Kernel.ctz !w)
  end
  else begin
    for i = 0 to t.dim - 1 do
      let c = lane t v (Array.unsafe_get t.pivots i) in
      if c <> 0 then lanes_axpy t c (Array.unsafe_get t.rows i) v
    done;
    let i = ref 0 in
    while !i < t.xw && Array.unsafe_get v !i = 0 do
      incr i
    done;
    if !i < t.xw then (!i lsl 6) lor lane_start t (Kernel.ctz (Array.unsafe_get v !i)) else -1
  end

let contains_xvec t v = reduce_xvec t v < 0

(* Normalise the reduced row [v] (pivot [piv]) and back-eliminate its
   pivot from every existing row.  [v] is zero at all existing pivots,
   so this preserves full reduction. *)
let normalise_and_eliminate t (v : xvec) piv =
  if t.m = 0 then begin
    let kern = t.kern in
    let c = v.(piv) in
    if c <> 1 then Kernel.scale_into kern ~c:(Kernel.inv kern c) v;
    for i = 0 to t.dim - 1 do
      let row = t.rows.(i) in
      let c = row.(piv) in
      if c <> 0 then Kernel.axpy_into kern ~c:(Kernel.neg kern c) ~x:v ~y:row
    done
  end
  else begin
    let c = lane t v piv in
    if c <> 1 then begin
      let c' = Kernel.inv t.kern c in
      for i = piv lsr 6 to t.xw - 1 do
        Array.unsafe_set v i (scale t c' (Array.unsafe_get v i))
      done
    end;
    if t.xw = 1 then begin
      let x = Array.unsafe_get v 0 in
      for i = 0 to t.dim - 1 do
        let row = Array.unsafe_get t.rows i in
        let w = Array.unsafe_get row 0 in
        let c = (w lsr piv) land t.mask in
        if c <> 0 then Array.unsafe_set row 0 (w lxor scale t c x)
      done
    end
    else
      for i = 0 to t.dim - 1 do
        let row = Array.unsafe_get t.rows i in
        let c = lane t row piv in
        if c <> 0 then lanes_axpy t c v row
      done
  end

(* Incremental RREF insert.  O(dim · k) element operations (O(dim · k/L)
   word operations when packed L lanes to a word), no allocation.
   Clobbers [v]. *)
let insert_xvec t (v : xvec) =
  let piv = reduce_xvec t v in
  if piv < 0 then false
  else begin
    normalise_and_eliminate t v piv;
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
    blit_xvec t v spare;
    t.rows.(!pos) <- spare;
    t.pivots.(!pos) <- piv;
    t.dim <- t.dim + 1;
    true
  end

(* Uniform member of the subspace: one coefficient draw per basis row, in
   basis (pivot) order, applying the row only when the coefficient is
   nonzero — the exact draw sequence of the closure-based tracker. *)
let random_member_into t rng (dst : xvec) =
  let q = t.f.Field.q in
  if t.m > 0 && t.xw = 1 then begin
    let w = ref 0 in
    for i = 0 to t.dim - 1 do
      let c = P2p_prng.Rng.int_below rng q in
      if c <> 0 then begin
        w := !w lxor scale t c (Array.unsafe_get (Array.unsafe_get t.rows i) 0)
      end
    done;
    Array.unsafe_set dst 0 !w
  end
  else begin
    clear_xvec t dst;
    for i = 0 to t.dim - 1 do
      let c = P2p_prng.Rng.int_below rng q in
      if c <> 0 then begin
        if t.m > 0 then lanes_axpy t c (Array.unsafe_get t.rows i) dst
        else Kernel.axpy_into t.kern ~c ~x:(Array.unsafe_get t.rows i) ~y:dst
      end
    done
  end

(* Uniform vector of F_q^K: K draws in ascending index order, matching
   [Mat.random_vec]'s [Array.init] evaluation order draw-for-draw. *)
let random_full_into t rng (dst : xvec) =
  let q = t.f.Field.q in
  if t.m = 0 then
    for j = 0 to t.k - 1 do
      Array.unsafe_set dst j (P2p_prng.Rng.int_below rng q)
    done
  else
    for i = 0 to t.xw - 1 do
      let left = t.k - (i * t.lanes) in
      let n = if left < t.lanes then left else t.lanes in
      let w = ref 0 in
      for l = 0 to n - 1 do
        w := !w lor (P2p_prng.Rng.int_below rng q lsl (l * t.m))
      done;
      Array.unsafe_set dst i !w
    done

(* First uploader basis row outside the downloader's subspace (Remark 16
   smart exchange), copied into [dst]; [dst] is zeroed when the uploader
   is contained.  Returns whether a row was found.  [scratch] is
   clobbered. *)
let first_uncovered_into ~uploader ~downloader ~scratch (dst : xvec) =
  let i = ref 0 in
  while
    !i < uploader.dim
    && begin
         blit_xvec uploader uploader.rows.(!i) scratch;
         contains_xvec downloader scratch
       end
  do
    incr i
  done;
  if !i < uploader.dim then begin
    blit_xvec uploader uploader.rows.(!i) dst;
    true
  end
  else begin
    clear_xvec downloader dst;
    false
  end

(* U ⊆ W implies pivots(U) ⊆ pivots(W): reducing a member of U whose
   leading column is j against W's RREF must consume a W-row with pivot
   exactly j.  The merge walk below is therefore a cheap necessary
   precheck before the row-by-row reduction. *)
let rec pivots_subset a b i j =
  if i >= a.dim then true
  else if j >= b.dim then false
  else begin
    let pa = a.pivots.(i) and pb = b.pivots.(j) in
    if pa = pb then pivots_subset a b (i + 1) (j + 1)
    else if pb < pa then pivots_subset a b i (j + 1)
    else false
  end

(* Two subspaces of one field share its representation (lane layout
   fixed by q, [xw] by k), so their rows reduce against each other
   directly.  Rows of another field would be read as this one's
   elements, so mixing fields is an error. *)
let check_same_field name a b =
  if a.f.Field.q <> b.f.Field.q then invalid_arg ("Subspace." ^ name ^ ": different fields")

let subspace_leq a b =
  check_same_field "subspace_leq" a b;
  a.k = b.k
  && a.dim <= b.dim
  && pivots_subset a b 0 0
  && begin
       let scratch = alloc_xvec b and i = ref 0 in
       while
         !i < a.dim
         && begin
              blit_xvec a a.rows.(!i) scratch;
              contains_xvec b scratch
            end
       do
         incr i
       done;
       !i >= a.dim
     end

(* The RREF is unique, so equal subspaces hold the same rows word for
   word (lanes past K stay zero in every packed row). *)
let rec rows_equal a b i j =
  i >= a.dim
  || if j >= a.xw then rows_equal a b (i + 1) 0
     else a.rows.(i).(j) = b.rows.(i).(j) && rows_equal a b i (j + 1)

let equal a b =
  check_same_field "equal" a b;
  a.k = b.k && a.dim = b.dim && rows_equal a b 0 0

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
    blit_xvec b b.rows.(i) scratch;
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
