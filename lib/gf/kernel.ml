(* Specialised arithmetic kernels compiled from a Field.t.

   The closure-based Field.t record is the reference semantics; a Kernel.t
   is the same arithmetic with the dispatch hoisted out of the inner loop:
   one variant match per row operation instead of two indirect calls per
   element.  The row kernels mutate their destination in place — the
   subspace tracker's hot path does zero allocation per event. *)

type t =
  | Gf2
  | Char2 of { q : int; exp_ : int array; log_ : int array; lane_ : int array }
  | Prime of { p : int; inv_ : int array }
  | Generic of Field.t

let lane_table_max_m = 7

(* [exp_] is the doubled antilog table: length 2(q-1), with
   [exp_.(i) = g^(i mod (q-1))], so a product's log sum indexes it
   directly — no [mod] on the multiply path.  [lane_] holds c·x^b at
   [c*m + b] (the element x^b is [1 lsl b] in the polynomial encoding),
   or nothing above [lane_table_max_m]. *)
let compile (f : Field.t) =
  if f.q = 2 then Gf2
  else if f.p = 2 then begin
    match f.tables with
    | Some (exp_tbl, log_tbl) ->
        let n = f.q - 1 in
        let exp_ = Array.make (2 * n) 0 in
        Array.blit exp_tbl 0 exp_ 0 n;
        Array.blit exp_tbl 0 exp_ n n;
        let m = f.m in
        let lane_ =
          if m > lane_table_max_m then [||]
          else
            Array.init (f.q * m) (fun i ->
                let c = i / m and b = i mod m in
                if c = 0 then 0 else exp_.(log_tbl.(c) + log_tbl.(1 lsl b)))
        in
        Char2 { q = f.q; exp_; log_ = Array.copy log_tbl; lane_ }
    | None -> Generic f (* unreachable: char-2 fields with q > 2 are extensions *)
  end
  else if f.m = 1 then begin
    (* Flat inverse table: GF(p) multiplication is already a single
       [mod], only inversion (egcd) is worth tabling. *)
    let inv_ = Array.make f.p 0 in
    for a = 1 to f.p - 1 do
      inv_.(a) <- f.inv a
    done;
    Prime { p = f.p; inv_ }
  end
  else Generic f (* odd-characteristic extensions (9, 25, 27, ...) *)

(* Kernels are memoised per field size alongside Field.gf's own memo:
   construction is deterministic in q, so keying by q is sound, and
   per-peer subspace creation must not rebuild the doubled tables. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let of_field (f : Field.t) =
  Mutex.lock lock;
  match Hashtbl.find_opt cache f.q with
  | Some k ->
      Mutex.unlock lock;
      k
  | None -> (
      match compile f with
      | k ->
          Hashtbl.add cache f.q k;
          Mutex.unlock lock;
          k
      | exception e ->
          Mutex.unlock lock;
          raise e)

let q = function
  | Gf2 -> 2
  | Char2 c -> c.q
  | Prime p -> p.p
  | Generic f -> f.q

(* ---- element operations (reference surface for the property tests) ---- *)

let add t a b =
  match t with
  | Gf2 | Char2 _ -> a lxor b
  | Prime { p; _ } -> (a + b) mod p
  | Generic f -> f.add a b

let neg t a =
  match t with
  | Gf2 | Char2 _ -> a
  | Prime { p; _ } -> if a = 0 then 0 else p - a
  | Generic f -> f.neg a

let sub t a b = add t a (neg t b)

let mul t a b =
  match t with
  | Gf2 -> a land b
  | Char2 { exp_; log_; _ } -> if a = 0 || b = 0 then 0 else exp_.(log_.(a) + log_.(b))
  | Prime { p; _ } -> a * b mod p
  | Generic f -> f.mul a b

let inv t a =
  match t with
  | Gf2 -> if a = 0 then raise Division_by_zero else 1
  | Char2 { q; exp_; log_; _ } ->
      if a = 0 then raise Division_by_zero
      else if a = 1 then 1
      else exp_.(q - 1 - log_.(a))
  | Prime { inv_; _ } -> if a = 0 then raise Division_by_zero else inv_.(a)
  | Generic f -> f.inv a

(* ---- in-place row kernels ----

   These replace Mat.vec_axpy / Mat.vec_scale on the subspace hot path:
   the [Array.init]-per-call allocation becomes a mutating loop, and the
   per-element closure dispatch becomes one match per row. *)

(* y <- c*x + y.  Skips the row when c = 0. *)
let axpy_into t ~c ~x ~y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Kernel.axpy_into: length mismatch";
  if c <> 0 then begin
    match t with
    | Gf2 ->
        for i = 0 to n - 1 do
          Array.unsafe_set y i (Array.unsafe_get y i lxor Array.unsafe_get x i)
        done
    | Char2 { exp_; log_; _ } ->
        let lc = log_.(c) in
        for i = 0 to n - 1 do
          let xi = Array.unsafe_get x i in
          if xi <> 0 then
            Array.unsafe_set y i
              (Array.unsafe_get y i lxor Array.unsafe_get exp_ (lc + Array.unsafe_get log_ xi))
        done
    | Prime { p; _ } ->
        for i = 0 to n - 1 do
          Array.unsafe_set y i
            ((Array.unsafe_get y i + (c * Array.unsafe_get x i)) mod p)
        done
    | Generic f ->
        for i = 0 to n - 1 do
          Array.unsafe_set y i (f.add (f.mul c (Array.unsafe_get x i)) (Array.unsafe_get y i))
        done
  end

(* v <- c*v. *)
let scale_into t ~c v =
  let n = Array.length v in
  match t with
  | Gf2 -> if c = 0 then Array.fill v 0 n 0
  | Char2 { exp_; log_; _ } ->
      if c = 0 then Array.fill v 0 n 0
      else if c <> 1 then begin
        let lc = log_.(c) in
        for i = 0 to n - 1 do
          let vi = Array.unsafe_get v i in
          if vi <> 0 then
            Array.unsafe_set v i (Array.unsafe_get exp_ (lc + Array.unsafe_get log_ vi))
        done
      end
  | Prime { p; _ } ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (c * Array.unsafe_get v i mod p)
      done
  | Generic f ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (f.mul c (Array.unsafe_get v i))
      done

(* ---- lane products ---- *)

let gf2_lanes = [| 0; 1 |]

let lane_products = function
  | Gf2 -> gf2_lanes
  | Char2 { lane_; _ } -> lane_
  | Prime _ | Generic _ -> [||]

(* Count trailing zeros of a nonzero int by isolating the lowest set bit
   and binary-stepping — six compares, no table. *)
let ctz x =
  let x = x land -x in
  let n = 0 in
  let x, n = if x land 0x7FFFFFFF = 0 then (x lsr 31, n + 31) else (x, n) in
  let x, n = if x land 0xFFFF = 0 then (x lsr 16, n + 16) else (x, n) in
  let x, n = if x land 0xFF = 0 then (x lsr 8, n + 8) else (x, n) in
  let x, n = if x land 0xF = 0 then (x lsr 4, n + 4) else (x, n) in
  let x, n = if x land 0x3 = 0 then (x lsr 2, n + 2) else (x, n) in
  if x land 0x1 = 0 then n + 1 else n
