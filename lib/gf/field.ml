type t = {
  q : int;
  p : int;
  m : int;
  add : int -> int -> int;
  sub : int -> int -> int;
  neg : int -> int;
  mul : int -> int -> int;
  inv : int -> int;
  div : int -> int -> int;
  tables : (int array * int array) option;
}

let is_prime n =
  if n < 2 then false
  else begin
    let rec check d = d * d > n || (n mod d <> 0 && check (d + 1)) in
    check 2
  end

(* ---- prime fields ---- *)

let rec egcd a b = if b = 0 then (a, 1, 0) else
  let g, x, y = egcd b (a mod b) in
  (g, y, x - (a / b * y))

let mod_inverse a p =
  let a = ((a mod p) + p) mod p in
  if a = 0 then raise Division_by_zero;
  let _, x, _ = egcd a p in
  ((x mod p) + p) mod p

let prime p =
  if not (is_prime p) then invalid_arg (Printf.sprintf "Field.prime: %d is not prime" p);
  let add a b = (a + b) mod p in
  let neg a = if a = 0 then 0 else p - a in
  let sub a b = add a (neg b) in
  let mul a b = a * b mod p in
  let inv a = mod_inverse a p in
  let div a b = mul a (inv b) in
  { q = p; p; m = 1; add; sub; neg; mul; inv; div; tables = None }

(* ---- extension fields GF(p^m) ----

   Elements are base-p digit strings of length m, encoded as integers.
   Polynomial arithmetic is done digit-wise; multiplication reduces modulo
   a monic irreducible polynomial found by exhaustive search. *)

let digits ~p ~m x =
  let d = Array.make m 0 in
  let rec fill i x =
    if i < m then begin
      d.(i) <- x mod p;
      fill (i + 1) (x / p)
    end
  in
  fill 0 x;
  d

let undigits ~p d =
  Array.fold_right (fun digit acc -> (acc * p) + digit) d 0

(* Polynomial multiplication of two degree-(m-1) polynomials followed by
   reduction modulo the monic irreducible [irr] (of degree m, given by its
   m lower coefficients; leading coefficient 1 implicit). *)
let poly_mulmod ~p ~m ~irr a b =
  let prod = Array.make ((2 * m) - 1) 0 in
  for i = 0 to m - 1 do
    if a.(i) <> 0 then
      for j = 0 to m - 1 do
        prod.(i + j) <- (prod.(i + j) + (a.(i) * b.(j))) mod p
      done
  done;
  (* Reduce: x^m = -irr (mod the irreducible), applied from the top down. *)
  for d = (2 * m) - 2 downto m do
    let c = prod.(d) in
    if c <> 0 then begin
      prod.(d) <- 0;
      for j = 0 to m - 1 do
        prod.(d - m + j) <- (((prod.(d - m + j) - (c * irr.(j))) mod p) + (p * p)) mod p
      done
    end
  done;
  Array.sub prod 0 m

(* Does [cand] (monic, degree m, lower coefficients given) have a divisor
   that is a monic polynomial of degree between 1 and m/2?  We test by
   trial division over all such divisors; q is small so this is cheap. *)
let poly_divides ~p ~deg_divisor divisor_low cand_low m =
  (* Divide x^m + cand_low by the monic divisor; return true iff the
     remainder is zero.  Work on a copy of the full coefficient array. *)
  let coeffs = Array.make (m + 1) 0 in
  Array.blit cand_low 0 coeffs 0 m;
  coeffs.(m) <- 1;
  for d = m downto deg_divisor do
    let lead = coeffs.(d) in
    if lead <> 0 then begin
      coeffs.(d) <- 0;
      for j = 0 to deg_divisor - 1 do
        let idx = d - deg_divisor + j in
        coeffs.(idx) <- (((coeffs.(idx) - (lead * divisor_low.(j))) mod p) + (p * p)) mod p
      done
    end
  done;
  Array.for_all (fun c -> c = 0) coeffs

let is_irreducible ~p ~m cand_low =
  if cand_low.(0) = 0 then false (* divisible by x *)
  else begin
    let reducible = ref false in
    let half = m / 2 in
    let deg = ref 1 in
    while (not !reducible) && !deg <= half do
      (* All monic polynomials of degree !deg: p^!deg choices of lower
         coefficients. *)
      let count = int_of_float (float_of_int p ** float_of_int !deg) in
      let idx = ref 0 in
      while (not !reducible) && !idx < count do
        let divisor_low = digits ~p ~m:!deg !idx in
        if poly_divides ~p ~deg_divisor:!deg divisor_low cand_low m then reducible := true;
        incr idx
      done;
      incr deg
    done;
    not !reducible
  end

let find_irreducible ~p ~m =
  let count = int_of_float (float_of_int p ** float_of_int m) in
  let rec search i =
    if i >= count then failwith "Field: no irreducible polynomial found (impossible)"
    else begin
      let cand = digits ~p ~m i in
      if is_irreducible ~p ~m cand then cand else search (i + 1)
    end
  in
  search 1

let extension ~p ~m =
  if not (is_prime p) then invalid_arg "Field.extension: p must be prime";
  if m < 1 then invalid_arg "Field.extension: m must be >= 1";
  if m = 1 then prime p
  else begin
    let qf = float_of_int p ** float_of_int m in
    if qf > 65536.0 then invalid_arg "Field.extension: q > 65536 unsupported";
    let q = int_of_float qf in
    let irr = find_irreducible ~p ~m in
    let add a b =
      let da = digits ~p ~m a and db = digits ~p ~m b in
      undigits ~p (Array.init m (fun i -> (da.(i) + db.(i)) mod p))
    in
    let neg a =
      let da = digits ~p ~m a in
      undigits ~p (Array.map (fun d -> if d = 0 then 0 else p - d) da)
    in
    let sub a b = add a (neg b) in
    let raw_mul a b =
      let da = digits ~p ~m a and db = digits ~p ~m b in
      undigits ~p (poly_mulmod ~p ~m ~irr da db)
    in
    (* Discrete log tables over a primitive element. *)
    let find_generator () =
      let order x =
        let rec go acc count = if acc = 1 then count else go (raw_mul acc x) (count + 1) in
        go x 1
      in
      let rec search g =
        if g >= q then failwith "Field: no generator found (impossible)"
        else if order g = q - 1 then g
        else search (g + 1)
      in
      search 1
    in
    let g = find_generator () in
    let exp_tbl = Array.make (q - 1) 0 in
    let log_tbl = Array.make q (-1) in
    let acc = ref 1 in
    for i = 0 to q - 2 do
      exp_tbl.(i) <- !acc;
      log_tbl.(!acc) <- i;
      acc := raw_mul !acc g
    done;
    let mul a b =
      if a = 0 || b = 0 then 0 else exp_tbl.((log_tbl.(a) + log_tbl.(b)) mod (q - 1))
    in
    let inv a =
      if a = 0 then raise Division_by_zero
      else if a = 1 then 1
      else exp_tbl.(q - 1 - log_tbl.(a))
    in
    let div a b = mul a (inv b) in
    { q; p; m; add; sub; neg; mul; inv; div; tables = Some (exp_tbl, log_tbl) }
  end

(* Table construction (irreducible search, generator search, log/antilog
   fill) is pure in [q], so fields are memoised per size: replicated runs
   and per-peer subspace creation share one table set per field instead of
   rebuilding it.  The lock makes the cache safe under the Domain-parallel
   replication runner. *)
let gf_cache : (int, t) Hashtbl.t = Hashtbl.create 8
let gf_lock = Mutex.create ()

(* [q = p^m] as [Some (p, m)], or [None] when q is not a prime power. *)
let prime_power q =
  let rec smallest_factor d = if d * d > q then q else if q mod d = 0 then d else smallest_factor (d + 1) in
  let p = smallest_factor 2 in
  let rec degree x m =
    if x = 1 then Some (p, m) else if x mod p = 0 then degree (x / p) (m + 1) else None
  in
  if q < 2 then None else degree q 0

let is_prime_power q = prime_power q <> None

let gf_uncached q =
  match prime_power q with
  | None -> invalid_arg (Printf.sprintf "Field.gf: %d is not a prime power" q)
  | Some (p, 1) -> prime p
  | Some (p, m) -> extension ~p ~m

let gf q =
  Mutex.lock gf_lock;
  match Hashtbl.find_opt gf_cache q with
  | Some f ->
      Mutex.unlock gf_lock;
      f
  | None -> (
      (* Construction runs under the lock: it is cheap (bounded by
         q <= 65536) and doing it locked keeps the cache
         single-assignment, so [gf q == gf q] always holds. *)
      match gf_uncached q with
      | f ->
          Hashtbl.add gf_cache q f;
          Mutex.unlock gf_lock;
          f
      | exception e ->
          Mutex.unlock gf_lock;
          raise e)

let pow f x n =
  if n < 0 then invalid_arg "Field.pow: negative exponent";
  let rec go base n acc =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then f.mul acc base else acc in
      go (f.mul base base) (n lsr 1) acc
    end
  in
  go x n 1
