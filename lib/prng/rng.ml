(* xoshiro256** 1.0 (Blackman & Vigna, public domain reference
   implementation), seeded via SplitMix64.  The state step uses Int64
   arithmetic, since OCaml's native [int] keeps only 63 bits; the draws
   below narrow each output to a native [int] as soon as they can. *)

(* The four state words live in one 32-byte [Bytes.t] (words 0..3 at
   byte offsets 0, 8, 16, 24).  The [%caml_bytes_*64u] primitives compile
   to plain unboxed loads and stores, so a step allocates nothing and runs
   no write barrier; [int64] record fields would box all six writes. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64 step: used only for seeding and stream splitting. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let sm = ref (Int64.of_int seed) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

(* Derive the [stream]-th generator of the family rooted at [master]:
   perturb the SplitMix64 chain of [master] by the golden-ratio-scrambled
   stream index, then draw the xoshiro state as in [of_seed].  Used by the
   replication runner with stream = replication index. *)
let of_seed_pair ~master ~stream =
  let sm = ref (Int64.of_int master) in
  let base = splitmix64 sm in
  let sm = ref (Int64.logxor base (Int64.mul (Int64.of_int stream) 0x9E3779B97F4A7C15L)) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] bits64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let split t =
  (* Derive a child state by running SplitMix64 on fresh output of [t].
     The child state is decorrelated from the parent's future stream. *)
  let sm = ref (bits64 t) in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  make s0 s1 s2 s3

(* Jump polynomial for 2^128 steps, from the reference implementation. *)
let jump_tbl = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun jv ->
      for b = 0 to 63 do
        if Int64.logand jv (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 (get t 0);
          s1 := Int64.logxor !s1 (get t 8);
          s2 := Int64.logxor !s2 (get t 16);
          s3 := Int64.logxor !s3 (get t 24)
        end;
        ignore (bits64 t)
      done)
    jump_tbl;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

(* The low 62 bits of the next output as a native [int]: [Int64.to_int]
   keeps the low 63, so the mask is exact. *)
let[@inline] bits62 t = Int64.to_int (bits64 t) land 0x3FFF_FFFF_FFFF_FFFF

(* The top 53 bits of the next output; [float_of_int] of a 53-bit value is
   exact, so this equals [Int64.to_float] of the shifted word. *)
let[@inline] bits53 t = float_of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11))

(* Rejection sampling on the low 62 bits: a draw above
   [limit = mask - (mask mod n)] is redrawn, an accepted one is returned
   [mod n].  The common path pays no division for the limit: a power of
   two has [mask mod n = n - 1] and [r mod n = r land (n - 1)], and for
   any other [n] every [r <= mask - n] is below the limit, so [mask mod n]
   is computed only for the few draws above that. *)
let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  if n = 1 then 0
  else begin
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    if n land (n - 1) = 0 then begin
      let limit = mask - (n - 1) in
      let r = ref (bits62 t) in
      while !r > limit do
        r := bits62 t
      done;
      !r land (n - 1)
    end
    else begin
      let r = ref (bits62 t) in
      while !r > mask - n && !r > mask - (mask mod n) do
        r := bits62 t
      done;
      !r mod n
    end
  end

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int_below t (hi - lo + 1)

(* 53 top bits mapped to [0,1) and (0,1].  Inlined, so a caller in
   another module (the engine's [u], [Dist.exponential]) keeps the float
   unboxed; returned from a call, it would be boxed. *)
let[@inline] float t = bits53 t *. 0x1.0p-53
let[@inline] float_pos t = (bits53 t +. 1.0) *. 0x1.0p-53
let bool t = Int64.compare (bits64 t) 0L < 0

let bernoulli t ~p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

let pp fmt t =
  Format.fprintf fmt "xoshiro256**{%Lx;%Lx;%Lx;%Lx}" (get t 0) (get t 8) (get t 16) (get t 24)

