type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 16 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let ensure_sorted t =
  if not t.sorted then begin
    let view = Array.sub t.data 0 t.len in
    Array.sort Float.compare view;
    Array.blit view 0 t.data 0 t.len;
    t.sorted <- true
  end

let quantile t q =
  if t.len = 0 then invalid_arg "Quantile.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.quantile: q out of [0,1]";
  ensure_sorted t;
  let pos = q *. float_of_int (t.len - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then t.data.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    ((1.0 -. frac) *. t.data.(lo)) +. (frac *. t.data.(hi))
  end

let median t = quantile t 0.5
