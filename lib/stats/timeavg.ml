(* All fields are floats ([started] is 0. or 1.), so the record is stored
   flat and [observe] writes its fields without boxing. *)
type t = {
  mutable last_time : float;
  mutable value : float;
  mutable weighted_sum : float;
  mutable elapsed : float;
  mutable started : float;
}

let create ?(t0 = 0.0) () =
  { last_time = t0; value = 0.0; weighted_sum = 0.0; elapsed = 0.0; started = 0.0 }

(* [advance] and [observe] are inlined: the engine's [observe] calls
   them on every state change. *)
let[@inline] advance t time =
  if time < t.last_time -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Timeavg.observe: time %g before previous %g" time t.last_time);
  let dt = Float.max 0.0 (time -. t.last_time) in
  if t.started > 0.0 then begin
    t.weighted_sum <- t.weighted_sum +. (t.value *. dt);
    t.elapsed <- t.elapsed +. dt
  end;
  t.last_time <- time

let[@inline] observe t ~time ~value =
  advance t time;
  t.value <- value;
  t.started <- 1.0

let close t ~time = advance t time
let average t = if t.elapsed <= 0.0 then nan else t.weighted_sum /. t.elapsed
let elapsed t = t.elapsed

let reset t ~time =
  t.weighted_sum <- 0.0;
  t.elapsed <- 0.0;
  t.last_time <- time
