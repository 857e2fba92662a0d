type t = { step : float; mutable next : float }

let start ~step = { step; next = (if step < infinity then 0.0 else infinity) }
let[@inline] after g x = x +. g.step

let[@inline] walk g ~through ~horizon f =
  while g.next <= through && g.next <= horizon do
    f g.next;
    g.next <- after g g.next
  done
