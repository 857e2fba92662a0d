type mat = float array array
type vec = float array

let make ~rows ~cols v = Array.make_matrix rows cols v

let identity n =
  let m = make ~rows:n ~cols:n 0.0 in
  for i = 0 to n - 1 do
    m.(i).(i) <- 1.0
  done;
  m

let dims m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

let transpose m =
  let rows, cols = dims m in
  Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

let mat_mul a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> rb then invalid_arg "Linalg.mat_mul: dimension mismatch";
  Array.init ra (fun i ->
      Array.init cb (fun j ->
          let acc = ref 0.0 in
          for k = 0 to ca - 1 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

let mat_vec a x =
  let ra, ca = dims a in
  if ca <> Array.length x then invalid_arg "Linalg.mat_vec: dimension mismatch";
  Array.init ra (fun i ->
      let acc = ref 0.0 in
      for k = 0 to ca - 1 do
        acc := !acc +. (a.(i).(k) *. x.(k))
      done;
      !acc)

let elementwise f a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ra <> rb || ca <> cb then invalid_arg "Linalg: dimension mismatch";
  Array.init ra (fun i -> Array.init ca (fun j -> f a.(i).(j) b.(i).(j)))

let mat_sub = elementwise ( -. )

let solve a b =
  let n = Array.length a in
  if n = 0 || Array.length b <> n then invalid_arg "Linalg.solve: dimension mismatch";
  (* Work on copies; forward elimination with partial pivoting. *)
  let m = Array.map Array.copy a in
  let rhs = Array.copy b in
  for col = 0 to n - 1 do
    let pivot_row = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs m.(r).(col) > Float.abs m.(!pivot_row).(col) then pivot_row := r
    done;
    if Float.abs m.(!pivot_row).(col) < 1e-12 then failwith "Linalg.solve: singular matrix";
    if !pivot_row <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot_row);
      m.(!pivot_row) <- tmp;
      let tb = rhs.(col) in
      rhs.(col) <- rhs.(!pivot_row);
      rhs.(!pivot_row) <- tb
    end;
    for r = col + 1 to n - 1 do
      let factor = m.(r).(col) /. m.(col).(col) in
      if factor <> 0.0 then begin
        for c = col to n - 1 do
          m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
        done;
        rhs.(r) <- rhs.(r) -. (factor *. rhs.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let acc = ref rhs.(row) in
    for c = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(c) *. x.(c))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

let inverse a =
  let n = Array.length a in
  let cols =
    List.init n (fun j ->
        let e = Array.make n 0.0 in
        e.(j) <- 1.0;
        solve a e)
  in
  Array.init n (fun i -> Array.init n (fun j -> (List.nth cols j).(i)))

let vec_norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x
let vec_sub a b = Array.mapi (fun i v -> v -. b.(i)) a
let vec_add a b = Array.mapi (fun i v -> v +. b.(i)) a
let vec_scale c x = Array.map (fun v -> c *. v) x

let spectral_radius ?(iterations = 1000) ?(tol = 1e-12) m =
  let n = Array.length m in
  if n = 0 then 0.0
  else begin
    let x = ref (Array.make n 1.0) in
    let lambda = ref 0.0 in
    let continue = ref true in
    let iter = ref 0 in
    while !continue && !iter < iterations do
      incr iter;
      let y = mat_vec m !x in
      let norm = vec_norm_inf y in
      if norm <= 0.0 then begin
        lambda := 0.0;
        continue := false
      end
      else begin
        let y = vec_scale (1.0 /. norm) y in
        if Float.abs (norm -. !lambda) < tol *. Float.max 1.0 norm then continue := false;
        lambda := norm;
        x := y
      end
    done;
    !lambda
  end
