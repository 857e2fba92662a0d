type sparse = {
  targets : int array array;
  rates : float array array;
}

(* Symmetric Gauss–Seidel: [update] every state in [order], then in
   reverse, until [settled ()] holds after a sweep. *)
let sweep ~who ~max_sweeps order update settled =
  let n = Array.length order in
  let rec go count =
    if count >= max_sweeps then failwith (who ^ ": Gauss-Seidel did not converge");
    for idx = 0 to n - 1 do
      update order.(idx)
    done;
    for idx = n - 1 downto 0 do
      update order.(idx)
    done;
    if not (settled ()) then go (count + 1)
  in
  go 0

let sweep_order key =
  let order = Array.init (Array.length key) Fun.id in
  Array.sort (fun a b -> Int.compare key.(a) key.(b)) order;
  order

let outflow s = Array.map (Array.fold_left ( +. ) 0.0) s.rates

let solve ?(tol = 1e-10) ?(max_sweeps = 200_000) s ~sweep_key =
  let n = Array.length s.targets in
  if Array.length s.rates <> n || Array.length sweep_key <> n then
    invalid_arg "Balance.solve: shape mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> Array.length s.rates.(i) then
        invalid_arg "Balance.solve: row shape mismatch")
    s.targets;
  let outflow = outflow s in
  (* reverse adjacency *)
  let in_deg = Array.make n 0 in
  Array.iter (Array.iter (fun j -> in_deg.(j) <- in_deg.(j) + 1)) s.targets;
  let in_src = Array.init n (fun j -> Array.make in_deg.(j) 0) in
  let in_rate = Array.init n (fun j -> Array.make in_deg.(j) 0.0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun e j ->
          in_src.(j).(fill.(j)) <- i;
          in_rate.(j).(fill.(j)) <- s.rates.(i).(e);
          fill.(j) <- fill.(j) + 1)
        row)
    s.targets;
  let pi = Array.make n (1.0 /. float_of_int n) in
  let update j =
    if outflow.(j) > 0.0 then begin
      let inflow = ref 0.0 in
      let src = in_src.(j) and rate = in_rate.(j) in
      for e = 0 to Array.length src - 1 do
        inflow := !inflow +. (pi.(src.(e)) *. rate.(e))
      done;
      pi.(j) <- !inflow /. outflow.(j)
    end
  in
  let previous = Array.copy pi in
  (* normalise, then stop once a sweep moves pi by less than tol in L1 *)
  let settled () =
    let total = Array.fold_left ( +. ) 0.0 pi in
    if total <= 0.0 || not (Float.is_finite total) then
      failwith "Balance.solve: probability mass vanished or diverged";
    let inv = 1.0 /. total and dist = ref 0.0 in
    for i = 0 to n - 1 do
      pi.(i) <- pi.(i) *. inv;
      dist := !dist +. Float.abs (pi.(i) -. previous.(i))
    done;
    Array.blit pi 0 previous 0 n;
    !dist < tol
  in
  sweep ~who:"Balance.solve" ~max_sweeps (sweep_order sweep_key) update settled;
  pi

(* ---- truncated population spaces ---- *)

type space = {
  dims : int;
  n_max : int;
  within : int array;
      (* within.(j * (n_max + 1) + r) = C(r + j, j): the vectors of j
         counts summing to <= r *)
  pop : int array;  (* population of each state, by rank *)
}

let within sp j r = sp.within.((j * (sp.n_max + 1)) + r)

(* Counts in lexicographic order: the last entry varies fastest. *)
let iter sp f =
  let x = Array.make sp.dims 0 and i = ref 0 in
  let rec fill pos remaining =
    if pos = sp.dims then begin
      f !i x (sp.n_max - remaining);
      incr i
    end
    else
      for v = 0 to remaining do
        x.(pos) <- v;
        fill (pos + 1) (remaining - v)
      done
  in
  fill 0 sp.n_max

let space ~who ~dims ~n_max =
  if n_max < 1 then invalid_arg (who ^ ": n_max must be >= 1");
  let count = ref 1.0 in
  for i = 1 to dims do
    count := !count *. float_of_int (n_max + i) /. float_of_int i
  done;
  if !count > 2_000_000.0 then
    invalid_arg (who ^ ": state space too large (reduce K or n_max)");
  let w = n_max + 1 in
  (* split on the first count: zero leaves j - 1 counts within r, one or
     more leaves j counts within r - 1 *)
  let table = Array.make ((dims + 1) * w) 1 in
  for j = 1 to dims do
    for r = 1 to n_max do
      table.((j * w) + r) <- table.(((j - 1) * w) + r) + table.((j * w) + r - 1)
    done
  done;
  let sp = { dims; n_max; within = table; pop = Array.make table.((dims * w) + n_max) 0 } in
  iter sp (fun i _ n -> sp.pop.(i) <- n);
  sp

let size sp = Array.length sp.pop

(* The vectors before x in lexicographic order: at each position, every
   smaller value v with any completion of the positions after it,
   summed by the hockey-stick identity. *)
let rank sp x =
  let r = ref sp.n_max and acc = ref 0 in
  for pos = 0 to sp.dims - 1 do
    let j = sp.dims - pos and r' = !r - x.(pos) in
    if r' < 0 || r' > !r then invalid_arg "Balance.rank: not a state of the space";
    acc := !acc + within sp j !r - within sp j r';
    r := r'
  done;
  !acc

let rows sp fill =
  let n = size sp in
  let targets = Array.make n [||] and rates = Array.make n [||] in
  iter sp (fun i x pop ->
      let row = ref [] in
      fill x pop (fun ~from_ ~to_ rate ->
          if from_ >= 0 || pop < sp.n_max then begin
            if from_ >= 0 then begin
              if x.(from_) = 0 then invalid_arg "Balance.rows: move from an empty slot";
              x.(from_) <- x.(from_) - 1
            end;
            if to_ >= 0 then x.(to_) <- x.(to_) + 1;
            row := (rank sp x, rate) :: !row;
            if to_ >= 0 then x.(to_) <- x.(to_) - 1;
            if from_ >= 0 then x.(from_) <- x.(from_) + 1
          end);
      targets.(i) <- Array.of_list (List.rev_map fst !row);
      rates.(i) <- Array.of_list (List.rev_map snd !row));
  { targets; rates }

let stationary ?tol ?max_sweeps sp s = solve ?tol ?max_sweeps s ~sweep_key:sp.pop

let time_to_empty ?(tol = 1e-10) ?(max_sweeps = 500_000) sp s ~start =
  let outflow = outflow s in
  let h = Array.make (size sp) 0.0 in
  let update i =
    if sp.pop.(i) > 0 && outflow.(i) > 0.0 then begin
      let acc = ref 1.0 in
      let row_t = s.targets.(i) and row_r = s.rates.(i) in
      for e = 0 to Array.length row_t - 1 do
        acc := !acc +. (row_r.(e) *. h.(row_t.(e)))
      done;
      h.(i) <- !acc /. outflow.(i)
    end
  in
  (* stop once a sweep moves the start's value by less than tol, relative *)
  let before = ref 0.0 in
  let settled () =
    let after = h.(start) in
    let moved = Float.abs (after -. !before) in
    before := after;
    moved < tol *. Float.max 1.0 after
  in
  sweep ~who:"Balance.time_to_empty" ~max_sweeps (sweep_order sp.pop) update settled;
  h.(start)

let expect sp pi f =
  let acc = ref 0.0 in
  iter sp (fun i x n -> acc := !acc +. (pi.(i) *. f x n));
  !acc
