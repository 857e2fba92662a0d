type vec = int array

let is_zero_vec v =
  let n = Array.length v in
  let rec go i = i >= n || (Array.unsafe_get v i = 0 && go (i + 1)) in
  go 0

let vec_add (f : Field.t) a b =
  if Array.length a <> Array.length b then invalid_arg "Mat.vec_add: length mismatch";
  Array.init (Array.length a) (fun i -> f.add a.(i) b.(i))

let vec_scale (f : Field.t) c v = Array.map (fun x -> f.mul c x) v

let vec_axpy (f : Field.t) c x y =
  if Array.length x <> Array.length y then invalid_arg "Mat.vec_axpy: length mismatch";
  Array.init (Array.length x) (fun i -> f.add (f.mul c x.(i)) y.(i))

let random_vec (f : Field.t) draw n = Array.init n (fun _ -> draw f.q)

let pivot_column v =
  let n = Array.length v in
  let rec go i = if i >= n then None else if v.(i) <> 0 then Some i else go (i + 1) in
  go 0

let row_reduce (f : Field.t) rows =
  (* Gauss-Jordan over the field; returns normalised nonzero rows sorted by
     pivot column.  Works on copies with the in-place kernels — no
     per-elimination allocation. *)
  let work = Array.map Array.copy rows in
  let m = Array.length work in
  if m = 0 then [||]
  else begin
    let n = Array.length work.(0) in
    Array.iteri
      (fun i row ->
        if Array.length row <> n then
          invalid_arg
            (Printf.sprintf "Mat.row_reduce: ragged rows (row 0 has %d columns, row %d has %d)"
               n i (Array.length row)))
      work;
    let kern = Kernel.of_field f in
    let rank = ref 0 in
    for col = 0 to n - 1 do
      (* Find a pivot row at or below !rank with a nonzero entry in col. *)
      let pivot = ref (-1) in
      for r = !rank to m - 1 do
        if !pivot < 0 && work.(r).(col) <> 0 then pivot := r
      done;
      if !pivot >= 0 then begin
        let tmp = work.(!rank) in
        work.(!rank) <- work.(!pivot);
        work.(!pivot) <- tmp;
        (* Normalise the pivot row. *)
        let prow = work.(!rank) in
        let c = prow.(col) in
        if c <> 1 then Kernel.scale_into kern ~c:(Kernel.inv kern c) prow;
        (* Eliminate the column everywhere else. *)
        for r = 0 to m - 1 do
          if r <> !rank && work.(r).(col) <> 0 then
            Kernel.axpy_into kern ~c:(Kernel.neg kern work.(r).(col)) ~x:prow ~y:work.(r)
        done;
        incr rank
      end
    done;
    Array.sub work 0 !rank
  end

let rank f rows = Array.length (row_reduce f rows)

let reduce_against (f : Field.t) ~basis v =
  let kern = Kernel.of_field f in
  let acc = Array.copy v in
  Array.iter
    (fun row ->
      match pivot_column row with
      | None -> ()
      | Some col ->
          let c = acc.(col) in
          if c <> 0 then Kernel.axpy_into kern ~c:(Kernel.neg kern c) ~x:row ~y:acc)
    basis;
  acc

let in_row_space f ~basis v = is_zero_vec (reduce_against f ~basis v)
