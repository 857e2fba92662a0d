let n_buckets = 64

type t = {
  h_live : bool;
  buckets : int array;
  mutable count : int;
  (* [| sum; min; max |] in a float array so hot-path updates stay
     unboxed — a mutable float record field would allocate a box per
     store. *)
  acc : float array;
  mutable period : int;
}

let fresh_acc () = [| 0.0; infinity; neg_infinity |]

let disabled =
  { h_live = false; buckets = [||]; count = 0; acc = fresh_acc (); period = 1 }

let create () =
  { h_live = true; buckets = Array.make n_buckets 0; count = 0; acc = fresh_acc (); period = 1 }

let live t = t.h_live

(* floor log2 of a positive int by binary stepping — six compares
   instead of a per-bit loop; this runs once per recorded value on the
   hot path.  Straight-line shadowed lets on ints: no allocation (a
   local [ref] would heap-allocate). *)
let[@inline] log2i n =
  let r = 0 in
  let n, r = if n >= 1 lsl 32 then (n lsr 32, r + 32) else (n, r) in
  let n, r = if n >= 1 lsl 16 then (n lsr 16, r + 16) else (n, r) in
  let n, r = if n >= 1 lsl 8 then (n lsr 8, r + 8) else (n, r) in
  let n, r = if n >= 1 lsl 4 then (n lsr 4, r + 4) else (n, r) in
  let n, r = if n >= 1 lsl 2 then (n lsr 2, r + 2) else (n, r) in
  if n >= 2 then r + 1 else r

(* Bucket 1..62 covers [2^(b-32), 2^(b-31)); 0 and 63 absorb the
   tails.  Scaling by 2^31 keeps the intermediate below OCaml's 63-bit
   int range for every value under the overflow guard. *)
let bucket_of v =
  if not (v > 0.0) then 0
  else if v >= 2147483648.0 (* 2^31 *) then 63
  else
    let n = int_of_float (v *. 2147483648.0) in
    if n <= 0 then 0 else log2i n + 1

let bucket_lower_bound b =
  if b <= 0 then 0.0 else Float.ldexp 1.0 (b - 32)

(* Unsafe stores below: [bucket_of] clamps to [0, 63] and a live
   histogram always has [n_buckets] buckets, so the indices cannot
   escape — and the bounds checks are a measurable share of the
   per-event budget. *)
let record t v =
  if t.h_live then begin
    let b = bucket_of v in
    Array.unsafe_set t.buckets b (Array.unsafe_get t.buckets b + 1);
    t.count <- t.count + 1;
    Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. v);
    if v < Array.unsafe_get t.acc 1 then Array.unsafe_set t.acc 1 v;
    if v > Array.unsafe_get t.acc 2 then Array.unsafe_set t.acc 2 v
  end

(* [record t 1.0] specialised for the per-event-type counters the probe
   bumps on {e every} engine event: bucket, min and max are constants
   (1.0 lands in bucket 32, its lower bound), so the whole update is two
   integer bumps and one float add — no [bucket_of], no compares. *)
let[@inline] record_unit t =
  if t.h_live then begin
    Array.unsafe_set t.buckets 32 (Array.unsafe_get t.buckets 32 + 1);
    if t.count = 0 then begin
      Array.unsafe_set t.acc 1 1.0;
      Array.unsafe_set t.acc 2 1.0
    end;
    t.count <- t.count + 1;
    Array.unsafe_set t.acc 0 (Array.unsafe_get t.acc 0 +. 1.0)
  end

let count t = t.count
let sum t = t.acc.(0)
let mean t = if t.count = 0 then nan else t.acc.(0) /. float_of_int t.count
let min_value t = if t.count = 0 then nan else t.acc.(1)
let max_value t = if t.count = 0 then nan else t.acc.(2)
let buckets t = if t.h_live then Array.copy t.buckets else Array.make n_buckets 0
let sample_period t = t.period

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Hist.quantile: q outside [0, 1]";
  if t.count = 0 then nan
  else begin
    let target = Float.max 1.0 (Float.round (q *. float_of_int t.count)) in
    let seen = ref 0 and b = ref 0 and found = ref (n_buckets - 1) in
    (try
       while !b < n_buckets do
         seen := !seen + t.buckets.(!b);
         if float_of_int !seen >= target then begin
           found := !b;
           raise Exit
         end;
         incr b
       done
     with Exit -> ());
    bucket_lower_bound !found
  end

let merge_into ~into src =
  if src.h_live then begin
    if not into.h_live then invalid_arg "Hist.merge_into: destination is disabled";
    for i = 0 to n_buckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done;
    into.count <- into.count + src.count;
    into.acc.(0) <- into.acc.(0) +. src.acc.(0);
    if src.acc.(1) < into.acc.(1) then into.acc.(1) <- src.acc.(1);
    if src.acc.(2) > into.acc.(2) then into.acc.(2) <- src.acc.(2);
    if src.period > into.period then into.period <- src.period
  end

let merge a b =
  let t = create () in
  t.period <- 1;
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

(* ---- sampled timers ---- *)

type timer = { th : t; t_period : int; mutable left : int }

let timer ?(period = 256) h =
  if period < 1 then invalid_arg "Hist.timer: period < 1";
  if h.h_live then begin
    h.period <- period;
    { th = h; t_period = period; left = period }
  end
  else { th = h; t_period = 0; left = 0 }

let[@inline] tick tm =
  if tm.left > 1 then begin
    tm.left <- tm.left - 1;
    0.0
  end
  else if tm.left = 1 then begin
    tm.left <- tm.t_period;
    Clock.now_s ()
  end
  else 0.0 (* dead timer: [left] pinned at 0, never reads the clock *)

let[@inline] tock tm t0 = if t0 > 0.0 then record tm.th (Clock.now_s () -. t0)

(* ---- named groups ---- *)

type group = { g_live : bool; tbl : (string, t) Hashtbl.t; lock : Mutex.t }

let disabled_group = { g_live = false; tbl = Hashtbl.create 1; lock = Mutex.create () }
let group () = { g_live = true; tbl = Hashtbl.create 16; lock = Mutex.create () }
let enabled g = g.g_live

let get g name =
  if not g.g_live then disabled
  else begin
    Mutex.lock g.lock;
    let h =
      match Hashtbl.find_opt g.tbl name with
      | Some h -> h
      | None ->
          let h = create () in
          Hashtbl.add g.tbl name h;
          h
    in
    Mutex.unlock g.lock;
    h
  end

let hists g =
  Mutex.lock g.lock;
  let entries = Hashtbl.fold (fun name h acc -> (name, h) :: acc) g.tbl [] in
  Mutex.unlock g.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

(* ---- serialisation ---- *)

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Float t.acc.(0));
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("sample_period", Json.Int t.period);
      ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) (buckets t))));
    ]

let of_json j =
  let field name = Json.member name j in
  let int_field name =
    match Option.bind (field name) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "hist: missing int field %S" name)
  in
  let float_field name =
    match Option.bind (field name) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "hist: missing number field %S" name)
  in
  let ( let* ) = Result.bind in
  let* count = int_field "count" in
  let* sum = float_field "sum" in
  let* mn = float_field "min" in
  let* mx = float_field "max" in
  let* period = int_field "sample_period" in
  match Option.bind (field "buckets") Json.to_list_opt with
  | None -> Error "hist: missing \"buckets\" array"
  | Some items ->
      if List.length items <> n_buckets then
        Error (Printf.sprintf "hist: expected %d buckets, got %d" n_buckets (List.length items))
      else begin
        let t = create () in
        t.count <- count;
        t.acc.(0) <- sum;
        t.acc.(1) <- (if count = 0 then infinity else mn);
        t.acc.(2) <- (if count = 0 then neg_infinity else mx);
        t.period <- period;
        match
          List.iteri
            (fun i item ->
              match Json.to_int_opt item with
              | Some c -> t.buckets.(i) <- c
              | None -> raise Exit)
            items
        with
        | () -> Ok t
        | exception Exit -> Error "hist: non-integer bucket count"
      end

let schema = "p2p-hist"

let write_group_file g path =
  Json.write_file_atomic path (fun oc ->
      Json.to_channel oc
        (Json.Obj
           [
             ("schema", Json.String schema);
             ("version", Json.Int 1);
             ("hists", Json.Obj (List.map (fun (name, h) -> (name, to_json h)) (hists g)));
           ]);
      output_char oc '\n')

let read_group_file path =
  let ( let* ) = Result.bind in
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let* content = try Ok (read ()) with Sys_error msg -> Error msg in
  let* j = Json.of_string content in
  let* () =
    match Option.bind (Json.member "schema" j) Json.to_string_opt with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "hist file: schema %S, wanted %S" s schema)
    | None -> Error "hist file: no schema field"
  in
  match Json.member "hists" j with
  | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (name, hj) ->
          let* acc = acc in
          let* h = of_json hj in
          Ok ((name, h) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
  | _ -> Error "hist file: no \"hists\" object"

let pp_named fmt (name, t) =
  Format.fprintf fmt "@[<v>%s: %d recorded" name t.count;
  if t.count > 0 then begin
    Format.fprintf fmt ", mean %.3g, min %.3g, max %.3g" (mean t) (min_value t) (max_value t);
    if t.period > 1 then Format.fprintf fmt " (1-in-%d sampled)" t.period;
    let most = Array.fold_left Int.max 1 t.buckets in
    Array.iteri
      (fun b c ->
        if c > 0 then begin
          let bar = String.make (Int.max 1 (c * 40 / most)) '#' in
          Format.fprintf fmt "@,  [%8.3g, %8.3g) %10d %s" (bucket_lower_bound b)
            (bucket_lower_bound (b + 1))
            c bar
        end)
      t.buckets
  end;
  Format.fprintf fmt "@]"
