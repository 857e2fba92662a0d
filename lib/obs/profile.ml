type cell = { mutable total_s : float; mutable entries : int }

type t = { live : bool; cells : (string, cell) Hashtbl.t; lock : Mutex.t }

let disabled = { live = false; cells = Hashtbl.create 1; lock = Mutex.create () }
let create () = { live = true; cells = Hashtbl.create 8; lock = Mutex.create () }
let enabled t = t.live

type span = { owner : t; label : string; t0 : float; dead : bool }

let dead_span = { owner = disabled; label = ""; t0 = 0.0; dead = true }

let record_locked t label seconds =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.cells label with
  | Some cell ->
      cell.total_s <- cell.total_s +. seconds;
      cell.entries <- cell.entries + 1
  | None -> Hashtbl.add t.cells label { total_s = seconds; entries = 1 });
  Mutex.unlock t.lock

(* Spans ride the monotonic clock: an NTP step under a run must not be
   able to produce negative or wildly inflated phase totals. *)
let start t label = if not t.live then dead_span else { owner = t; label; t0 = Clock.now_s (); dead = false }

let stop span =
  if not span.dead then
    record_locked span.owner span.label (Clock.now_s () -. span.t0)

let time t label f =
  if not t.live then f ()
  else begin
    let span = start t label in
    Fun.protect ~finally:(fun () -> stop span) f
  end

let phases t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold (fun name cell acc -> (name, (cell.total_s, cell.entries)) :: acc) t.cells []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let total_s t = List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0.0 (phases t)

let to_json t =
  Json.Obj
    (List.map
       (fun (name, (total_s, entries)) ->
         (name, Json.Obj [ ("total_s", Json.Float total_s); ("count", Json.Int entries) ]))
       (phases t))

let pp fmt t =
  let entries = phases t in
  let total = total_s t in
  let width =
    List.fold_left (fun acc (name, _) -> Int.max acc (String.length name)) 5 entries
  in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (name, (s, count)) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%-*s %10.4fs  %5.1f%%  (entered %d)" width name s
        (if total > 0.0 then 100.0 *. s /. total else 0.0)
        count)
    entries;
  Format.fprintf fmt "@]"
