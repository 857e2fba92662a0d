module Regression = P2p_stats.Regression

(* The detector's thresholds, as the interface states them. *)
let window = 24
let pin_threshold = 2
let pin_fraction = 0.8
let min_one_club = 8
let min_slope = 0.0
let min_t_stat = 4.0

type alert = {
  at : float;
  one_club : int;
  rarest_piece : int;
  rarest_count : int;
  slope : float;
  t_stat : float;
}

type t = {
  on_alert : alert -> unit;
  (* Sample j is stored at slot j mod window and again [window] slots
     later, so the window is always the [window] slots from (seen mod
     window), oldest first, as the fit reads it; sample times increase,
     so this is time order. *)
  times : float array;
  clubs : float array;
  window_points : Regression.points;  (* times against clubs *)
  rares : int array;
  mutable pinned : int;  (* entries of [rares] at or under [pin_threshold] *)
  mutable seen : int;
  mutable alerts_rev : alert list;
  mutable episodes_rev : (float * float option) list;
  mutable in_episode : bool;
}

let create ?(on_alert = fun _ -> ()) () =
  let times = Array.make (2 * window) 0.0 and clubs = Array.make (2 * window) 0.0 in
  {
    on_alert;
    times;
    clubs;
    window_points = Regression.Arrays (times, clubs);
    rares = Array.make window 0;
    pinned = window;
    seen = 0;
    alerts_rev = [];
    episodes_rev = [];
    in_episode = false;
  }

let samples_seen t = t.seen
let alerts t = List.rev t.alerts_rev
let episodes t = List.rev t.episodes_rev
let alerting t = t.in_episode

(* The syndrome test over the current window: scarcity pinned for most
   of it AND the one-club drifting up with statistical significance.
   O(window) arithmetic on the window's own arrays, once per probe sample. *)
let condition t =
  if float_of_int t.pinned < pin_fraction *. float_of_int window then None
  else
    match Regression.fit_points t.window_points ~pos:(t.seen mod window) ~len:window with
    | exception Invalid_argument _ -> None (* degenerate window (repeated times) *)
    | fit ->
        let t_stat = Regression.slope_t_statistic fit in
        if fit.Regression.slope > min_slope && t_stat >= min_t_stat then
          Some (fit.Regression.slope, t_stat)
        else None

let observe t ~time ~one_club ~rarest_piece ~rarest_count =
  let slot = t.seen mod window in
  t.times.(slot) <- time;
  t.times.(slot + window) <- time;
  t.clubs.(slot) <- float_of_int one_club;
  t.clubs.(slot + window) <- float_of_int one_club;
  if t.rares.(slot) <= pin_threshold then t.pinned <- t.pinned - 1;
  if rarest_count <= pin_threshold then t.pinned <- t.pinned + 1;
  t.rares.(slot) <- rarest_count;
  t.seen <- t.seen + 1;
  if t.seen >= window && one_club >= min_one_club then (
    match condition t with
    | Some (slope, t_stat) ->
        if not t.in_episode then begin
          t.in_episode <- true;
          t.episodes_rev <- (time, None) :: t.episodes_rev;
          let alert = { at = time; one_club; rarest_piece; rarest_count; slope; t_stat } in
          t.alerts_rev <- alert :: t.alerts_rev;
          t.on_alert alert
        end
    | None ->
        if t.in_episode then begin
          t.in_episode <- false;
          match t.episodes_rev with
          | (entered, None) :: rest -> t.episodes_rev <- (entered, Some time) :: rest
          | _ -> ()
        end)
  else if t.in_episode && one_club < min_one_club then begin
    t.in_episode <- false;
    match t.episodes_rev with
    | (entered, None) :: rest -> t.episodes_rev <- (entered, Some time) :: rest
    | _ -> ()
  end

let alert_json a =
  Json.Obj
    [
      ("alert", Json.String "missing_piece_syndrome");
      ("t", Json.Float a.at);
      ("one_club", Json.Int a.one_club);
      (* 1-based piece numbers on the wire, matching the tracer and CLI *)
      ("rarest_piece", Json.Int (a.rarest_piece + 1));
      ("rarest_count", Json.Int a.rarest_count);
      ("slope", Json.Float a.slope);
      ("t_stat", Json.Float a.t_stat);
    ]

let alert_of_json j =
  let field key to_ = Option.bind (Json.member key j) to_ in
  match
    ( field "t" Json.to_float_opt,
      field "one_club" Json.to_int_opt,
      field "rarest_piece" Json.to_int_opt,
      field "rarest_count" Json.to_int_opt,
      field "slope" Json.to_float_opt,
      field "t_stat" Json.to_float_opt )
  with
  | Some at, Some one_club, Some piece, Some rarest_count, Some slope, Some t_stat ->
      Some { at; one_club; rarest_piece = piece - 1; rarest_count; slope; t_stat }
  | _ -> None

let episode_json (entered, exited) =
  Json.Obj
    [
      ("entered", Json.Float entered);
      ("exited", match exited with Some x -> Json.Float x | None -> Json.Null);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "p2p-monitor");
      ("version", Json.Int 1);
      ("samples", Json.Int t.seen);
      ("alerts", Json.List (List.map alert_json (alerts t)));
      ("episodes", Json.List (List.map episode_json (episodes t)));
    ]

let pp_alert fmt a =
  Format.fprintf fmt
    "missing_piece_syndrome at t=%.6g: piece %d down to %d copies, one-club %d drifting %+.4g/t (t-stat %.2f)"
    a.at (a.rarest_piece + 1) a.rarest_count a.one_club a.slope a.t_stat
