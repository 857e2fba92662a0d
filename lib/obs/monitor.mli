(** Online stability detectors over the sim-time probe grid.

    The paper's instability mechanism (Zhu & Hajek, PODC 2011) is the
    {e missing-piece syndrome}: one piece stays scarce — held by at
    most a couple of peers — while the "one-club" of peers holding
    everything {e but} that piece grows linearly.  The monitor watches
    for exactly that signature as the run executes, instead of leaving
    it to post-hoc [p2psim report]: a sliding window of 24 probe
    samples in which (a) the rarest-piece replica count pins at 2 or
    fewer for 80% of the window, and (b) an OLS fit of one-club size
    against time shows significant positive drift (slope t-statistic at
    least 4, the Section VI linear-growth witness).  Swarms whose
    one-club is under 8 peers are ignored.

    {b Determinism.}  The monitor consumes only probe samples, which
    ride the simulation clock; it never reads wall time and never
    touches the simulation RNG, so a monitored run is bit-identical to
    a bare run.  Feed it from a probe's [on_sample] hook. *)

type alert = {
  at : float;  (** sim time the detector fired *)
  one_club : int;
  rarest_piece : int;
  rarest_count : int;
  slope : float;  (** fitted one-club drift over the window *)
  t_stat : float;
}

type t

val create : ?on_alert:(alert -> unit) -> unit -> t
(** [on_alert] fires once per episode, at entry. *)

val observe : t -> time:float -> one_club:int -> rarest_piece:int -> rarest_count:int -> unit
(** Feed one probe sample; [time] must increase from sample to sample,
    as it does on the probe grid, so the window is kept in time order
    and fitted in place, with no sort.  A sample whose window fails the
    scarcity test allocates nothing; one that passes allocates only its
    fit result. *)

val samples_seen : t -> int

val alerts : t -> alert list
(** Alerts raised so far, oldest first. *)

val episodes : t -> (float * float option) list
(** Syndrome episodes as [(entered, exited)]; [None] = still open at
    the last sample.  Oldest first. *)

val alerting : t -> bool
(** Whether the detector is currently inside an episode. *)

val to_json : t -> Json.t
(** The full detector timeline: alerts plus episodes.  An alert's
    [rarest_piece] is 1-based on the wire. *)

val alert_of_json : Json.t -> alert option
(** One alert record of {!to_json}'s ["alerts"], back to the alert; [None]
    if a field is missing or of the wrong type. *)

val pp_alert : Format.formatter -> alert -> unit
