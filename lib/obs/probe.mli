(** The observability hook record threaded through the simulators.

    A [Probe.t] bundles everything a simulator can report without knowing
    who is listening: engine events (for the per-event-code count hists
    and the {!Recorder} ring, which feeds the trace and the flight
    dumps), periodic swarm samples
    on a {e simulation-time} grid (for time-series probes), and a phase
    profiler.  {!none} is the contract's zero element — every sink is
    dead, the sampling interval is [infinity], and the simulators skip
    event reporting entirely after one flag check per site.

    {b Determinism.}  Probes never touch the simulation RNG, never
    perturb event ordering, and sample on the simulation clock — never
    the wall clock — so (a) a run with a probe attached is bit-identical
    to the same run without one, and (b) per-replication probe series
    are bit-identical across any [--jobs] count.  Tests pin both. *)

module Pieceset = P2p_pieceset.Pieceset

(** {1 Events}

    An engine event has one form: a dense [(code, a, b)] integer row,
    so recording never allocates.  {!Recorder} lists the codes and
    their payloads. *)

type departure_kind =
  | Completed  (** finished the file and left (γ = ∞ instant departure) *)
  | Aborted  (** churn: left without the file *)
  | Seed_departed  (** peer seed dwelled and left (finite γ) *)

(** {1 Swarm samples} *)

type sample = {
  time : float;
  n : int;  (** total population *)
  seeds : int;  (** peer seeds (holders of the full set) *)
  one_club : int;  (** holders of exactly [full \ rarest] *)
  rarest_piece : int;
  rarest_count : int;  (** copies of the rarest piece among peers *)
  piece_counts : int array;  (** copies of each piece, length [k] *)
}

val sample :
  time:float -> k:int -> n:int -> count_of:(Pieceset.t -> int) -> piece_counts:int array -> sample
(** Build a sample from a state's counting functions.  The rarest piece
    is the argmin of [piece_counts] (lowest index on ties), and the
    one-club is counted against {e that} piece — the instantaneous
    missing-piece candidate. *)

(** {1 The hook record} *)

type t = private {
  interval : float;  (** sim-time sampling period; [infinity] = never *)
  tracing : bool;  (** a recorder or hist group is live; false ⇒ skip event reporting *)
  on_sample : sample -> unit;
  profile : Profile.t;
  recorder : Recorder.t;  (** the event ring fed by the emitters *)
  hists : Hist.group;  (** phase-cost and event-count histograms *)
  event_counts : Hist.t array;  (** per-code occurrence hists, by event code *)
}

val none : t

val make :
  ?interval:float ->
  ?on_sample:(sample -> unit) ->
  ?profile:Profile.t ->
  ?recorder:Recorder.t ->
  ?hists:Hist.group ->
  unit ->
  t
(** [tracing] is true iff the recorder is live or the hist group is
    enabled — both consume events.  A live hist group additionally
    makes the engine attribute per-phase monotonic-clock cost into
    [hists] (sampled timers, see {!Hist.timer}).  The caller keeps
    ownership of [recorder] and closes it after the run.
    @raise Invalid_argument if [interval <= 0]. *)

val sampling : t -> bool
(** Whether the probe wants grid samples ([interval < infinity]). *)

(** {1 Emitters}

    Call these under [if probe.tracing then ...] in hot loops.  Each
    takes the event payload as scalars and hands the packed row to the
    count hists and the recorder, so recording never allocates or
    dispatches per event. *)

val arrival : t -> time:float -> pieces:Pieceset.t -> unit

val contact : t -> time:float -> seed:bool -> useful:bool -> unit
(** A contact resolved; [seed] = fixed-seed upload attempt, [useful] =
    the policy found a piece to push. *)

val transfer : t -> time:float -> piece:int -> completed:bool -> unit
(** A piece (0-based) arrived; [completed] = it was the last one. *)

val transfer_lost : t -> time:float -> unit
(** Fault injection dropped a would-be upload. *)

val departure : t -> time:float -> departure_kind -> unit

val seed_toggle : t -> time:float -> up:bool -> unit
(** Fault injection flipped the fixed seed. *)

val handoff : t -> time:float -> fluid:bool -> n:float -> unit
(** The hybrid backend switched regime at population [n]: [fluid] =
    stochastic → fluid, otherwise fluid → stochastic. *)
