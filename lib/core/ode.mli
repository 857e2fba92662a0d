(** Adaptive explicit Runge–Kutta integration: Dormand–Prince 5(4).

    The embedded DOPRI5 pair (Hairer–Nørsett–Wanner's DOPRI5) drives every
    continuous-time model in this library: a 5th-order propagated solution,
    a 4th-order companion whose difference estimates the local error, PI
    step-size control on the scaled RMS error, FSAL stage reuse, and the
    standard 4th-order {e dense output} interpolant so trajectories can be
    sampled on any simulation-time grid without constraining the steps the
    controller actually takes.

    Everything here is deterministic: for a fixed right-hand side, initial
    condition and {!control}, the accepted step sequence — and therefore
    every dense sample and every {!advance} stop time — is a pure function
    of the inputs.  The hybrid simulator's switch points rely on this.

    The module is generic over [f : t -> y -> dy] on [float array]s; it
    knows nothing about swarms.  {!Fluid} instantiates it for the
    mean-field ODE. *)

(** {1 Error control} *)

type control = {
  rtol : float;  (** relative tolerance (per component, against scale) *)
  atol : float;  (** absolute tolerance floor *)
  init_step : float option;  (** first trial step; [None] = heuristic *)
  max_step : float;  (** cap on any single step; [infinity] = none *)
  max_steps : int;  (** accepted-step budget for a whole session *)
}

val default_control : control
(** [rtol 1e-6, atol 1e-9, heuristic first step, no step cap, 20M steps]. *)

val control :
  ?rtol:float -> ?atol:float -> ?init_step:float -> ?max_step:float -> ?max_steps:int -> unit ->
  control
(** @raise Invalid_argument if a tolerance is not finite positive, the
    step parameters are not positive, or [max_steps < 1]. *)

(** {1 Raw embedded steps (building block, exposed for property tests)} *)

type step
(** One evaluated Dormand–Prince step: both solutions of the embedded
    pair, the scaled error estimate, and the dense-output coefficients. *)

val try_step :
  f:(float -> float array -> float array) ->
  control:control ->
  t:float ->
  y:float array ->
  h:float ->
  step
(** Evaluate one step of size [h] from [(t, y)] unconditionally — no
    accept/reject decision, no state.  @raise Invalid_argument if [h] is
    not finite positive. *)

val step_y1 : step -> float array
(** The 5th-order solution at [t + h] (a fresh copy). *)

val step_eval : step -> float -> float array
(** Dense output: the 4th-order interpolant at any time within
    [[t, t + h]].  @raise Invalid_argument outside the step. *)

(** {1 Stateful integration sessions} *)

type session
(** Mutable integration state: current [(t, y)], the controller's step
    size, the FSAL stage, and the accepted/rejected/evaluation counters.
    One session per simulated trajectory. *)

val session :
  ?control:control -> f:(float -> float array -> float array) -> t0:float -> y0:float array ->
  unit -> session
(** @raise Invalid_argument if [t0] is not finite or [y0] is empty or
    contains a non-finite value. *)

val set_rhs : session -> (float -> float array -> float array) -> unit
(** Swap the right-hand side (e.g. a fault toggled a drift term off).
    Invalidates the FSAL cache; the next step re-evaluates. *)

val time : session -> float
val state : session -> float array
(** The live state vector — copy it if you keep it. *)

val steps : session -> int
(** Accepted steps so far. *)

val rejected : session -> int
(** Rejected trial steps so far. *)

val evals : session -> int
(** Right-hand-side evaluations so far. *)

type outcome =
  | Reached  (** integrated through the requested time *)
  | Stopped of float  (** [until] first became true at this time *)
  | Step_limit  (** the [max_steps] budget ran out; state is at {!time} *)

val advance :
  ?until:(t:float -> y:float array -> bool) ->
  ?on_step:(session -> unit) ->
  session ->
  to_:float ->
  outcome
(** Integrate from the current time to [to_].  [on_step] fires after
    every accepted step (use {!dense_eval} inside it to sample a grid).
    [until], checked after every accepted step, requests an early stop:
    the crossing time inside the violating step is located by
    deterministic bisection on the dense output and the session state is
    moved {e exactly there} — [Stopped t] leaves [time session = t] with
    the interpolated state.  The predicate must be false at the current
    state.  @raise Invalid_argument if [to_] is NaN or precedes the
    current time.
    @raise Failure if the controller underflows the step size (the
    problem is too stiff for an explicit method at this tolerance). *)

val dense_eval : session -> float -> float array
(** Interpolate within the {e last accepted step} (valid between
    its start and {!time}).  Only meaningful inside [on_step].
    @raise Invalid_argument outside that window. *)
