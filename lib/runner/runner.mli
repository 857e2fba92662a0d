(** Multicore Monte-Carlo replication runner.

    Runs [R] independent replications of a simulation thunk across [D]
    domains (OCaml 5 [Domain]s) and folds the per-replication outputs
    into aggregate statistics.  The three design rules:

    {ol
    {- {b Deterministic seeding.}  Replication [i] draws all of its
       randomness from [Rng.of_seed_pair ~master:master_seed ~stream:i].
       No RNG state is shared between replications, so the output of
       replication [i] depends only on [(master_seed, i)] — never on
       which domain ran it or in what order.}
    {- {b Deterministic aggregation.}  Work is dealt in fixed-size
       chunks of consecutive replication indices; each chunk
       accumulates locally and the per-chunk accumulators are merged
       {e in chunk order} after all domains join.  The chunk layout
       depends only on [(replications, chunk)], so merged aggregates
       are bit-identical for any [jobs] count — and across back-to-back
       runs.  (A test asserts both.)}
    {- {b Lock-free scheduling.}  Domains claim chunks from a single
       atomic counter; no locks, no channels, no shared mutable
       simulation state.}}

    {b Failure isolation.}  A replication that raises no longer has to
    poison the sweep: the {!on_error} policy decides whether the first
    failure aborts everything (the default, as before), is skipped, or
    is retried on a fresh deterministic stream.  Skipped and
    retried-then-failed replications are recorded as {!failure} values —
    index, exception, and the backtrace captured at the raise — in
    {!timing.failures}.  Because the policy is applied inside the chunk
    walk, the surviving replications' merged aggregates remain
    bit-identical across any [jobs] count.

    The thunk must be self-contained: it may only touch its [rng]
    argument and its own allocations.  All simulators in this
    repository satisfy this (they draw randomness exclusively through
    the [rng] handed to [run]). *)

module Rng = P2p_prng.Rng
module Welford = P2p_stats.Welford

type failure = {
  index : int;  (** the replication that raised *)
  error : exn;
  backtrace : Printexc.raw_backtrace;  (** captured at the raise site *)
}

type on_error =
  | Abort  (** first failure re-raised (with its backtrace) after all domains join *)
  | Skip  (** failed replications are dropped and recorded in [timing.failures] *)
  | Retry of int
      (** retry up to [n] more times, each attempt on a fresh
          deterministic stream ({!derive_retry_rng}); a replication still
          failing after [n] retries is skipped and recorded *)

exception Rep_timeout
(** A replication attempt outran its [rep_timeout_s] watchdog.  Raised
    by the simulators' shared event loop ([P2p_core.Engine.drive]),
    which polls {!deadline_exceeded}, and recorded by the runner itself
    when an attempt returns after its deadline (the late value is
    discarded).  Handled like any other failure by the {!on_error}
    policy: a retried attempt starts a fresh watchdog. *)

val deadline_exceeded : unit -> bool
(** Whether the watchdog of the replication attempt currently running on
    this domain has expired ([false] when no [rep_timeout_s] is active).
    OCaml cannot preempt a domain, so enforcement is cooperative:
    [P2p_core.Engine.drive] polls this every 1,024 events and raises
    {!Rep_timeout}.  A thunk that never polls still gets its late result
    discarded post hoc. *)

type timing = {
  wall_s : float;  (** wall-clock seconds for the whole sweep *)
  jobs : int;  (** domains actually used (including the caller's) *)
  chunks : int;  (** number of work-queue chunks *)
  busy_s : float array;  (** per-domain busy seconds, length [jobs] *)
  failures : failure list;  (** skipped replications, sorted by index *)
  interrupted : bool;  (** a SIGINT cut the sweep short (see [handle_sigint]) *)
}

val utilisation : timing -> float
(** Mean fraction of the wall-clock each domain spent in replication
    work; 1.0 = perfect scaling, [nan] when [wall_s = 0].

    Caveat (measured for DESIGN §17): busy time is wall-clock around
    each chunk, so time a domain spends {e descheduled} mid-chunk still
    counts as busy.  When [jobs] exceeds the physical core count the
    figure stays near 1 while real speedup is ≤ 1; {!pp_timing} appends
    an "oversubscribed" flag in that case.  The mild falloff that {e is}
    visible under oversubscription (≈ 91% at 4 jobs on 1 core) is
    chunk-retirement bookkeeping and domain spawn/join landing between
    [tick]s, not lost simulation work. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val derive_rng : master_seed:int -> index:int -> Rng.t
(** The runner's seed-derivation scheme, exposed so tests and
    documentation can name it: equal to
    [Rng.of_seed_pair ~master:master_seed ~stream:index]. *)

val derive_retry_rng : master_seed:int -> index:int -> attempt:int -> Rng.t
(** Stream of retry [attempt] of a replication: [attempt = 0] is
    {!derive_rng}; [attempt >= 1] re-keys the family from one output of
    the attempt-0 stream, so every attempt is deterministic in
    [(master_seed, index, attempt)] and independent of scheduling.
    @raise Invalid_argument if [attempt < 0]. *)

(** {1 Sweeps}

    Common optional arguments:

    - [jobs] (default {!default_jobs}, clamped to the number of chunks)
      — domains to use; never affects results.
    - [chunk] (default [max 4 (min 64 (replications / 32))] — a function
      of [replications] only, never of [jobs]) — consecutive replications
      per queue pop; fixes the (deterministic) float merge grouping for
      the folded paths, so hold it constant when comparing runs.
    - [on_error] (default [Abort]) — the failure policy above.
    - [rep_timeout_s] — per-replication wall-clock watchdog: an attempt
      running longer than this is a {e failure} ({!Rep_timeout}), not a
      kept-but-counted result.  Thunks that poll {!deadline_exceeded}
      stop early; ones that do not still have their late value discarded
      once they return.  The failure then follows [on_error] — retried
      attempts run on fresh deterministic streams with a fresh watchdog.
      Wall-clock timeouts are inherently scheduling-dependent; for
      results that must stay bit-identical across [jobs], pick a timeout
      with a wide margin against the slowest replication (the
      deterministic-seeding contract itself is unaffected: surviving
      replications keep their streams).
      @raise Invalid_argument unless finite positive.
    - [handle_sigint] (default [false]) — install a SIGINT handler for
      the duration of the sweep that stops domains from claiming further
      chunks, joins them, restores the previous handler, and returns the
      completed chunks with [timing.interrupted = true].  Merged results
      under interruption reflect whichever chunks completed, so they are
      {e not} jobs-independent — check the flag before comparing.
    - [progress] (default {!P2p_obs.Progress.silent}) — a live progress
      meter ticked once per finished replication, from whichever domain
      finished it (the meter is thread-safe).  Thunks that want the
      events/s figure call [Progress.add_events] themselves.  Purely
      observational: it never affects scheduling, seeding, or results. *)

val run_map :
  ?jobs:int ->
  ?chunk:int ->
  ?on_error:on_error ->
  ?rep_timeout_s:float ->
  ?handle_sigint:bool ->
  ?progress:P2p_obs.Progress.t ->
  master_seed:int ->
  replications:int ->
  (rng:Rng.t -> index:int -> 'a) ->
  'a option array * timing
(** [run_map ~master_seed ~replications f] evaluates
    [f ~rng:(derive_rng ~master_seed ~index:i) ~index:i] for
    [i = 0 .. replications-1] and returns the results indexed by
    replication.  A slot is [None] only if that replication was skipped
    under [Skip]/[Retry] (it is then named in [timing.failures]) or
    never ran because of an interrupt — under the default [Abort] policy
    an uninterrupted sweep returns all [Some].
    @raise Invalid_argument if [replications < 0], [jobs < 1],
    [chunk < 1] or [Retry n] with [n < 1].  Under [Abort], the first
    exception raised by [f] is re-raised in the caller after all domains
    join, with the original backtrace preserved. *)

(** {1 Canned aggregation: named metrics} *)

type rep = {
  values : float array;  (** one entry per metric, in [metrics] order *)
  flagged : bool;
      (** the replication self-reports as degraded (e.g. the simulator's
          [max_events] budget truncated it); counted in [summary.partial] *)
}

val rep : ?flagged:bool -> float array -> rep
(** Thunk-side constructor: [rep values], [rep ~flagged:stats.truncated values]. *)

type summary = {
  stats : (string * Welford.t) list;
      (** one merged accumulator per metric, in [metrics] order *)
  partial : int;
      (** thunk-[flagged] replications, whose contribution is suspect.
          [0] means every aggregated replication ran to completion. *)
  timing : timing;
}

val run_summary :
  ?jobs:int ->
  ?chunk:int ->
  ?on_error:on_error ->
  ?rep_timeout_s:float ->
  ?handle_sigint:bool ->
  ?progress:P2p_obs.Progress.t ->
  metrics:string list ->
  master_seed:int ->
  replications:int ->
  (rng:Rng.t -> index:int -> rep) ->
  summary
(** The common experiment shape.  The thunk returns a {!rep}: [values]
    must have one entry per name in [metrics] (checked) and [flagged]
    marks the replication as degraded.  Welford accumulators are merged with Chan's parallel
    update rather than by concatenating samples: a merged accumulator is
    O(metrics) memory independent of [R], loses no precision (the
    algebra test pins means and variances to the single-pass values),
    and keeps exact min/max/count.
    @raise Invalid_argument if a metric array has the wrong length. *)

val pp_timing : Format.formatter -> timing -> unit
(** ["wall 1.23s, 4 domains, 87% busy"], plus failure and interrupt
    counts when present. *)

val pp_failure : Format.formatter -> failure -> unit
(** ["replication 7: Failure(...)"] followed by the captured backtrace
    when one is available. *)
