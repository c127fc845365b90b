(** The elastic core-allocation policy loop.

    A periodic controller over {!Control_plane}: each interval it
    samples the mean utilization of the live elastic threads and an
    optional application-level p99 latency signal, and — with
    hysteresis against flapping — asks the control plane to
    {!Control_plane.add_core} when the SLO is breached or utilization
    runs hot, or {!Control_plane.remove_core} when the machine idles
    with latency headroom.  Scaling is flow-group migration under the
    hood, so no frame is dropped across a decision.

    Determinism: the controller runs on the simulation clock with no
    hidden state, so a run with the loop armed is a pure function of
    (spec, seed) like everything else in the harness. *)

type config = {
  interval_ns : int;  (** controller period *)
  slo_p99_ns : float;  (** p99 target (ns); a breach pressures an add *)
  add_util : float;  (** live-core utilization that pressures an add *)
  remove_util : float;  (** utilization under which a core may go *)
  settle_checks : int;
      (** hysteresis: consecutive agreeing samples before acting; any
          decision resets both streaks *)
  min_cores : int;
  max_cores : int;  (** clamped to the host's provisioned capacity *)
}

val default_config : config
(** 200 µs interval, 300 µs p99 SLO, add above 85 % / remove below
    30 % utilization, 3-sample hysteresis, min 1 core. *)

type sample = {
  at_ns : int;
  cores : int;  (** live cores over the interval just ended *)
  util : float;  (** mean utilization of those cores *)
  p99_ns : float;  (** observed p99 over the interval; [nan] if none *)
}

type decision = { decided_at_ns : int; cores_after : int }

type t

val start :
  sim:Engine.Sim.t ->
  cp:Control_plane.t ->
  ?config:config ->
  ?p99_probe:(unit -> float option) ->
  unit ->
  t
(** Arm the loop.  [p99_probe] is called once per interval and should
    return the p99 (in ns) observed since the previous call — e.g. a
    client-side latency window — or [None] when there is no signal
    (utilization alone then drives the policy). *)

val stop : t -> unit
(** Disarm; the pending tick becomes a no-op. *)

val samples : t -> sample list
(** Every controller sample, oldest first. *)

val decisions : t -> decision list
(** Every scale decision taken, oldest first. *)

val energy_joules : t -> capacity:int -> active_w:float -> idle_w:float -> float
(** Integrate the cores-used curve over the sampled trace: live cores
    burn [active_w] watts, parked provisioned cores [idle_w]. *)
