(** The discrete-event simulation core.

    A [Sim.t] owns the virtual clock and the event queue.  Components
    schedule closures at absolute or relative times; [run] drains the
    queue in timestamp order, advancing the clock as it goes.  Equal
    timestamps preserve scheduling order, making runs deterministic.

    A one-shot event cannot be recalled.  The one event that can be
    moved or removed is a {!wakeup}. *)

type t

val create : unit -> t

val now : t -> Sim_time.t
(** The current virtual time. *)

val at : t -> Sim_time.t -> (unit -> unit) -> unit
(** [at sim time f] runs [f] when the clock reaches [time].  [time] must
    not be in the past. *)

val after : t -> Sim_time.t -> (unit -> unit) -> unit
(** [after sim delay f] runs [f] [delay] from now. *)

type wakeup
(** A re-armable event with a fixed action, queued at most once: how a
    host sleeps until its next timer or schedules its next pass.  It
    owns one event cell for the life of the simulation, so arming,
    moving and disarming it allocate nothing. *)

val wakeup : t -> (unit -> unit) -> wakeup
(** [wakeup sim f] is a wakeup that runs [f] each time it fires.  It
    starts disarmed. *)

val arm : wakeup -> Sim_time.t -> unit
(** [arm w time] queues [w] at [time], moving it in place if it is
    already pending.  Either way it takes a fresh place in the order of
    events due at [time], exactly as a new {!at} would.  [time] must not
    be in the past. *)

val disarm : wakeup -> unit
(** [disarm w] removes [w] from the queue; a no-op unless it is
    pending. *)

val pending : wakeup -> bool
(** [pending w] is whether [w] is queued.  It turns false as [w] fires,
    before its action runs. *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue.  With [~until], run exactly the events due at
    or before that time, then move the clock up to [until]: the clock
    never passes [until] (later events stay queued). *)

val events_executed : t -> int
(** Total number of events executed so far (for reporting). *)

val global_events : unit -> int
(** Process-wide count of events executed across every simulation ever
    created, in any domain — a monotonic meter the benchmark harness
    differences to compute events/sec and GC words/event for a run.
    Backed by an [Atomic.t]; sims running inside a {!Domain_pool}
    flush their per-sim counts into it at the end of each [run] call,
    so sample it only around completed runs. *)
