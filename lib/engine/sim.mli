(** The discrete-event simulation core.

    A [Sim.t] owns the virtual clock and the event queue.  Components
    schedule closures at absolute or relative times; [run] drains the
    queue in timestamp order, advancing the clock as it goes.  Equal
    timestamps preserve scheduling order, making runs deterministic. *)

type t

type handle = private int
(** A cancellation handle for a scheduled event: an immediate int
    packing (pooled cell index, generation), so scheduling allocates
    nothing for the handle itself. *)

val no_handle : handle
(** A handle that names no event: cancelling it is a no-op.  Lets a
    component keep its pending wakeup in a plain mutable field instead
    of boxing [Some handle] per arm. *)

val create : ?seed:int -> unit -> t

val now : t -> Sim_time.t
(** The current virtual time. *)

val at : t -> Sim_time.t -> (unit -> unit) -> handle
(** [at sim time f] runs [f] when the clock reaches [time].  [time] must
    not be in the past. *)

val after : t -> Sim_time.t -> (unit -> unit) -> handle
(** [after sim delay f] runs [f] [delay] from now. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event.  Cancelling an already-fired or
    already-cancelled event is a no-op.  Cancellation is lazy: the
    entry is tombstoned and skipped at pop time; once more than half
    the queue is dead it is compacted in O(n). *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue.  With [~until], run exactly the live events
    due at or before that time, then move the clock up to [until]: no
    event due later runs, even behind a cancelled one, so the clock
    never passes [until] (remaining events stay queued). *)

val events_executed : t -> int
(** Total number of events executed so far (for reporting). *)

val global_events : unit -> int
(** Process-wide count of events executed across every simulation ever
    created, in any domain — a monotonic meter the benchmark harness
    differences to compute events/sec and GC words/event for a run.
    Backed by an [Atomic.t]; sims running inside a {!Domain_pool}
    flush their per-sim counts into it at the end of each [run] call,
    so sample it only around completed runs. *)
