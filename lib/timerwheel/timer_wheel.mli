(** Hierarchical timing wheels (Varghese & Lauck), as used by the IX
    dataplane for network timeouts such as TCP retransmission (§4.2).

    The wheel supports very high resolution timeouts (16 µs by default,
    the value the paper credits with improving TCP incast behaviour) and
    is optimized for the common case where most timers are cancelled
    before they expire: [cancel] is O(1) and leaves a tombstone that is
    skipped when its slot is visited.

    Four levels of 256 slots give spans of ~4 ms, ~1 s, ~4.5 min and
    ~19 h at the default tick.

    Timers are pooled cells held in flat arrays inside the wheel, so
    arming one in steady state allocates nothing: the caller's closure
    is the only heap value involved, and a cached one costs nothing. *)

type t

type timer [@@immediate]
(** Handle for cancellation: an immediate value naming a pooled cell
    and its generation.  A handle is valid only on the wheel that
    issued it.  Once its timer has fired or been reclaimed the cell may
    be reused, and the stale handle goes inert: [cancel] on it is a
    no-op. *)

val null : timer
(** An inert, never-armed timer: lets holders keep a plain [timer]
    field instead of a [timer option] (no box per arm).  [cancel] on it
    is a no-op. *)

val default_tick_ns : int
(** 16 µs, the paper's minimum timeout granularity. *)

val create : ?tick_ns:int -> now:Engine.Sim_time.t -> unit -> t

val schedule : t -> deadline:Engine.Sim_time.t -> (unit -> unit) -> timer
(** Arm a timer.  Deadlines in the past (or less than one tick away)
    fire at the next [advance].  The callback runs at most once. *)

val cancel : t -> timer -> unit
(** Disarm; a no-op if already fired or cancelled. *)

val advance : t -> now:Engine.Sim_time.t -> unit
(** Move wheel time forward to [now], firing every due, uncancelled
    timer in deadline order (within tick resolution). *)

val next_expiry : t -> Engine.Sim_time.t option
(** A conservative lower bound on the next time a timer could fire:
    [advance]-ing to the returned time is guaranteed not to skip any
    timer, and returns [None] iff no timers are pending.  Used by hosts
    to sleep exactly until the next deadline when idle. *)

val pending : t -> int
(** Number of armed (uncancelled, unfired) timers. *)

val now : t -> Engine.Sim_time.t

type stats = {
  armed : int;  (** live timers right now *)
  max_armed : int;  (** high-water mark of [armed] *)
  scheduled : int;  (** total [schedule] calls *)
  fired : int;  (** total callbacks run *)
  cancelled : int;  (** total effective [cancel] calls *)
  cascades : int;  (** higher-level slots redistributed *)
  cascaded_timers : int;  (** live timers moved by cascades *)
  resident : int array;
      (** per-level list entries, including cancelled tombstones not
          yet reclaimed by a slot visit; [resident] minus [armed]
          (summed) is the tombstone backlog *)
}

val stats : t -> stats
(** Occupancy snapshot for capacity audits ([resident] is a copy). *)

val register_metrics : t -> Ixtelemetry.Metrics.t -> prefix:string -> unit
(** Export the same numbers as live probe gauges named
    [<prefix>.armed], [<prefix>.cascades], [<prefix>.resident_l0] … *)
