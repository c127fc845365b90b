(** Hierarchical timing wheels (Varghese & Lauck), as used by the IX
    dataplane for network timeouts such as TCP retransmission (§4.2).

    The wheel supports very high resolution timeouts (16 µs by default,
    the value the paper credits with improving TCP incast behaviour) and
    is optimized for the common case where most timers are cancelled
    before they expire: slot lists are doubly linked, so [cancel] is
    O(1) and unlinks and frees the timer's cell at once.

    Four levels of 256 slots give spans of ~4 ms, ~1 s, ~4.5 min and
    ~19 h at the default tick.

    Timers are pooled cells held in flat arrays inside the wheel, so
    arming one in steady state allocates nothing.  A cell runs either
    its own closure ({!schedule}) or a shared action on an int code the
    cell carries ({!schedule_code}): one action then serves every timer
    of its kind, and no closure is built even on a timer's first arm.
    The pool holds as many cells as timers were ever armed at once. *)

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

val schedule_code : t -> deadline:Engine.Sim_time.t -> (int -> unit) -> int -> timer
(** [schedule_code t ~deadline fire code] arms a timer that runs
    [fire code], like {!schedule} otherwise.  TCP arms its timers this
    way: [fire] is its endpoint's one timer action and [code] names the
    connection and the timer. *)

val cancel : t -> timer -> unit
(** Disarm and free the timer's cell; a no-op if already fired or
    cancelled.  A timer cancelled by a callback while it waits to fire
    in the same tick is only marked, and freed when that tick reaches
    it. *)

val advance : t -> now:Engine.Sim_time.t -> unit
(** Move wheel time forward to [now], firing every due, uncancelled
    timer in deadline order (within tick resolution).  It stops only at
    the {!next_expiry} ticks, so the cost is O(occupied slots +
    occupied cascades), not O(ticks). *)

val no_expiry : Engine.Sim_time.t
(** What {!next_expiry} returns when no timer is pending ([max_int]). *)

val next_expiry : t -> Engine.Sim_time.t
(** The next tick with work, as a time: the deadline of the first
    level-0 slot holding a live timer or, if earlier, the tick the first
    occupied higher-level slot cascades at (which could reveal an
    earlier timer); never an empty level boundary.  [advance]-ing to it
    skips no timer; {!no_expiry} iff no timers are pending.  Constant
    time through per-level occupancy bitmaps, one level-0 lookup while a
    live level-0 slot remains in the current lap; allocation-free.
    Hosts sleep until it when idle; a plain time rather than an option,
    since hosts ask on every idle cycle. *)

val arm_wakeup : Engine.Sim.wakeup -> earliest:Engine.Sim_time.t -> Engine.Sim_time.t -> unit
(** [arm_wakeup w ~earliest deadline] is how a host sleeps until its
    next timer: it arms [w] at [deadline], a {!next_expiry} value, but
    not before [earliest], and disarms [w] when [deadline] is
    {!no_expiry}. *)

val pending : t -> int
(** Number of armed (uncancelled, unfired) timers. *)

val now : t -> Engine.Sim_time.t

type stats = {
  armed : int;  (** live timers right now *)
  max_armed : int;  (** high-water mark of [armed] *)
  fired : int;  (** total callbacks run *)
  cancelled : int;
      (** total effective [cancel] calls; [armed + fired + cancelled] is
          the number of [schedule] calls *)
  cascades : int;
      (** higher-level slots redistributed: each occupied one at its
          cascade tick, and an empty one only when its boundary falls
          on a tick [advance] stops at for other work *)
  cascaded_timers : int;  (** live timers moved by cascades *)
  slot_visits : int;
      (** level-0 slots visited by [advance]: slots holding a live timer
          and the ticks occupied higher-level slots cascade at, not
          every tick or every level boundary *)
  resident : int array;
      (** live timers per level; sums to [armed] when read outside a
          callback *)
  cells : int;
      (** timer cells the wheel holds, free or in use: its memory, which
          follows the most timers ever armed at once *)
}

val stats : t -> stats
(** Occupancy snapshot for capacity audits.  [resident] is counted by
    walking every slot list, so a snapshot costs O(armed). *)
