(** A binary min-heap of timestamped [int] events.

    Events with equal timestamps are delivered in insertion order (a
    monotonically increasing sequence number breaks ties), which keeps
    whole simulations deterministic.

    Internally a structure-of-arrays heap: parallel flat [int] arrays
    for the (time, seq) keys and the payloads, so the steady-state
    [push]/[pop_min_exn] path allocates nothing and no sift write pays
    the GC write barrier.  Payloads are small non-negative ints — the
    simulation core's dense cell indices — and each is queued at most
    once, so a position index keyed by payload lets an entry be moved
    or removed in place. *)

type t

val create : unit -> t

val is_empty : t -> bool

val push : t -> time:Sim_time.t -> int -> unit
(** [push q ~time v] queues [v] at [time] with a fresh sequence number,
    so it goes after every entry already due at [time].  If [v] is
    already queued, its entry moves there in place (a sift up or down)
    instead.  Allocation-free except when an array doubles. *)

val mem : t -> int -> bool
(** [mem q v] is whether [v] is queued. *)

val remove : t -> int -> unit
(** [remove q v] takes [v] out of the queue in O(log n); a no-op if it
    is not queued.  The other entries keep their keys. *)

val min_time_exn : t -> Sim_time.t
(** The timestamp of the earliest event.  Raises [Invalid_argument] if
    the queue is empty.  Allocation-free. *)

val pop_min_exn : t -> int
(** Remove and return the payload of the earliest event.  Raises
    [Invalid_argument] if the queue is empty.  Allocation-free. *)
