(** A binary min-heap of timestamped [int] events.

    Events with equal timestamps are delivered in insertion order (a
    monotonically increasing sequence number breaks ties), which keeps
    whole simulations deterministic.

    Internally a structure-of-arrays heap: parallel flat [int] arrays
    for the (time, seq) keys and the payloads, so the steady-state
    [push]/[pop_min_exn] path allocates nothing and no sift write pays
    the GC write barrier.  Payloads are ints because the simulation
    core stores pooled cell indices; a caller with richer events keeps
    them in a side table indexed by the payload. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val push : t -> time:Sim_time.t -> int -> unit
(** [push q ~time v] inserts [v] with priority [time].  Allocation-free
    except when the heap doubles its capacity. *)

val pop : t -> (Sim_time.t * int) option
(** [pop q] removes and returns the earliest event, or [None] if empty.
    Allocates the option/tuple; hot paths use {!min_time_exn} +
    {!pop_min_exn} instead. *)

val min_time_exn : t -> Sim_time.t
(** The timestamp of the earliest event.  Raises [Invalid_argument] if
    the queue is empty.  Allocation-free. *)

val pop_min_exn : t -> int
(** Remove and return the payload of the earliest event.  Raises
    [Invalid_argument] if the queue is empty.  Allocation-free. *)

val peek_time : t -> Sim_time.t option
(** [peek_time q] is the timestamp of the earliest event without
    removing it. *)

val compact : t -> keep:(int -> bool) -> unit
(** [compact q ~keep] drops every entry whose payload fails [keep] and
    re-heapifies in O(n).  Pop order of the survivors is unchanged —
    their (time, seq) keys are preserved.  The simulation core uses
    this to purge cancelled events once they dominate the heap. *)

val clear : t -> unit
