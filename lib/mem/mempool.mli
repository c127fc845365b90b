(** Per-hardware-thread memory pools (§4.2).

    Each pool is structured as arrays of identically sized objects,
    provisioned in page-sized blocks; free objects are tracked with a
    simple free list.  One pool per elastic thread means allocation
    never synchronizes with other cores.  The pool records allocation
    statistics so benchmarks can report pressure and exhaustion. *)

type t

val create : ?capacity:int -> name:string -> unit -> t
(** [create ~name ()] makes a pool that can hold up to [capacity]
    mbufs (default 16384) of {!Mbuf.default_size} bytes, provisioned
    lazily in page-sized blocks. *)

val alloc : t -> Mbuf.t option
(** Take an mbuf from the free list, growing the pool by one block if
    needed.  [None] once [capacity] objects are live (pool exhausted) —
    callers treat this as packet drop, as real NIC replenishment does. *)

val live_count : t -> int
(** Objects currently allocated out of the pool. *)

val stat_allocs : t -> int
val stat_failures : t -> int

val name : t -> string

val set_alloc_gate : t -> (unit -> bool) option -> unit
(** Fault hook: while the gate returns [false], {!alloc} behaves as if
    the pool were exhausted — counted failure, [None], no raise — and
    recovers the moment the gate reopens.  [None] (the default) removes
    the gate. *)
