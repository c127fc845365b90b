(** IXCP, the control plane (§4.1).

    The control plane (the full Linux kernel plus the IXCP user-level
    program in the real system) owns coarse-grained resource
    allocation: entire cores are dedicated to dataplanes, NIC hardware
    queues are assigned to elastic threads, and RSS flow groups are
    remapped when the allocation changes.  It also monitors dataplane
    health (queue depths, batch sizes as a congestion signal,
    non-responsive marks from the user-mode timeout) and intermediates
    POSIX system calls for background threads. *)

type t

type report = {
  thread : int;
  flows : int;
  mean_batch : float;
  rx_queue_depth : int;
  kernel_share : float;
  nonresponsive : int;
}

val create : Ix_host.t -> t

val host : t -> Ix_host.t

val active_threads : t -> int

val migrate_flow_group : t -> group:int -> dst:int -> unit
(** Move one RSS flow group to thread [dst] without dropping,
    misdelivering or reordering a frame: the destination parks the
    group's arriving frames, the NIC indirection entry is retargeted
    (counted [rss_retarget]) and the placement RCU-published, the
    source drains every frame steered to it before the retarget, then
    TCBs + pending timers + libix conns hand over in one step and the
    parked frames replay in arrival order.  Asynchronous: completion is
    observable via {!migrations_in_flight} / {!migrations_completed}.
    A group already mid-migration is left alone.  Caveat: the handover
    waits for the source's staged work to drain, so an application that
    sits on an un-accepted knock forever stalls it (libix accepts
    within the same cycle, so this only affects raw [set_app] apps). *)

val set_elastic_threads : t -> int -> unit
(** Elastically grow or shrink the dataplane to [n] threads (1 ≤ n ≤
    thread_count): every RSS flow group is rebalanced onto the live
    prefix ([group mod n]) via {!migrate_flow_group} (§4.4).  Uses the
    Exokernel-style revocation protocol: the dataplane adjusts its
    elastic thread count. *)

val add_core : t -> bool
(** Grow by one elastic thread; [false] when already at capacity. *)

val remove_core : t -> bool
(** Shrink by one elastic thread; [false] when already at one. *)

val migrations_in_flight : t -> int
val migrations_completed : t -> int

val total_migration_ns : t -> int

val monitor : t -> report list
(** Poll per-thread health, as IXCP would. *)

val congested : t -> bool
(** True when mean batch sizes approach the bound — the signal that the
    dataplane would benefit from more resources (§3: "monitor queue
    depths ... signal the control plane to allocate additional
    resources"). *)

val posix_passthrough : t -> thread:int -> int
(** A background thread's POSIX call, validated by the dataplane and
    forwarded to the Linux kernel; returns the charged cost in ns
    (two VM transitions). *)

val rebalances : t -> int
