(** An assembled IX server or client machine: NICs, elastic threads
    (one dataplane per hardware thread, each owning one RX/TX queue
    per NIC), the shared RCU-protected ARP cache, and one libix
    context per thread.

    The NICs must be created with [queues = threads] so the default
    RSS indirection spreads flow groups evenly; the control plane can
    rebalance afterwards. *)

type t

val ix_tcp_config : Ixtcp.Tcb.config
(** The dataplane's TCP profile: fine-grained RTO floor (the timing
    wheel's 16 µs resolution makes sub-millisecond retransmission
    practical), 256 KB buffers. *)

val create :
  sim:Engine.Sim.t ->
  host_id:int ->
  ip:Ixnet.Ip_addr.t ->
  nics:Ixhw.Nic.t array ->
  threads:int ->
  config:Dataplane.config ->
  tcp:Ixtcp.Tcb.config ->
  cache:Ixhw.Cache_model.t option ->
  metrics:Ixtelemetry.Metrics.t ->
  seed:int ->
  t
(** Every elastic thread runs [config] with TCP profile [tcp] and, when
    given, the connection-count [cache] model.  [metrics] is the
    telemetry registry shared by all elastic threads; the host
    registers ["kernel_share"] and ["busy_ns"] probe gauges on it
    alongside the per-thread [dataplane.<id>.*] counters. *)

val sim : t -> Engine.Sim.t
val thread_count : t -> int
val dataplane : t -> int -> Dataplane.t
val libix : t -> int -> Libix.t
val nics : t -> Ixhw.Nic.t array
val arp : t -> Arp_cache.t

val connections : t -> int
(** Live connections across all elastic threads. *)

val live_threads : t -> int
(** Currently live elastic threads: the prefix [0, live) of the
    provisioned [thread_count] slots.  Parked slots keep their
    dataplane (and can run app code) but hold no flow groups. *)

val set_live_threads : t -> int -> unit
(** Control-plane hook behind {!Control_plane.add_core} /
    [remove_core]; use those instead of calling this directly. *)

val group_home : t -> int -> int
(** The thread currently homing RSS flow group [g] (coherence-free
    RCU read of the placement map). *)

val publish_group_home :
  t -> group:int -> thread:int -> retired:(unit -> unit) -> unit
(** RCU-publish a new home for [group]; [retired] fires once every
    elastic thread has passed a quiescent point since the swap.  All
    threads are kicked so idle ones quiesce promptly.  The caller is
    responsible for mirroring the change into the NIC indirection
    tables ({!Ixhw.Nic.set_indirection_entry}). *)

val iter_threads : t -> (Dataplane.t -> unit) -> unit

val metrics : t -> Ixtelemetry.Metrics.t
(** The host-wide telemetry registry. *)

val tracers : t -> Ixtelemetry.Tracer.t list
(** One cycle tracer per elastic thread, in thread order. *)

val kernel_share : t -> float
(** Aggregate kernel-time share across cores (cf. the memcached
    analysis: < 10 % under IX vs ~75 % under Linux). *)

val total_kernel_ns : t -> int
val total_user_ns : t -> int

val stack : t -> Netapi.Net_api.stack
(** The host through the stack-portable interface, so the shared
    benchmark applications run on the dataplane unchanged.  Setup and
    app work issued from outside a handler enter the thread's user
    phase through {!Libix.run}. *)
