(** A multi-queue 10GbE NIC with receive-side scaling (modelled on the
    Intel 82599, §4.2/§5.1).

    Incoming frames are classified by a Toeplitz hash of the 4-tuple
    through a 128-entry indirection table onto RX queues.  A frame is
    DMA-ed into an mbuf from the queue's pool if the queue has posted
    descriptors, otherwise it is dropped — replenishment is the
    driver's job ([rx_burst_into] + [replenish]).  Each delivery fires the
    queue's notifier; polling stacks use it to kick an idle loop,
    interrupt-driven stacks apply moderation on top of it. *)

type t

type rx_queue

val indirection_entries : int
(** Size of the RSS indirection table (128): the number of flow
    groups, and therefore the granularity of placement/migration. *)

val create :
  Engine.Sim.t ->
  mac:Ixnet.Mac_addr.t ->
  queues:int ->
  ?ring_size:int ->
  ?metrics:Ixtelemetry.Metrics.t ->
  ?name:string ->
  tx:Link.t ->
  unit ->
  t
(** [metrics]/[name] place the NIC's counters in a telemetry registry
    under [<name>.rx_frames], [<name>.rx_drops], [<name>.tx_frames] and
    per-queue [<name>.q<i>.rx_frames] / [<name>.q<i>.doorbells]
    ([name] defaults to ["nic"]; a private registry is used when
    [metrics] is omitted). *)

val mac : t -> Ixnet.Mac_addr.t
val queue_count : t -> int
val queue : t -> int -> rx_queue

val set_indirection : t -> (int -> int) -> unit
(** [set_indirection nic f] maps RSS flow group [g] (0..127) to queue
    [f g].  The control plane uses this to rebalance flow groups when
    elastic threads come and go.  Rewrites take effect at
    classification time only: frames already hashed into a ring stay
    where they landed, so a mid-burst rewrite never misdelivers or
    drops an in-flight frame.  Every changed entry counts one
    [<name>.rss_retarget] event. *)

val set_indirection_entry : t -> group:int -> queue:int -> unit
(** Rewrite a single indirection entry — the hardware write behind a
    flow-group migration.  Counts one [<name>.rss_retarget] event when
    the entry actually changes; a same-value write is free. *)

val indirection_entry : t -> int -> int
(** Current queue for flow group [g]. *)

val rss_group_of_tuple :
  t -> src_ip:Ixnet.Ip_addr.t -> dst_ip:Ixnet.Ip_addr.t -> src_port:int -> dst_port:int -> int
(** The RSS flow group (Toeplitz hash mod 128) of a 4-tuple as seen by
    this NIC on receive — the unit of placement for migration.  Depends
    only on the RSS key, never on the indirection table. *)

val rss_queue_of_tuple :
  t -> src_ip:Ixnet.Ip_addr.t -> dst_ip:Ixnet.Ip_addr.t -> src_port:int -> dst_port:int -> int
(** Which RX queue a flow — as seen by this NIC on receive — lands on. *)

val steers_to_queues :
  (t * rx_queue) list ->
  src_ip:Ixnet.Ip_addr.t ->
  dst_ip:Ixnet.Ip_addr.t ->
  src_port:int ->
  dst_port:int ->
  bool
(** Whether each NIC of the list steers the flow to its paired queue:
    the reverse-RSS test an ephemeral-port probe applies (§4.4).
    Allocates nothing. *)

val receive : t -> Frame.t -> unit
(** Entry point wired to the switch-side link's [deliver].  Consumes
    the frame's reference: after the copy-in (or a counted filter/drop)
    the sender's wire buffer is released back toward its pool. *)

val set_notify : rx_queue -> (unit -> unit) -> unit
(** Called (synchronously) each time a frame lands in the queue. *)

val rx_pending : rx_queue -> int

val rx_burst_into :
  rx_queue -> into:Ixmem.Mbuf.t array -> off:int -> max:int -> int
(** Take up to [max] received mbufs (step 1 of the paper's Fig. 1b),
    bounded by the array: fill [into.(off..off+n-1)] and return [n].
    Ownership transfers to the caller.  Allocation-free; the
    run-to-completion dataplane polls with this. *)

val replenish : rx_queue -> int -> unit
(** Post [n] fresh RX descriptors; each non-empty batch counts one
    tail-register doorbell. *)

val free_descriptors : rx_queue -> int

val transmit_at : t -> Ixmem.Mbuf.t -> earliest:Engine.Sim_time.t -> unit
(** Place a frame on the wire, not before [earliest] — run-to-completion
    stacks' cycles finish (and ring their doorbell) at a future point
    of simulated time.  The mbuf itself is the frame on the wire
    (zero-copy DMA), carrying the caller's reference — the buffer
    returns to its pool when the wire is done with it.  A caller that
    wants to keep reading the mbuf must [Mbuf.incref] before handing it
    over, and must not move its [off] or [len]. *)

val rx_popped : rx_queue -> int
(** Frames the driver has taken out of this ring since creation — the
    high-water mark a migration drain compares against: once [rx_popped]
    passes the value of the queue's [rx_frames] counter at retarget
    time, every frame that was steered here before the indirection
    rewrite has been processed. *)

val rss_retargets : t -> int
(** Total indirection entries rewritten (the [rss_retarget] counter). *)

val rx_drops : t -> int
val rx_frames : t -> int

val rx_filtered : t -> int
(** Frames rejected by the MAC filter (counted under
    [<name>.rx_filtered] so frame-conservation audits close; a wire
    fault that corrupts the destination MAC lands here). *)

val pool_of : rx_queue -> Ixmem.Mempool.t

val set_replenish_gate : rx_queue -> (unit -> bool) option -> unit
(** Fault hook: when the gate returns [true] a {!replenish} swallows
    the tail write (an RX-ring stall) — the ring drains into counted
    drops, and the swallowed descriptors are posted with the first
    doorbell after the gate reopens, restoring the full complement.
    [None] (the default) posts every doorbell immediately. *)

val set_doorbell_defer : rx_queue -> ((unit -> unit) -> unit) option -> unit
(** Fault hook: route each doorbell's descriptor posting through a
    scheduler (the fault injector delays it by a bounded interval).
    The posting thunk re-clamps against ring occupancy when it runs,
    so late application can never overflow the ring. *)

val iter_queues : t -> (rx_queue -> unit) -> unit
