(** The socket host both baselines share (§5.1).

    Linux and mTCP run the same TCP engine under a socket API; they
    differ only in how RX processing and app notification are scheduled
    and in what a socket call costs.  This module is everything else:
    the per-core record, output framing and host-static ARP, frame
    demux, the timer wakeup, the socket layer, endpoint wiring and the
    {!Netapi.Net_api.stack} assembly.  A stack supplies a {!profile} of
    costs, a {!hooks} record of scheduling and transmit functions, and
    its own per-core state ['s]; all three are fixed at {!create}.

    The per-packet paths ({!process_frame}, TCP output, {!run_timers})
    and an app pass over ready sockets allocate nothing: hooks are
    top-level functions applied to the core, each wakeup is a
    [Sim.wakeup] built once per core, and the ready sockets and jobs sit
    in double-buffered arrays.  A socket write queues the caller's
    string itself. *)

type profile = {
  name : string;  (** metric, mempool and [Net_api] prefix: [linux], [mtcp] *)
  domain : Ixhw.Cpu_core.domain;
      (** where socket calls and per-event app work run: [Kernel] for
          Linux syscalls, [User] for mTCP's library calls *)
  call_ns : int;  (** one read, write, close, abort or connect *)
  call_counter : string;  (** per-core counter bumped by each call *)
  copy_ns_per_kb : int;  (** socket-API copies, both directions *)
  event_ns : int;  (** per ready socket per app pass *)
  proto_tx_ns : int;  (** TCP output per segment, charged to the kernel *)
  accept_is_call : bool;  (** Linux's accept(2) is a call; mTCP's accept is free *)
  burst : int;  (** RX scratch slots: the most frames one queue poll takes *)
}

type socket = {
  tcb : Ixtcp.Tcb.t;
  conn : Netapi.Net_api.conn;
  mutable handlers : Netapi.Net_api.handlers;
  rx_buf : Buffer.t;  (** receive queue, drained when the app reads *)
  mutable rx_bytes : int;
  backlog : Ixmem.Iov_deque.t;  (** bytes send() took beyond the TCP budget *)
  mutable in_ready : bool;
  mutable sent_pending : int;  (** acked bytes not yet reported to the app *)
  mutable connected_pending : bool option;
      (** an [on_connected] waiting for the socket's turn (mTCP) *)
  mutable closed_reason : Netapi.Net_api.close_reason option;
}

type 's t = {
  sim : Engine.Sim.t;
  idx : int;
  registry : Ixtelemetry.Metrics.t;
  cpu : Ixhw.Cpu_core.t;
  wheel : Timerwheel.Timer_wheel.t;
  pool : Ixmem.Mempool.t;
  mutable ep : Ixtcp.Tcp_endpoint.t option;  (** set by {!create} *)
  queues : (Ixhw.Nic.t * Ixhw.Nic.rx_queue) list;
  tx_nic : Ixhw.Nic.t;
  arp : (Ixnet.Ip_addr.t, Ixnet.Mac_addr.t) Hashtbl.t;  (** shared by the host's cores *)
  arp_parked : (Ixnet.Ip_addr.t, Ixmem.Mbuf.t list) Hashtbl.t;
  conn_count : int ref;  (** open sockets on the host; Linux's cache model reads it *)
  mutable ready : socket array;
      (** sockets with pending app work, oldest first in [0 .. n_ready-1] *)
  mutable n_ready : int;
  mutable ready_spare : socket array;  (** the other side of [ready]'s double buffer *)
  mutable jobs : (unit -> unit) array;
      (** deferred app closures, oldest first in [0 .. n_jobs-1] *)
  mutable n_jobs : int;
  mutable jobs_spare : (unit -> unit) array;
  mutable no_socket : socket option;
      (** filler for [ready]'s unused slots; set by {!create} *)
  timer_wakeup : Engine.Sim.wakeup;  (** {!run_timers} at the wheel's next expiry *)
  mutable conn_seq : int;
  home : unit -> int;  (** every socket's [Net_api.conn.home]: this core *)
  c_pkts : Ixtelemetry.Metrics.counter;  (** [<name>.<i>.pkts] *)
  c_calls : Ixtelemetry.Metrics.counter;  (** [<name>.<i>.<call_counter>] *)
  rx_scratch : Ixmem.Mbuf.t array;  (** [burst] slots for [Nic.rx_burst_into] *)
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Ixnet.Tcp_segment.t;
      (** decoded-header scratch, valid only inside {!process_frame} *)
  send_scratch : Ixmem.Iov_deque.t;  (** empty between socket writes *)
  profile : profile;
  hooks : 's hooks;
  st : 's;  (** the stack's own per-core state *)
}

and 's hooks = {
  notify : 's t -> unit;  (** an RX queue of the core has new frames *)
  wake : 's t -> unit;  (** sockets or jobs are pending for the app *)
  connected : 's t -> socket -> bool -> unit;
      (** queue an [on_connected] for the app; {!stack} then marks the
          socket ready and calls [wake] *)
  transmit : 's t -> Ixmem.Mbuf.t -> unit;  (** a resolved TCP frame *)
  transmit_ctrl : 's t -> Ixmem.Mbuf.t -> unit;
      (** an ARP frame, or a datagram released by an ARP reply *)
}

val charge_k : 's t -> int -> unit
(** Charge kernel time at the current instant. *)

val process_frame : 's t -> Ixmem.Mbuf.t -> unit
(** Demux one received frame (ARP, or TCP into the endpoint; anything
    else is dropped) and release it.  Charges nothing: RX cost is the
    stack's. *)

val run_timers : 's t -> unit
(** Advance the timer wheel to now, re-arm the core's wakeup at the
    wheel's next expiry (moving it if pending) and [wake] the app
    if sockets are ready.  This is also the wakeup's own action. *)

val add_job : 's t -> (unit -> unit) -> unit
(** Queue a closure for the next app pass. *)

val run_batch : 's t -> unit
(** One app pass: the jobs, then the ready sockets, each oldest first,
    as they stood on entry (each array is swapped with its spare, so
    work added during the pass waits for the next). *)

val pending : 's t -> bool
(** Jobs or ready sockets are waiting. *)

val create :
  sim:Engine.Sim.t ->
  host_id:int ->
  ip:Ixnet.Ip_addr.t ->
  nics:Ixhw.Nic.t array ->
  threads:int ->
  config:Ixtcp.Tcb.config ->
  ?metrics:Ixtelemetry.Metrics.t ->
  seed:int ->
  profile:profile ->
  hooks:'s hooks ->
  state:
    ((string -> Ixtelemetry.Metrics.counter) ->
    (('s t -> unit) -> Engine.Sim.wakeup) ->
    's) ->
  unit ->
  's t array
(** One core per thread, each with its own TCP endpoint, timer wheel
    and mbuf pool, and the NIC queue of its index on every port.
    [state] builds a core's ['s], given a function that registers the
    core's [<name>.<i>.<metric>] counters and one that builds a wakeup
    running an action on the core.  [seed] seeds the host's
    RNG, split once per core. *)

val stack : 's t array -> Netapi.Net_api.stack
(** The portable stack over [cores], also registering the
    [kernel_share] and [busy_ns] probe gauges. *)
