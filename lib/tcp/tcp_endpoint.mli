(** Per-thread TCP endpoint: demultiplexes incoming segments to
    connections, handles passive opens through listeners, answers
    unknown flows with RST, and allocates ephemeral ports for active
    opens (optionally steered with the RSS-reversing probe). *)

type t

val create :
  now:(unit -> int) ->
  wheel:Timerwheel.Timer_wheel.t ->
  alloc:(unit -> Ixmem.Mbuf.t option) ->
  output_raw:(remote_ip:Ixnet.Ip_addr.t -> Ixmem.Mbuf.t -> unit) ->
  rng:Engine.Rng.t ->
  local_ip:Ixnet.Ip_addr.t ->
  config:Tcb.config ->
  ?metrics:Ixtelemetry.Metrics.t ->
  ?metrics_prefix:string ->
  ?store:Tcb.store ->
  ?port_suitable:(remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> int -> bool) ->
  unit ->
  t
(** [metrics]/[metrics_prefix] place the endpoint's counters
    ([<prefix>.rx_segs], [<prefix>.connects], [<prefix>.accepts],
    [<prefix>.rsts], [<prefix>.fast_path_hits],
    [<prefix>.slow_path_hits]) in a telemetry registry ([metrics_prefix] defaults
    to ["tcp"]; a private registry is used when [metrics] is
    omitted).  [port_suitable ~remote_ip ~remote_port port] constrains
    the ephemeral ports {!connect} picks, e.g. to reverse RSS steering
    (default: any free port). *)

val local_ip : t -> Ixnet.Ip_addr.t
val config : t -> Tcb.config
val env : t -> Tcb.env

val listen : t -> port:int -> on_accept:(Tcb.t -> unit) -> unit
(** Accept connections on [port]; [on_accept] fires at ESTABLISHED,
    after which the caller installs the connection's callbacks. *)

val unlisten : t -> port:int -> unit

val connect :
  t ->
  remote_ip:Ixnet.Ip_addr.t ->
  remote_port:int ->
  cookie:int ->
  unit ->
  Tcb.t option
(** Active open on an ephemeral port, probed in the allocator's order
    for the first free port that [create]'s [port_suitable] accepts
    for this remote.  [None] if ports are exhausted. *)

val rx_segment :
  ?ce:bool ->
  t ->
  src_ip:Ixnet.Ip_addr.t ->
  Ixnet.Tcp_segment.t ->
  Ixmem.Mbuf.t ->
  unit
(** Feed one received, checksum-verified segment; [ce] carries the IP
    ECN Congestion Experienced bit for DCTCP connections (default
    [false]).  Per-frame callers pass {!ce_of_ecn}, so the argument is
    not boxed on every segment. *)

val ce_of_ecn : int -> bool option
(** The [?ce] argument for a segment whose IPv4 ECN field is [ecn]:
    a preallocated [Some true] for Congestion Experienced, else
    [None]. *)

val adopt : t -> Tcb.t -> unit
(** Flow migration: register a connection created elsewhere, once
    {!Tcp_conn.rebind} has moved it to this endpoint's env. *)

val adopt_time_wait :
  t -> from:t ->
  select:(local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> bool) -> unit
(** Flow migration: move the live TIME_WAIT remnants of [from] whose
    tuple [select] accepts into this endpoint
    ({!Flow_table.transfer_remnants}). *)

val evict : t -> Tcb.t -> unit
(** Flow migration: unhook a connection without tearing it down. *)

val connection_count : t -> int
val iter_connections : t -> (Tcb.t -> unit) -> unit
val rsts_sent : t -> int

val fast_path_hits : t -> int
(** Segments taken by the header-prediction fast path
    ([<prefix>.fast_path_hits]). *)

val slow_path_hits : t -> int
(** Segments that fell back to the full state machine
    ([<prefix>.slow_path_hits]). *)

val syn_cookies_sent : t -> int
(** Stateless SYN-ACKs emitted on the cookie listen path
    ([config.syn_cookies]); each one allocated no TCB. *)

val syn_cookies_validated : t -> int
(** Handshake ACKs whose cookie verified — each materialized a TCB
    directly in ESTABLISHED. *)

val syn_cookies_rejected : t -> int
(** Flow-miss ACKs on a listening port whose cookie failed to verify
    (answered with RST). *)

val time_wait_count : t -> int
(** Live TIME_WAIT remnants.  Every connection entering TIME_WAIT
    leaves one, a compact {!Flow_table} row, and releases its TCB. *)

val challenge_acks_sent : t -> int
(** RFC 5961 challenge ACKs emitted for in-window (but not
    exact-match) RSTs and for SYNs in synchronized states
    ([<prefix>.challenge_acks_sent]). *)

val challenge_acks_limited : t -> int
(** Challenge ACKs suppressed by the per-endpoint rate limiter
    ([Tcb.challenge_ack_limit] per [Tcb.challenge_ack_window_ns]). *)

val rsts_accepted : t -> int
(** Peer RSTs that actually tore a connection down.  Every
    [closed_reset] is either one of these or a local abort
    ([<prefix>.local_aborts]) — the chaos audit balances the three by
    metric name, so a blind-injection teardown can never go uncounted. *)

val tw_rst_dropped : t -> int
(** RSTs ignored by a TIME_WAIT remnant (RFC 1337 assassination
    protection).  Each is reported as [Tcb.Tw_rst_dropped] through the
    env's [on_protocol_event] hook, which counts it. *)

val port_double_frees : t -> int
(** {!Port_alloc.double_frees} of this endpoint's allocator; any
    nonzero value is a port-lifecycle bug. *)

val ports_in_use : t -> int
(** Currently reserved ephemeral ports. *)
