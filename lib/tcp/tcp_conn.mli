(** TCP connection logic: the RFC 793 state machine with NewReno
    congestion control, fast retransmit/recovery, RTO via the timing
    wheel, delayed ACKs, zero-window probing and out-of-order
    reassembly.

    The engine is host-agnostic: it builds TCP segments into mbufs and
    hands them to [Tcb.env.output]; the owning stack wraps them in
    IP/Ethernet and charges its own CPU costs.  All three stacks in the
    repository (IX, Linux model, mTCP model) share this module, so
    protocol behaviour is held constant across the comparison, exactly
    as the paper holds lwIP constant. *)

val make_env :
  now:(unit -> int) ->
  wheel:Timerwheel.Timer_wheel.t ->
  alloc:(unit -> Ixmem.Mbuf.t option) ->
  output:(Tcb.t -> Ixmem.Mbuf.t -> unit) ->
  rng:Engine.Rng.t ->
  ?store:Tcb.store ->
  unit ->
  Tcb.env
(** The environment connections run in: its clock, timer wheel, mbuf
    pool, output path and connection store.  Every TCP timer of the
    env fires through one action, which finds its connection from the
    code the wheel cell carries. *)

val syn_mss : Tcb.env -> Tcb.config -> int option
(** The [Some config.mss] a SYN or SYN-ACK advertises: the env's box
    ([Tcb.env.syn_mss]), rebuilt only when [config]'s MSS differs from
    the one it holds, so sending a SYN allocates no option. *)

val connect :
  Tcb.env ->
  Tcb.config ->
  local_ip:Ixnet.Ip_addr.t ->
  local_port:int ->
  remote_ip:Ixnet.Ip_addr.t ->
  remote_port:int ->
  cookie:int ->
  Tcb.t
(** Active open: allocates a TCB in SYN_SENT and emits the SYN.
    Completion is reported through [callbacks.on_connected]. *)

val accept_syn :
  Tcb.env ->
  Tcb.config ->
  local_ip:Ixnet.Ip_addr.t ->
  remote_ip:Ixnet.Ip_addr.t ->
  segment:Ixnet.Tcp_segment.t ->
  cookie:int ->
  Tcb.t
(** Passive open from a received SYN: allocates a TCB in SYN_RCVD and
    emits the SYN-ACK.  The caller (the endpoint demultiplexer) fires
    its accept callback once the connection reaches ESTABLISHED. *)

val accept_cookie :
  Tcb.env ->
  Tcb.config ->
  local_ip:Ixnet.Ip_addr.t ->
  remote_ip:Ixnet.Ip_addr.t ->
  segment:Ixnet.Tcp_segment.t ->
  iss:Seqno.t ->
  mss:int ->
  cookie:int ->
  Tcb.t
(** SYN-cookie materialization: build a TCB directly in ESTABLISHED
    from a cookie-validated handshake ACK.  [iss] is the cookie value
    the stateless SYN-ACK carried as its initial sequence number and
    [mss] the peer MSS recovered from the cookie's class bits; the
    endpoint validates the cookie before calling and feeds [segment]
    through [input] afterwards so piggybacked payload is delivered. *)

val input : ?ce:bool -> Tcb.t -> Ixnet.Tcp_segment.t -> Ixmem.Mbuf.t -> unit
(** Process one segment addressed to this connection.  [ce] reports the
    IP header's Congestion Experienced mark (echoed as ECE when the
    connection runs DCTCP).  The mbuf is borrowed for the duration of
    the call; payload slices handed to the application carry their own
    references. *)

val input_fast : Tcb.t -> Ixnet.Tcp_segment.t -> Ixmem.Mbuf.t -> bool
(** Header-prediction receive fast path (Van Jacobson).  Accepts the
    common established-flow segment — in-order seq, expected ACK, no
    flags beyond ACK|PSH, window unchanged, DCTCP off — and applies
    exactly the effects [input] would; returns [false] with the TCB
    untouched otherwise, in which case the caller must fall back to
    [input].  Disabled entirely when [cfg.fast_path] is [false].
    Callers may pass a scratch segment record; it is not retained. *)

val send_iov : Tcb.t -> Ixmem.Iovec.t -> int
(** Queue application data, IX [sendv] style: returns the number of
    bytes *accepted*, as constrained by the send-buffer/window budget,
    and queues that prefix of the slice by reference; the application
    owns retrying the remainder (libix does this automatically).
    Accepted bytes must stay immutable until reported by [on_sent]. *)

val send_from : Tcb.t -> Ixmem.Iov_deque.t -> int
(** Like {!send_iov}, but pulls the accepted prefix directly off a
    write queue: slices move by reference onto the TCB's send queue, and the
    remainder stays queued for the caller's retry.  The zero-copy libix
    sendv path and the socket host's writes. *)

val consume : Tcb.t -> int -> unit
(** IX [recv_done]: the application has released [n] received bytes;
    advances the receive window (and emits a window update if it
    reopens significantly). *)

val close : Tcb.t -> unit
(** Orderly close (FIN once queued data drains). *)

val abort : Tcb.t -> unit
(** Hard close: emit RST and tear down immediately (what the
    benchmark clients use to avoid ephemeral-port exhaustion, §5.3). *)

val ack_now : Tcb.t -> unit
(** Force an immediate pure ACK (used by stacks at batch boundaries). *)

val set_rexmit : Tcb.t -> unit
(** (Re)arm the retransmission timer one RTO from now. *)

val arm_delack : Tcb.t -> unit
(** Arm the delayed-ACK timer. *)

val arm_persist : Tcb.t -> unit
(** Arm the zero-window persist timer, unless it is armed already. *)

val rebind : Tcb.t -> Tcb.env -> unit
(** Flow migration: move the connection to a new environment (another
    elastic thread's wheel/pool/output path) and its row to that env's
    store, cancelling timers on the old wheel and re-arming them on the
    new one. *)
