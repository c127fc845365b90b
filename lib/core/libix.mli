(** libix: the user-level library over the raw dataplane API (§4.3).

    libix abstracts the batched-syscall/event-condition machinery
    behind a libevent-like interface.  It automatically coalesces
    multiple write requests into a single [sendv] per connection per
    batching round, tracks outgoing buffers in the transmit vector so
    trimmed writes are reissued when the window reopens (driven by
    [sent] events), enforces a maximum-pending-send-bytes policy, and
    offers both a compatibility read path (which copies, like the
    paper's libevent-compatible interface) and a zero-copy read path.

    libix implements the stack-portable {!Netapi.Net_api} interface
    directly: [connect] and [listen] take {!Netapi.Net_api.handlers},
    and each connection has one {!Netapi.Net_api.conn} value, built
    when the connection is, that every handler and the acceptor
    receive.  Its [id] is the conn's host-unique cookie.  {!Ix_host.stack}
    packages a host's libs as a {!Netapi.Net_api.stack}.

    One [Libix.t] exists per elastic thread; everything here executes
    in ring 3.

    Threads are elastic: a flow group (and every conn in it) can be
    migrated between threads by the control plane.  A [conn] therefore
    carries its current {e owner} — the libix of its home thread — and
    all conn-directed operations ([send], [close], [recv_done], …)
    route through it, so application code holds one stable conn value
    (and [id]) across migrations and never names a thread explicitly. *)

type t
type conn
(** The zero-copy read path's view of a connection. *)

val create : cookie_alloc:int ref -> Dataplane.t -> t
(** Installs itself as the dataplane's application.  A host passes one
    shared [cookie_alloc] to all its threads' libs so conn cookies (the
    event-routing key) stay unique across elastic threads and survive
    migration. *)

val run : t -> (unit -> unit) -> unit
(** Execute code (connects, listens, sends) in user mode: directly when
    the thread is already in its user phase (inside a handler),
    otherwise through a bootstrap transition that then starts the event
    loop. *)

val connect : t -> ip:Ixnet.Ip_addr.t -> port:int -> Netapi.Net_api.handlers -> unit
(** Open a connection; completion arrives via [on_connected]. *)

val listen :
  t -> port:int -> on_accept:(Netapi.Net_api.conn -> Netapi.Net_api.handlers) -> unit
(** Accept connections on [port]; [on_accept] runs at knock time and
    returns the handlers for the new connection. *)

val set_zero_copy_reader : t -> (conn -> Ixmem.Mbuf.t -> int -> int -> unit) -> unit
(** Opt into the zero-copy read path: payloads are delivered as mbuf
    slices instead of [on_data] copies; the reader must eventually call
    [recv_done]. *)

val recv_done : conn -> Ixmem.Mbuf.t -> int -> unit
(** Zero-copy reader acknowledgment: advances the receive window and
    releases the buffer reference.  Routes through the conn's current
    owner thread. *)

val send : conn -> string -> bool
(** Queue data (copied into the transmit vector).  [false] if the
    per-connection pending-send limit would be exceeded.  Routes
    through the conn's current owner thread. *)

val udp_bind : t -> port:int -> (src:Ixnet.Ip_addr.t * int -> string -> unit) -> unit
(** Receive datagrams on a UDP port (§4.2's UDP support — the protocol
    Facebook's memcached deployment uses for GETs [46]). *)

val udp_send :
  t -> src_port:int -> dst_ip:Ixnet.Ip_addr.t -> dst_port:int -> string -> unit

val migrate_conns : src:t -> dst:t -> (int * Ix_api.handle) list -> int
(** Re-home the conns with the given [(cookie, new handle)] pairs from
    [src] to [dst] and rebind each to its new handle (control-plane
    side of a flow-group migration; the TCBs must move in the same
    step).  Dirty conns carry their queued writes to the destination's
    flush list.  Returns how many conns moved. *)

val max_pending_send : int
(** The per-connection pending-send-bytes policy limit (1 MB). *)
