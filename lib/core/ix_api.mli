(** The IX dataplane API (Table 1 of the paper): the event-condition
    array's layout.

    Elastic threads interact with the dataplane through three
    asynchronous, non-blocking mechanisms: batched system calls issued
    to the kernel, event conditions generated by the kernel, and direct
    (read-only) access to mbufs carrying incoming payloads.  Both the
    syscall and the event-condition arrays live in shared memory as
    arrays of fixed-size entries and are swapped at the [run_io]
    coordinated transition point.

    The simulator keeps that layout: an event condition is a row of a
    flat [int array] — a kind code plus fixed int fields — with one mbuf
    column beside it for the two payload-carrying kinds, so nothing is
    allocated per event.
    Libix reads a batch through the accessors below, each valid for the
    kinds it names.  The syscall array is the dataplane's own
    ([Dataplane.sys_accept] and friends stage its rows).

    Handles are kernel-level flow identifiers: a connection's
    generation-checked slot in its elastic thread's TCB store, so a
    closed connection's handle stays invalid after the slot is reused,
    and a flow-group migration gives the connection a new one.  Each is
    associated with a [cookie], an opaque value provided by the user at
    connection establishment for efficient user-level state lookup. *)

type handle = int

type kind =
  | Knock  (** a remotely initiated connection was opened *)
  | Connected  (** a locally initiated connection finished opening *)
  | Recv
      (** a message buffer was received (zero-copy: the application
          reads the payload in place and must eventually release the
          buffer reference) *)
  | Sent  (** a send completed and/or the window size changed *)
  | Dead  (** a connection was terminated *)
  | Udp_recv
      (** a datagram arrived on a bound UDP port (zero-copy, like
          [Recv]; release with [Mbuf.decref]) (§4.2) *)

type events
(** A batch of event-condition rows: entries [0 .. count-1], in arrival
    order. *)

val count : events -> int
val kind : events -> int -> kind

val cookie : events -> int -> int
(** [Connected], [Recv], [Sent], [Dead]: the connection's cookie. *)

val handle : events -> int -> handle
(** [Knock], [Connected]. *)

val ok : events -> int -> bool
(** [Connected]: whether the connection opened. *)

val mbuf : events -> int -> Ixmem.Mbuf.t
(** [Recv], [Udp_recv]: the buffer holding the payload. *)

val off : events -> int -> int
(** [Recv], [Udp_recv]: the payload's offset in [mbuf]'s bytes. *)

val len : events -> int -> int
(** [Recv], [Udp_recv]: the payload's length. *)

val bytes_sent : events -> int -> int
(** [Sent]: bytes the peer acknowledged. *)

val window_size : events -> int -> int
(** [Sent]: the connection's receive window when the event was staged. *)

val reason : events -> int -> Ixtcp.Tcb.close_reason
(** [Dead]. *)

val port : events -> int -> int
(** [Knock]: the listening port, so libix can find the acceptor;
    [Udp_recv]: the bound destination port. *)

val src_ip : events -> int -> Ixnet.Ip_addr.t
(** [Knock], [Udp_recv]: the remote address. *)

val src_port : events -> int -> int
(** [Knock], [Udp_recv]: the remote port. *)

(** {2 Staging (the dataplane's side)}

    Rows snapshot their fields when staged: nothing reads back through
    the TCB at delivery time, since its store slot may be recycled
    before the user phase. *)

val create_events : fill:Ixmem.Mbuf.t -> events
(** An empty batch; [fill] is an inert mbuf for the slots of rows that
    carry none.  The columns grow on demand and are reused. *)

val stage_knock :
  events -> handle:handle -> src_ip:Ixnet.Ip_addr.t -> src_port:int -> port:int -> unit

val stage_connected : events -> cookie:int -> handle:handle -> ok:bool -> unit
val stage_recv : events -> cookie:int -> Ixmem.Mbuf.t -> off:int -> len:int -> unit
val stage_sent : events -> cookie:int -> bytes_sent:int -> window_size:int -> unit
val stage_dead : events -> cookie:int -> Ixtcp.Tcb.close_reason -> unit

val stage_udp_recv :
  events ->
  port:int ->
  src_ip:Ixnet.Ip_addr.t ->
  src_port:int ->
  Ixmem.Mbuf.t ->
  off:int ->
  len:int ->
  unit

val clear : events -> unit
(** Empty the batch and drop its mbuf references (the columns are
    kept). *)

val unpark : events -> key:int -> cookie:int -> into:events -> unit
(** The accept side of parking.  A connection's events staged before
    [Sys_accept] assigned its cookie are parked with the connection's
    handle, [key], in the cookie slot; [unpark] patches [cookie] over it
    in place, then moves those rows, oldest first, onto the end of
    [into].  Other rows stay parked, in order. *)

val discard : events -> key:int -> unit
(** Drop the rows parked under [key] (a rejected or torn-down
    connection), keeping the others in order. *)
