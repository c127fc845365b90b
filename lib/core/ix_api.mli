(** The IX dataplane API (Table 1 of the paper).

    Elastic threads interact with the dataplane through three
    asynchronous, non-blocking mechanisms: batched system calls issued
    to the kernel, event conditions generated by the kernel, and direct
    (read-only) access to mbufs carrying incoming payloads.  Both the
    syscall and the event-condition arrays live in shared memory and
    are swapped at the [run_io] coordinated transition point.

    Handles are kernel-level flow identifiers: a connection's
    generation-checked slot in its elastic thread's TCB store, so a
    closed connection's handle stays invalid after the slot is reused,
    and a flow-group migration gives the connection a new one.  Each is
    associated with a [cookie], an opaque value provided by the user at
    connection establishment for efficient user-level state lookup. *)

type handle = int

type syscall =
  | Sys_connect of { cookie : int; dst_ip : Ixnet.Ip_addr.t; dst_port : int }
      (** Opens a connection. *)
  | Sys_accept of { handle : handle; cookie : int }
      (** Accepts a connection. *)
  | Sys_sendv of { handle : handle; queue : Ixmem.Iov_deque.t }
      (** Transmits a scatter/gather array of data.  The queue is the
          connection's write queue, shared with libix: execution
          consumes the accepted prefix in place (slices move by
          reference onto the TCB's send queue) and the remainder stays
          queued for reissue — no per-sendv list is materialized. *)
  | Sys_recv_done of { handle : handle; bytes_acked : int }
      (** Advances the receive window and frees memory buffers. *)
  | Sys_close of { handle : handle }  (** Closes or rejects a connection. *)
  | Sys_abort of { handle : handle }
      (** Extension: hard close with RST, as the paper's benchmark
          clients do to avoid exhausting ephemeral ports (§5.3). *)
  | Sys_udp_sendv of {
      src_port : int;
      dst_ip : Ixnet.Ip_addr.t;
      dst_port : int;
      iovs : Ixmem.Iovec.t list;
    }
      (** Transmit a UDP datagram (§4.2: IX implements RFC-compliant
          UDP alongside TCP — Facebook's memcached deployment uses UDP
          GETs to sidestep connection scaling [46]). *)

type event =
  | Ev_knock of {
      handle : handle;
      src_ip : Ixnet.Ip_addr.t;
      src_port : int;
      dst_port : int;  (** listening port, so libix can find the acceptor *)
    }
      (** A remotely initiated connection was opened. *)
  | Ev_connected of { mutable cookie : int; handle : handle; ok : bool }
      (** A locally initiated connection finished opening. *)
  | Ev_recv of { mutable cookie : int; mbuf : Ixmem.Mbuf.t; off : int; len : int }
      (** A message buffer was received (zero-copy: the application
          reads the payload in place and must eventually release the
          buffer reference). *)
  | Ev_sent of { mutable cookie : int; bytes_sent : int; window_size : int }
      (** A send completed and/or the window size changed. *)
  | Ev_dead of { mutable cookie : int; reason : Ixtcp.Tcb.close_reason }
      (** A connection was terminated. *)
  | Ev_udp_recv of {
      dst_port : int;
      src_ip : Ixnet.Ip_addr.t;
      src_port : int;
      mbuf : Ixmem.Mbuf.t;
      off : int;
      len : int;
    }
      (** A datagram arrived on a bound UDP port (zero-copy, like
          [Ev_recv]; release with [Mbuf.decref]). *)

type syscall_result = int
(** Return code written back into the batched-syscall array: for
    [Sys_sendv] the number of bytes accepted by the TCP stack (the
    sliding-window-constrained acceptance the paper describes); for
    [Sys_connect] the new handle; 0 or -1 otherwise. *)
