(** Pure-functional model TCP — the conformance oracle.

    A transliteration of the production state machine ({!Ixtcp.Tcp_conn}
    over the unboxed {!Ixtcp.Tcb} store) into an immutable record with
    explicit time: timer deadlines are plain integers ([-1] disarmed),
    payloads are lengths, and every step returns the successor state
    plus the ordered list of observables — emitted segment headers
    interleaved with application callbacks and protocol events — that
    the production code would have produced at the same instant.  The
    conformance driver ({!Harness.Conformance}) replays one segment
    schedule through both and asserts trace equality.

    The model covers the RFC 793 state machine, sequence-window
    acceptance, RFC 6298 RTO with exponential backoff and go-back-N
    recovery, NewReno congestion control with fast retransmit and
    cumulative-ACK recovery, delayed ACKs, zero-window persist probes,
    TIME_WAIT entry (a teardown that hands a {!Tw_remnant} over, kept by
    the driver as the endpoint keeps its flow-table remnant, RFC 1337
    assassination protection included), and the always-on hostile-peer
    hardening: RFC 5961 challenge ACKs (rate-limited and counted) and
    RFC 2883 D-SACK reporting with D-SACK-aware dup-ACK discounting.

    Out of scope (constructors reject configs that enable them): DCTCP
    and SYN cookies.  The receive fast path needs
    no counterpart here — it is *specified* as observably identical to
    the slow path, which conformance against this model verifies with
    [fast_path] on and off. *)

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  syn : bool;
  ack_flag : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  window : int;  (** raw 16-bit field, pre-scaling *)
  mss : int option;  (** SYN-only option *)
  wscale : int option;  (** SYN-only option *)
  sack : (int * int) option;  (** first SACK block — the D-SACK report *)
  payload_len : int;  (** payload as a length; contents are irrelevant *)
}
(** A segment header; the model's counterpart of
    {!Ixtcp.Ixnet.Tcp_segment.t} without the mbuf plumbing. *)

type action =
  | Recv of int  (** in-order payload delivered to the application *)
  | Sent of int  (** bytes newly acknowledged by the peer *)
  | Connected of bool  (** active open resolved *)
  | Closed of Ixtcp.Tcb.close_reason
  | Event of Ixtcp.Tcb.protocol_event  (** cold-path incident *)
  | Tw_remnant of { snd_nxt : int; rcv_nxt : int }
      (** entered TIME_WAIT: the endpoint keeps a flow-table remnant
          of these final sequence numbers, then the teardown follows *)

type item = Out of segment | Act of action
(** One observable, in emission order: a transmitted segment header or
    an application-visible action. *)

type t
(** Model connection state — immutable; every step returns a successor. *)

val connect :
  Ixtcp.Tcb.config ->
  now:int ->
  local_port:int ->
  remote_port:int ->
  iss:int ->
  t * item list
(** Active open: SYN_SENT, the initial SYN emitted, retransmit armed.
    [iss] is explicit — the driver feeds the production side's (or its
    own drawn) initial sequence number. *)

val accept : Ixtcp.Tcb.config -> now:int -> iss:int -> segment -> t * item list
(** Passive open from a received SYN ([Tcp_conn.accept_syn]): negotiate
    MSS/window-scale from the SYN's options, emit the SYN-ACK, arm
    retransmit. *)

val handle_segment : t -> now:int -> segment -> t * item list
(** Feed one received segment through the full input state machine. *)

val handle_timers : t -> now:int -> t * item list
(** Fire every armed timer whose deadline is [<= now] (retransmit,
    persist, delayed-ACK — in that order). *)

val next_deadline : t -> int
(** Earliest armed timer deadline, or [-1] when none is armed; the
    driver advances time to [min] of this and the next wire event. *)

val send : t -> now:int -> int -> t * item list * int
(** Queue application data (IX semantics: only what the transmit budget
    allows is accepted; the third component is the accepted byte
    count). *)

val consume : t -> now:int -> int -> t * item list
(** The application consumed received bytes; may emit a window-update
    ACK exactly as the production [Tcp_conn.consume] would. *)

val close : t -> now:int -> t * item list
(** Orderly close ([Tcp_conn.close]): queue a FIN (or tear down from
    SYN_SENT/LISTEN). *)

val abort : t -> now:int -> t * item list
(** Abortive close ([Tcp_conn.abort]): RST the peer (when synchronized)
    and tear down with reason [Reset]. *)

val state : t -> Ixtcp.Tcp_state.t
