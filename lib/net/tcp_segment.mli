(** TCP segment wire format (RFC 793), with the MSS and window-scale
    options (RFC 7323) that the single-flow bandwidth experiments
    (NetPIPE, Fig. 2) depend on. *)

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;  (** 32-bit sequence number (low 32 bits used) *)
  mutable ack : int;
  mutable syn : bool;
  mutable ack_flag : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable psh : bool;
  mutable ece : bool;  (** ECN echo (RFC 3168), used by the DCTCP extension *)
  mutable cwr : bool;  (** congestion window reduced *)
  mutable window : int;  (** raw 16-bit window field (pre-scaling) *)
  mutable mss : int option;  (** SYN-only option *)
  mutable wscale : int option;  (** SYN-only option *)
  mutable sack : (int * int) option;
      (** first SACK block (kind 5), [(left, right)] edges — carries the
          D-SACK duplicate report (RFC 2883) *)
  mutable payload_off : int;  (** payload position within the mbuf buffer *)
  mutable payload_len : int;
}
(** Fields are mutable so the receive path can reuse one scratch record
    per packet ({!decode_into}); treat decoded records as read-only. *)

val prepend :
  Ixmem.Mbuf.t -> src:Ip_addr.t -> dst:Ip_addr.t -> t -> unit
(** Prepend the TCP header (with options and pseudo-header checksum) to
    an mbuf whose payload is the segment body.  [payload_off]/[len] of
    [t] are ignored on encode; the mbuf payload is the body. *)

val some_wscale : int -> int option
(** The preallocated [Some shift] for a window-scale byte [0 .. 255]:
    decoded and emitted SYNs share these boxes. *)

val decode :
  Ixmem.Mbuf.t -> src:Ip_addr.t -> dst:Ip_addr.t -> (t, string) result
(** Parse and checksum-verify the segment at the mbuf's offset.  Does
    not consume the mbuf: [payload_off]/[payload_len] point into it.
    Allocates a fresh record; hot paths use {!decode_into}. *)

val scratch : unit -> t
(** A zeroed segment record for use with {!decode_into}.  Allocate once
    per dataplane/endpoint, never per packet. *)

val decode_into :
  Ixmem.Mbuf.t -> src:Ip_addr.t -> dst:Ip_addr.t -> t -> bool
(** Allocation-free [decode]: validate the segment and fill the
    caller-owned scratch record, returning [false] (scratch contents
    unspecified) on a malformed or corrupt segment.  Options parse
    straight into the scratch: a window scale takes its
    {!some_wscale} box, an MSS equal to the scratch's current one
    keeps its box, and only a new MSS value or a SACK block
    allocates.  The scratch is invalidated by the next [decode_into]
    on it — no one may hold a decoded header across a yield or past
    the current packet. *)
