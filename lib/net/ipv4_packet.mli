(** IPv4 headers (no options, no fragmentation — datacenter paths with a
    1500-byte MTU and TCP MSS clamping never fragment here). *)

type protocol = Tcp | Udp | Icmp | Other of int

type t = {
  mutable src : Ip_addr.t;
  mutable dst : Ip_addr.t;
  mutable protocol : protocol;
  mutable ttl : int;
  mutable ecn : int;  (** 2-bit ECN field: 0 = not-ECT, 1/2 = ECT, 3 = CE *)
  mutable payload_len : int;  (** bytes following the 20-byte header *)
}
(** Fields are mutable so the receive path can reuse one scratch record
    per packet ({!decode_into}); treat decoded records as read-only. *)

val protocol_code : protocol -> int

val ce : int
(** Congestion Experienced (0b11). *)

val prepend : Ixmem.Mbuf.t -> t -> unit
(** Prepend a header (with correct checksum) to the mbuf, whose current
    payload must be exactly the L4 segment of [payload_len] bytes. *)

val prepend_fields :
  Ixmem.Mbuf.t ->
  src:Ip_addr.t ->
  dst:Ip_addr.t ->
  protocol:protocol ->
  ttl:int ->
  ecn:int ->
  payload_len:int ->
  unit
(** [prepend] without the header record — the encode-side twin of
    {!decode_into} for per-packet TX paths (no allocation). *)

val decode : Ixmem.Mbuf.t -> (t, string) result
(** Validate the header checksum and length, advance past the header and
    trim any Ethernet padding beyond [payload_len].  Allocates a fresh
    record; hot paths use {!decode_into}. *)

val scratch : unit -> t
(** A zeroed header record for use with {!decode_into}.  Allocate once
    per dataplane/endpoint, never per packet. *)

val decode_into : Ixmem.Mbuf.t -> t -> bool
(** Allocation-free [decode]: validate and fill the caller-owned scratch
    record; on success the mbuf is advanced and trimmed exactly as
    [decode] does, on failure ([false]) it is left untouched.  The
    scratch is invalidated by the next [decode_into] on it. *)
