(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Other of int

type t = {
  mutable dst : Mac_addr.t;
  mutable src : Mac_addr.t;
  mutable ethertype : ethertype;
}
(** Fields are mutable so the receive path can reuse one scratch record
    per frame ({!decode_into}); treat decoded records as read-only. *)

val header_size : int
(** 14 bytes. *)

val wire_bytes : payload_len:int -> int
(** Total bytes a frame with [payload_len] bytes after the Ethernet
    header occupies on the wire, including padding and overhead.  This
    is what determines line-rate message ceilings. *)

val prepend : Ixmem.Mbuf.t -> t -> unit
(** Prepend the 14-byte header to an mbuf's payload. *)

val prepend_fields :
  Ixmem.Mbuf.t -> dst:Mac_addr.t -> src:Mac_addr.t -> ethertype:ethertype -> unit
(** [prepend] without the header record — the encode-side twin of
    {!decode_into} for per-frame TX paths (no allocation). *)

val decode : Ixmem.Mbuf.t -> (t, string) result
(** Parse the header at the mbuf's current offset and advance past it.
    Allocates a fresh record; hot paths use {!decode_into}. *)

val scratch : unit -> t
(** A zeroed header record for use with {!decode_into}.  Allocate once
    per dataplane/endpoint, never per frame. *)

val decode_into : Ixmem.Mbuf.t -> t -> bool
(** Allocation-free [decode]: fill the caller-owned scratch record and
    advance the mbuf; [false] (mbuf untouched) on a short frame.  The
    scratch is invalidated by the next [decode_into] on it. *)
