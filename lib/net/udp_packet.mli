(** UDP datagrams (RFC 768). *)

type t = {
  src_port : int;
  dst_port : int;
  payload_off : int;  (** offset of the payload within the mbuf buffer *)
  payload_len : int;
}

val prepend : Ixmem.Mbuf.t -> src:Ip_addr.t -> dst:Ip_addr.t -> src_port:int -> dst_port:int -> unit
(** Prepend a UDP header (with pseudo-header checksum) to an mbuf whose
    payload is the datagram body. *)

val decode : Ixmem.Mbuf.t -> src:Ip_addr.t -> dst:Ip_addr.t -> (t, string) result
