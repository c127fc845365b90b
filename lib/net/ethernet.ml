module Mbuf = Ixmem.Mbuf

type ethertype = Ipv4 | Arp | Other of int

type t = {
  mutable dst : Mac_addr.t;
  mutable src : Mac_addr.t;
  mutable ethertype : ethertype;
}

let scratch () = { dst = Mac_addr.zero; src = Mac_addr.zero; ethertype = Ipv4 }

let header_size = 14
let wire_overhead = 24
let min_frame = 64

let wire_bytes ~payload_len =
  let frame = header_size + payload_len + 4 in
  (* +4: FCS counts toward the 64-byte minimum *)
  let frame = if frame < min_frame then min_frame else frame in
  frame + wire_overhead - 4 (* FCS already included in [frame] *)

let ethertype_code = function Ipv4 -> 0x0800 | Arp -> 0x0806 | Other n -> n

let ethertype_of_code = function
  | 0x0800 -> Ipv4
  | 0x0806 -> Arp
  | n -> Other n

(* Labeled-argument encode twin of [decode_into]; see Ipv4_packet. *)
let prepend_fields mbuf ~dst ~src ~ethertype =
  let off = Mbuf.prepend mbuf header_size in
  Mac_addr.write mbuf.Mbuf.buf off dst;
  Mac_addr.write mbuf.Mbuf.buf (off + 6) src;
  Bytes.set_uint16_be mbuf.Mbuf.buf (off + 12) (ethertype_code ethertype)

let prepend mbuf t = prepend_fields mbuf ~dst:t.dst ~src:t.src ~ethertype:t.ethertype

(* Allocation-free decode into a caller-owned scratch record; advances
   the mbuf past the header on success, leaves it untouched on [false]. *)
let decode_into mbuf t =
  mbuf.Mbuf.len >= header_size
  && begin
       let off = mbuf.Mbuf.off in
       t.dst <- Mac_addr.read mbuf.Mbuf.buf off;
       t.src <- Mac_addr.read mbuf.Mbuf.buf (off + 6);
       t.ethertype <-
         ethertype_of_code (Bytes.get_uint16_be mbuf.Mbuf.buf (off + 12));
       Mbuf.adjust mbuf header_size;
       true
     end

let decode mbuf =
  let t = scratch () in
  if decode_into mbuf t then Ok t else Error "ethernet: frame too short"
