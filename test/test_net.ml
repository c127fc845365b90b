(* Wire-format codec tests: every encoder round-trips through its
   decoder, checksums validate and corruption is detected. *)

module Mbuf = Ixmem.Mbuf
open Ixnet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip_a = Ip_addr.of_octets 10 0 0 1
let ip_b = Ip_addr.of_octets 10 0 0 2

(* ---------------- Checksum ---------------- *)

let test_checksum_rfc1071_example () =
  (* RFC 1071 §3 example bytes. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Checksum.ones_complement_sum data ~off:0 ~len:8 ~init:0 in
  let folded =
    let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s in
    fold sum
  in
  check_int "RFC1071 example sum" 0xddf2 folded

let test_checksum_verify_roundtrip () =
  let data = Bytes.of_string "\x45\x00\x00\x1cabcdefghijklmnopqrstuvwx" in
  let csum = Checksum.compute data ~off:0 ~len:(Bytes.length data) in
  (* Stuff the checksum into two spare bytes and verify the whole. *)
  let buf = Bytes.cat data (Bytes.create 2) in
  Bytes.set_uint16_be buf (Bytes.length data) csum;
  check_bool "verifies" true
    (Checksum.verify buf ~off:0 ~len:(Bytes.length buf) ~init:0)

let test_checksum_odd_length () =
  let data = Bytes.of_string "abc" in
  let c1 = Checksum.compute data ~off:0 ~len:3 in
  let padded = Bytes.of_string "abc\x00" in
  let c2 = Checksum.compute padded ~off:0 ~len:4 in
  check_int "odd length pads with zero" c2 c1

(* ---------------- Addresses ---------------- *)

let test_mac_roundtrip () =
  let mac = Mac_addr.of_host_id 77 in
  let buf = Bytes.create 6 in
  Mac_addr.write buf 0 mac;
  check_int "mac roundtrip" mac (Mac_addr.read buf 0);
  check_bool "broadcast" true (Mac_addr.is_broadcast Mac_addr.broadcast);
  check_bool "unicast" false (Mac_addr.is_broadcast mac)

let test_ip_roundtrip () =
  let ip = Ip_addr.of_octets 192 168 1 200 in
  let buf = Bytes.create 4 in
  Ip_addr.write buf 0 ip;
  check_int "ip roundtrip" ip (Ip_addr.read buf 0);
  Alcotest.(check string)
    "pp" "192.168.1.200"
    (Format.asprintf "%a" Ip_addr.pp ip)

(* ---------------- Ethernet ---------------- *)

let test_ethernet_roundtrip () =
  let m = Mbuf.create () in
  Mbuf.append m "data!";
  let hdr =
    {
      Ethernet.dst = Mac_addr.of_host_id 1;
      src = Mac_addr.of_host_id 2;
      ethertype = Ethernet.Ipv4;
    }
  in
  Ethernet.prepend m hdr;
  check_int "framed length" (5 + Ethernet.header_size) m.Mbuf.len;
  match Ethernet.decode m with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      check_bool "header matches" true (decoded = hdr);
      Alcotest.(check string) "payload back" "data!" (Mbuf.payload m)

let test_ethernet_wire_bytes () =
  (* A 64B TCP message: 14 eth + 20 ip + 20 tcp + 64 payload = 118B
     frame; +4 FCS +20 preamble/IFG = 142 on the wire.  This is what
     makes 8.8M msgs/s the 10GbE ceiling (§5.3). *)
  check_int "64B payload message" 142 (Ethernet.wire_bytes ~payload_len:104);
  (* Minimum-size frames pad to 64B + 20 overhead. *)
  check_int "tiny frame padded" 84 (Ethernet.wire_bytes ~payload_len:1);
  check_int "mtu frame" (1500 + 14 + 4 + 20) (Ethernet.wire_bytes ~payload_len:1500)

let test_ethernet_too_short () =
  let m = Mbuf.create () in
  Mbuf.append m "tiny";
  check_bool "rejects short frame" true (Result.is_error (Ethernet.decode m))

(* ---------------- ARP ---------------- *)

let test_arp_roundtrip () =
  let m = Mbuf.create () in
  let pkt =
    {
      Arp_packet.op = Arp_packet.Request;
      sender_mac = Mac_addr.of_host_id 3;
      sender_ip = ip_a;
      target_mac = Mac_addr.zero;
      target_ip = ip_b;
    }
  in
  Arp_packet.write m pkt;
  check_int "size" Arp_packet.size m.Mbuf.len;
  match Arp_packet.decode m with
  | Error e -> Alcotest.fail e
  | Ok decoded -> check_bool "roundtrip" true (decoded = pkt)

(* ---------------- IPv4 ---------------- *)

let test_ipv4_roundtrip () =
  let m = Mbuf.create () in
  Mbuf.append m "payload-bytes";
  let hdr =
    {
      Ipv4_packet.src = ip_a;
      dst = ip_b;
      protocol = Ipv4_packet.Tcp;
      ttl = 64;
      ecn = 0;
      payload_len = 13;
    }
  in
  Ipv4_packet.prepend m hdr;
  match Ipv4_packet.decode m with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      check_bool "roundtrip" true (decoded = hdr);
      Alcotest.(check string) "payload" "payload-bytes" (Mbuf.payload m)

let test_ipv4_checksum_corruption () =
  let m = Mbuf.create () in
  Mbuf.append m "x";
  Ipv4_packet.prepend m
    { Ipv4_packet.src = ip_a; dst = ip_b; protocol = Ipv4_packet.Udp; ttl = 64; ecn = 0; payload_len = 1 };
  (* Flip a bit in the header. *)
  let b = Bytes.get_uint8 m.Mbuf.buf (m.Mbuf.off + 8) in
  Bytes.set_uint8 m.Mbuf.buf (m.Mbuf.off + 8) (b lxor 1);
  check_bool "corruption detected" true (Result.is_error (Ipv4_packet.decode m))

let test_ipv4_trims_padding () =
  let m = Mbuf.create () in
  Mbuf.append m "ab";
  Ipv4_packet.prepend m
    { Ipv4_packet.src = ip_a; dst = ip_b; protocol = Ipv4_packet.Udp; ttl = 64; ecn = 0; payload_len = 2 };
  (* Simulate Ethernet min-frame padding after the IP datagram. *)
  Mbuf.append m (String.make 20 '\x00');
  match Ipv4_packet.decode m with
  | Error e -> Alcotest.fail e
  | Ok hdr ->
      check_int "padding trimmed" 2 hdr.Ipv4_packet.payload_len;
      Alcotest.(check string) "payload exact" "ab" (Mbuf.payload m)

(* ---------------- ICMP / UDP ---------------- *)

let test_icmp_roundtrip () =
  let m = Mbuf.create () in
  let pkt = { Icmp_packet.kind = Icmp_packet.Echo_request; ident = 7; seq = 3; data = "ping" } in
  Icmp_packet.write m pkt;
  match Icmp_packet.decode m with
  | Error e -> Alcotest.fail e
  | Ok decoded -> check_bool "roundtrip" true (decoded = pkt)

let test_udp_roundtrip () =
  let m = Mbuf.create () in
  Mbuf.append m "datagram";
  Udp_packet.prepend m ~src:ip_a ~dst:ip_b ~src_port:5353 ~dst_port:11211;
  match Udp_packet.decode m ~src:ip_a ~dst:ip_b with
  | Error e -> Alcotest.fail e
  | Ok u ->
      check_int "src port" 5353 u.Udp_packet.src_port;
      check_int "dst port" 11211 u.Udp_packet.dst_port;
      check_int "payload len" 8 u.Udp_packet.payload_len

let test_udp_checksum_uses_pseudo_header () =
  let m = Mbuf.create () in
  Mbuf.append m "datagram";
  Udp_packet.prepend m ~src:ip_a ~dst:ip_b ~src_port:1 ~dst_port:2;
  (* Decoding against different addresses must fail the checksum.  (Note
     merely *swapping* src/dst keeps the one's-complement sum intact, so
     use a genuinely different address.) *)
  let ip_c = Ip_addr.of_octets 10 9 9 9 in
  check_bool "wrong pseudo header rejected" true
    (Result.is_error (Udp_packet.decode m ~src:ip_c ~dst:ip_b))

(* ---------------- TCP segment ---------------- *)

let mk_seg ?(payload = "") ?(syn = false) ?(ack_flag = true) ?(fin = false)
    ?(rst = false) ?(psh = false) ?mss ?wscale ~seq ~ack () =
  let m = Mbuf.create () in
  if payload <> "" then Mbuf.append m payload;
  let seg =
    {
      Tcp_segment.src_port = 4001;
      dst_port = 80;
      seq;
      ack;
      syn;
      ack_flag;
      fin;
      rst;
      psh;
      ece = false;
      cwr = false;
      window = 1024;
      mss;
      wscale;
      sack = None;
      payload_off = 0;
      payload_len = 0;
    }
  in
  Tcp_segment.prepend m ~src:ip_a ~dst:ip_b seg;
  (m, seg)

let test_tcp_roundtrip_data () =
  let m, seg = mk_seg ~payload:"hello tcp" ~psh:true ~seq:1000 ~ack:2000 () in
  match Tcp_segment.decode m ~src:ip_a ~dst:ip_b with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_int "seq" seg.Tcp_segment.seq d.Tcp_segment.seq;
      check_int "ack" seg.Tcp_segment.ack d.Tcp_segment.ack;
      check_bool "psh" true d.Tcp_segment.psh;
      check_int "payload len" 9 d.Tcp_segment.payload_len;
      Alcotest.(check string)
        "payload content" "hello tcp"
        (Bytes.sub_string m.Mbuf.buf d.Tcp_segment.payload_off d.Tcp_segment.payload_len)

let test_tcp_syn_options () =
  let m, _ = mk_seg ~syn:true ~ack_flag:false ~mss:1460 ~wscale:7 ~seq:42 ~ack:0 () in
  match Tcp_segment.decode m ~src:ip_a ~dst:ip_b with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check (option int)) "mss option" (Some 1460) d.Tcp_segment.mss;
      Alcotest.(check (option int)) "wscale option" (Some 7) d.Tcp_segment.wscale;
      check_bool "syn" true d.Tcp_segment.syn

let test_tcp_seq_wraparound_encode () =
  let m, _ = mk_seg ~seq:0xFFFFFFFF ~ack:0xFFFFFFF0 () in
  match Tcp_segment.decode m ~src:ip_a ~dst:ip_b with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_int "seq wraps" 0xFFFFFFFF d.Tcp_segment.seq;
      check_int "ack wraps" 0xFFFFFFF0 d.Tcp_segment.ack

let test_tcp_checksum_corruption () =
  let m, _ = mk_seg ~payload:"corrupt me" ~seq:5 ~ack:6 () in
  let pos = m.Mbuf.off + m.Mbuf.len - 1 in
  Bytes.set_uint8 m.Mbuf.buf pos (Bytes.get_uint8 m.Mbuf.buf pos lxor 0x40);
  check_bool "rejected" true (Result.is_error (Tcp_segment.decode m ~src:ip_a ~dst:ip_b))

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp segment encode/decode roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF) (int_bound 0xFFFF)
        (string_of_size Gen.(int_range 0 512)))
    (fun (seq, ack, window, payload) ->
      let m = Mbuf.create () in
      Mbuf.append m payload;
      let seg =
        {
          Tcp_segment.src_port = 1234;
          dst_port = 9;
          seq;
          ack;
          syn = false;
          ack_flag = true;
          fin = false;
          rst = false;
          psh = payload <> "";
          ece = false;
          cwr = false;
          window;
          mss = None;
          wscale = None;
          sack = None;
          payload_off = 0;
          payload_len = 0;
        }
      in
      Tcp_segment.prepend m ~src:ip_a ~dst:ip_b seg;
      match Tcp_segment.decode m ~src:ip_a ~dst:ip_b with
      | Error _ -> false
      | Ok d ->
          d.Tcp_segment.seq = seq && d.Tcp_segment.ack = ack
          && d.Tcp_segment.window = window
          && Bytes.sub_string m.Mbuf.buf d.Tcp_segment.payload_off
               d.Tcp_segment.payload_len
             = payload)

(* One reused scratch decodes a random run of segments, each with or
   without an MSS, a window scale and a SACK block, exactly as a fresh
   [decode] does.  The scratch keeps its MSS box only for an equal
   value, so a run of SYNs advertising different MSSs checks that
   reuse. *)
let prop_decode_into_matches_decode =
  let maybe g = QCheck.Gen.(frequency [ (1, return None); (2, map Option.some g) ]) in
  let u32 = QCheck.Gen.int_bound 0xFFFFFFFF in
  let seg_gen =
    QCheck.Gen.(
      quad (maybe (int_bound 0xFFFF)) (maybe (int_bound 255)) (maybe (pair u32 u32))
        (pair u32 (string_size (int_range 0 32))))
  in
  QCheck.Test.make ~name:"scratch decode matches decode" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 24) seg_gen))
    (fun segs ->
      let scratch = Tcp_segment.scratch () in
      List.for_all
        (fun (mss, wscale, sack, (seq, payload)) ->
          let m = Mbuf.create () in
          Mbuf.append m payload;
          Tcp_segment.prepend m ~src:ip_a ~dst:ip_b
            {
              Tcp_segment.src_port = 4001;
              dst_port = 80;
              seq;
              ack = 0;
              syn = mss <> None;
              ack_flag = mss = None;
              fin = false;
              rst = false;
              psh = payload <> "";
              ece = false;
              cwr = false;
              window = 1024;
              mss;
              wscale;
              sack;
              payload_off = 0;
              payload_len = 0;
            };
          Tcp_segment.decode_into m ~src:ip_a ~dst:ip_b scratch
          && Tcp_segment.decode m ~src:ip_a ~dst:ip_b = Ok scratch)
        segs)

(* A SYN whose MSS equals the scratch's current one decodes into the
   scratch with no allocation: the window scale takes a static box and
   the MSS keeps the scratch's. *)
let test_syn_decode_allocates_nothing () =
  let m, _ = mk_seg ~syn:true ~ack_flag:false ~mss:1460 ~wscale:7 ~seq:42 ~ack:0 () in
  let scratch = Tcp_segment.scratch () in
  let decode () = Tcp_segment.decode_into m ~src:ip_a ~dst:ip_b scratch in
  check_bool "warm-up decode" true (decode ());
  let ok =
    Alloc_gate.none "words over 10k SYN decodes" (fun () ->
        let ok = ref true in
        for _ = 1 to 10_000 do
          ok := decode () && !ok
        done;
        !ok)
  in
  check_bool "every decode succeeded" true ok;
  Alcotest.(check (option int)) "mss option" (Some 1460) scratch.Tcp_segment.mss;
  Alcotest.(check (option int)) "wscale option" (Some 7) scratch.Tcp_segment.wscale

let prop_ipv4_eth_stacking =
  QCheck.Test.make ~name:"full frame stack (eth/ip/payload) roundtrip" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 1400))
    (fun payload ->
      let m = Mbuf.create () in
      Mbuf.append m payload;
      Ipv4_packet.prepend m
        {
          Ipv4_packet.src = ip_a;
          dst = ip_b;
          protocol = Ipv4_packet.Udp;
          ttl = 64;
          ecn = 0;
          payload_len = String.length payload;
        };
      Ethernet.prepend m
        {
          Ethernet.dst = Mac_addr.of_host_id 9;
          src = Mac_addr.of_host_id 8;
          ethertype = Ethernet.Ipv4;
        };
      match Ethernet.decode m with
      | Error _ -> false
      | Ok eth -> (
          eth.Ethernet.ethertype = Ethernet.Ipv4
          &&
          match Ipv4_packet.decode m with
          | Error _ -> false
          | Ok _ -> Mbuf.payload m = payload))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "verify roundtrip" `Quick test_checksum_verify_roundtrip;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        ] );
      ( "addresses",
        [
          Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "roundtrip" `Quick test_ethernet_roundtrip;
          Alcotest.test_case "wire arithmetic" `Quick test_ethernet_wire_bytes;
          Alcotest.test_case "short frame rejected" `Quick test_ethernet_too_short;
        ] );
      ("arp", [ Alcotest.test_case "roundtrip" `Quick test_arp_roundtrip ]);
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "checksum corruption" `Quick test_ipv4_checksum_corruption;
          Alcotest.test_case "padding trimmed" `Quick test_ipv4_trims_padding;
        ] );
      ( "icmp_udp",
        [
          Alcotest.test_case "icmp roundtrip" `Quick test_icmp_roundtrip;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "udp pseudo header" `Quick test_udp_checksum_uses_pseudo_header;
        ] );
      ( "tcp_segment",
        [
          Alcotest.test_case "data roundtrip" `Quick test_tcp_roundtrip_data;
          Alcotest.test_case "syn options" `Quick test_tcp_syn_options;
          Alcotest.test_case "seq wraparound" `Quick test_tcp_seq_wraparound_encode;
          Alcotest.test_case "checksum corruption" `Quick test_tcp_checksum_corruption;
          Alcotest.test_case "SYN decode allocates nothing" `Quick
            test_syn_decode_allocates_nothing;
          qt prop_tcp_roundtrip;
          qt prop_decode_into_matches_decode;
          qt prop_ipv4_eth_stacking;
        ] );
    ]
