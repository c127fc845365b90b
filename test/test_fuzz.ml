(* Robustness fuzzing: the dataplane's security model (§4.5) promises a
   malicious peer "can only hurt itself" — decoders and the TCP state
   machine must survive arbitrary junk from the wire without raising,
   and answer out-of-context segments with nothing worse than an RST. *)

module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Seg = Ixnet.Tcp_segment
open Ixtcp

let ip_a = Ixnet.Ip_addr.of_octets 10 0 0 1
let ip_b = Ixnet.Ip_addr.of_octets 10 0 0 2

let mbuf_of_string s =
  let m = Mbuf.create () in
  Mbuf.append m s;
  m

(* Decoders must return Error, never raise, on arbitrary bytes. *)
let prop_decoders_total =
  QCheck.Test.make ~name:"wire decoders never raise on junk" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun junk ->
      let m1 = mbuf_of_string junk in
      (match Ixnet.Ethernet.decode m1 with Ok _ | Error _ -> ());
      let m2 = mbuf_of_string junk in
      (match Ixnet.Ipv4_packet.decode m2 with Ok _ | Error _ -> ());
      let m3 = mbuf_of_string junk in
      (match Seg.decode m3 ~src:ip_a ~dst:ip_b with Ok _ | Error _ -> ());
      let m4 = mbuf_of_string junk in
      (match Ixnet.Arp_packet.decode m4 with Ok _ | Error _ -> ());
      let m5 = mbuf_of_string junk in
      (match Ixnet.Icmp_packet.decode m5 with Ok _ | Error _ -> ());
      let m6 = mbuf_of_string junk in
      (match Ixnet.Udp_packet.decode m6 ~src:ip_a ~dst:ip_b with Ok _ | Error _ -> ());
      true)

let prop_kv_parser_total =
  QCheck.Test.make ~name:"kv parser never raises on junk chunks" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 10) (string_of_size Gen.(int_range 0 64)))
    (fun chunks ->
      let parser = Apps.Kv_protocol.Parser.create () in
      List.iter
        (fun chunk ->
          Apps.Kv_protocol.Parser.feed parser chunk;
          let rec drain n =
            if n > 0 then begin
              match Apps.Kv_protocol.Parser.next_request parser with
              | Some _ -> drain (n - 1)
              | None -> ()
            end
          in
          drain 4)
        chunks;
      true)

(* Random (but well-formed) segments thrown at an endpoint with no
   matching flow: the endpoint must stay consistent and answer with
   RSTs, never raise. *)
let prop_endpoint_survives_random_segments =
  QCheck.Test.make ~name:"endpoint survives arbitrary segments" ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 1 20)
        (tup4 (int_bound 0xFFFF) (int_bound 0xFFFFFFFF) (int_bound 0xFF)
           (string_of_size Gen.(int_range 0 100))))
    (fun specs ->
      let pool = Mempool.create ~capacity:4096 ~name:"fuzz" () in
      let wheel = Timerwheel.Timer_wheel.create ~now:0 () in
      let ep =
        Tcp_endpoint.create
          ~now:(fun () -> 0)
          ~wheel
          ~alloc:(fun () -> Mempool.alloc pool)
          ~output_raw:(fun ~remote_ip:_ mbuf -> Mbuf.decref mbuf)
          ~rng:(Engine.Rng.create ~seed:1) ~local_ip:ip_a
          ~config:Tcb.default_config ()
      in
      Tcp_endpoint.listen ep ~port:80 ~on_accept:(fun _ -> ());
      List.iter
        (fun (port, seq, flags, payload) ->
          let m = Mbuf.create () in
          if payload <> "" then Mbuf.append m payload;
          let seg =
            {
              Seg.src_port = 1 + (port mod 0xFFFE);
              dst_port = (if flags land 1 = 0 then 80 else port mod 0xFFFF);
              seq;
              ack = seq lxor 0xDEAD;
              syn = flags land 2 <> 0;
              ack_flag = flags land 4 <> 0;
              fin = flags land 8 <> 0;
              rst = flags land 16 <> 0;
              psh = flags land 32 <> 0;
              ece = flags land 64 <> 0;
              cwr = flags land 128 <> 0;
              window = seq land 0xFFFF;
              mss = (if flags land 2 <> 0 then Some 1460 else None);
              wscale = None;
              sack = None;
              payload_off = 0;
              payload_len = 0;
            }
          in
          Seg.prepend m ~src:ip_b ~dst:ip_a seg;
          (match Seg.decode m ~src:ip_b ~dst:ip_a with
          | Ok decoded -> Tcp_endpoint.rx_segment ep ~src_ip:ip_b decoded m
          | Error _ -> ());
          Mbuf.decref m)
        specs;
      (* Only SYN-without-ACK segments to port 80 may have created
         connections; everything else should have been refused. *)
      Tcp_endpoint.connection_count ep <= List.length specs)

(* Random operations against a live connection must never raise. *)
let prop_conn_api_total =
  QCheck.Test.make ~name:"connection API total under random op sequences" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 5))
    (fun ops ->
      let pool = Mempool.create ~capacity:4096 ~name:"fuzz2" () in
      let wheel = Timerwheel.Timer_wheel.create ~now:0 () in
      let ep =
        Tcp_endpoint.create
          ~now:(fun () -> 0)
          ~wheel
          ~alloc:(fun () -> Mempool.alloc pool)
          ~output_raw:(fun ~remote_ip:_ mbuf -> Mbuf.decref mbuf)
          ~rng:(Engine.Rng.create ~seed:2) ~local_ip:ip_a
          ~config:Tcb.default_config ()
      in
      match Tcp_endpoint.connect ep ~remote_ip:ip_b ~remote_port:80 ~cookie:0 () with
      | None -> false
      | Some tcb ->
          List.iter
            (fun op ->
              match op with
              | 0 -> ignore (Tcp_conn.send_iov tcb (Ixmem.Iovec.of_string "x"))
              | 1 -> Tcp_conn.consume tcb 1
              | 2 -> Tcp_conn.close tcb
              | 3 -> Tcp_conn.ack_now tcb
              | 4 -> Tcp_conn.abort tcb
              | _ -> ())
            ops;
          true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "totality",
        [
          qt prop_decoders_total;
          qt prop_kv_parser_total;
          qt prop_endpoint_survives_random_segments;
          qt prop_conn_api_total;
        ] );
    ]
