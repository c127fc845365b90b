(* Tests for the ECN/DCTCP extension (paper §6): CE marking at links,
   incremental checksum updates, ECE echo, the DCTCP window law, and
   the incast experiment's headline ordering. *)

module Mbuf = Ixmem.Mbuf
module Frame = Ixhw.Frame
module Link = Ixhw.Link
open Ixtcp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip_a = Ixnet.Ip_addr.of_octets 10 0 0 1
let ip_b = Ixnet.Ip_addr.of_octets 10 0 0 2

let make_ip_frame ?(payload = "payload") () =
  let m = Mbuf.create () in
  Mbuf.append m payload;
  Ixnet.Udp_packet.prepend m ~src:ip_a ~dst:ip_b ~src_port:1 ~dst_port:2;
  Ixnet.Ipv4_packet.prepend m
    {
      Ixnet.Ipv4_packet.src = ip_a;
      dst = ip_b;
      protocol = Ixnet.Ipv4_packet.Udp;
      ttl = 64;
      ecn = 0;
      payload_len = m.Mbuf.len;
    };
  Ixnet.Ethernet.prepend m
    {
      Ixnet.Ethernet.dst = Ixnet.Mac_addr.of_host_id 2;
      src = Ixnet.Mac_addr.of_host_id 1;
      ethertype = Ixnet.Ethernet.Ipv4;
    };
  let frame = Frame.of_mbuf m in
  Mbuf.decref m;
  frame

(* ---------------- CE marking ---------------- *)

let test_with_ce_sets_bits_and_checksum () =
  let frame = make_ip_frame () in
  check_bool "initially unmarked" false (Frame.is_ce frame);
  let marked = Frame.with_ce frame in
  check_bool "marked" true (Frame.is_ce marked);
  (* The marked frame must still decode with a valid IP checksum. *)
  let m = Mbuf.create () in
  Frame.to_mbuf marked ~into:m;
  (match Ixnet.Ethernet.decode m with Ok _ -> () | Error e -> Alcotest.fail e);
  (match Ixnet.Ipv4_packet.decode m with
  | Ok ip ->
      check_int "ECN field CE" Ixnet.Ipv4_packet.ce ip.Ixnet.Ipv4_packet.ecn
  | Error e -> Alcotest.fail ("checksum after marking: " ^ e));
  Mbuf.decref m;
  (* Idempotent. *)
  check_bool "re-marking is identity" true (Frame.with_ce marked == marked)

let test_link_marks_past_threshold () =
  let sim = Engine.Sim.create () in
  let delivered_ce = ref 0 and delivered = ref 0 in
  let link =
    Link.create sim ~gbps:10. ~propagation_ns:0 ~ecn_threshold_bytes:2_000
      ~deliver:(fun f ->
        incr delivered;
        if Frame.is_ce f then incr delivered_ce)
      ()
  in
  (* ~1.4KB wire each; the first two fit under the 2KB backlog
     threshold, later ones queue behind more than that. *)
  for _ = 1 to 10 do
    Link.send link (make_ip_frame ~payload:(String.make 1400 'x') ())
  done;
  Engine.Sim.run sim;
  check_int "all delivered" 10 !delivered;
  check_bool "later frames marked" true (!delivered_ce >= 5);
  check_bool "early frames unmarked" true (!delivered_ce < 10);
  check_int "mark counter" !delivered_ce (Link.marked link)

let test_link_drops_past_limit () =
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let link =
    Link.create sim ~gbps:10. ~propagation_ns:0 ~queue_limit_bytes:2_000
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 10 do
    Link.send link (make_ip_frame ~payload:(String.make 1400 'x') ())
  done;
  Engine.Sim.run sim;
  check_bool "some dropped" true (Link.dropped link > 0);
  check_int "conservation" 10 (!delivered + Link.dropped link)

(* ---------------- DCTCP window law ---------------- *)

let test_dctcp_alpha_converges () =
  let c = Congestion.create ~dctcp:true ~mss:1000 ~initial_window_segs:10 () in
  (* Every byte marked, repeatedly: alpha -> 1, cwnd shrinks toward
     half per window. *)
  for _ = 1 to 400 do
    Congestion.on_ecn_feedback c ~acked_bytes:5_000 ~marked:true
  done;
  check_bool "alpha grew toward 1" true (Congestion.dctcp_alpha c > 0.8);
  check_bool "window collapsed" true (Congestion.cwnd c <= 4_000)

let test_dctcp_proportionality () =
  (* A lightly marked flow must keep most of its window; a heavily
     marked one must not. *)
  let run fraction =
    let c = Congestion.create ~dctcp:true ~mss:1000 ~initial_window_segs:100 () in
    for i = 1 to 1000 do
      Congestion.on_ecn_feedback c ~acked_bytes:1_000
        ~marked:(i mod 100 < fraction)
    done;
    Congestion.cwnd c
  in
  let light = run 5 and heavy = run 80 in
  check_bool "light marking keeps more window" true (light > 2 * heavy)

let test_dctcp_ignores_marks_when_disabled () =
  let c = Congestion.create ~mss:1000 ~initial_window_segs:10 () in
  for _ = 1 to 100 do
    Congestion.on_ecn_feedback c ~acked_bytes:10_000 ~marked:true
  done;
  check_int "newreno untouched by ECN feedback" 10_000 (Congestion.cwnd c);
  Alcotest.(check (float 0.0001)) "alpha stays 0" 0. (Congestion.dctcp_alpha c)

(* ---------------- ECE echo at the segment level ---------------- *)

let test_ece_echoed_on_ce () =
  (* Drive a DCTCP tcb directly: a CE-marked data segment must produce
     an ECE-flagged ACK. *)
  let wheel = Timerwheel.Timer_wheel.create ~now:0 () in
  let sent = ref [] in
  let env =
    Tcb.make_env
      ~now:(fun () -> 0)
      ~wheel
      ~alloc:(fun () -> Some (Mbuf.create ()))
      ~output:(fun _tcb mbuf ->
        (match Ixnet.Tcp_segment.decode mbuf ~src:ip_b ~dst:ip_a with
        | Ok seg -> sent := seg :: !sent
        | Error _ -> ());
        Mbuf.decref mbuf)
      ~rng:(Engine.Rng.create ~seed:1) ~handle_alloc:(ref 0) ()
  in
  let cfg = { Tcb.default_config with Tcb.dctcp = true; delack_segs = 1 } in
  (* Passive open via a synthetic SYN. *)
  let syn_mbuf = Mbuf.create () in
  let syn =
    {
      Ixnet.Tcp_segment.src_port = 50_000;
      dst_port = 80;
      seq = 1_000;
      ack = 0;
      syn = true;
      ack_flag = false;
      fin = false;
      rst = false;
      psh = false;
      ece = false;
      cwr = false;
      window = 65_000;
      mss = Some 1460;
      wscale = Some 7;
      sack = None;
      payload_off = 0;
      payload_len = 0;
    }
  in
  Ixnet.Tcp_segment.prepend syn_mbuf ~src:ip_b ~dst:ip_a syn;
  let tcb =
    Tcp_conn.accept_syn env cfg ~local_ip:ip_a ~remote_ip:ip_b ~segment:syn ~cookie:0
  in
  Mbuf.decref syn_mbuf;
  (* Complete the handshake (plain ACK), then deliver CE-marked data. *)
  let make_seg ?(payload = "") seq =
    let m = Mbuf.create () in
    if payload <> "" then Mbuf.append m payload;
    let seg =
      {
        syn with
        Ixnet.Tcp_segment.syn = false;
        ack_flag = true;
        seq;
        ack = Seqno.add (Tcb.iss tcb) 1;
        mss = None;
        wscale = None;
      }
    in
    Ixnet.Tcp_segment.prepend m ~src:ip_b ~dst:ip_a seg;
    match Ixnet.Tcp_segment.decode m ~src:ip_b ~dst:ip_a with
    | Ok decoded -> (decoded, m)
    | Error e -> Alcotest.fail e
  in
  let ack_seg, m1 = make_seg 1_001 in
  Tcp_conn.input tcb ack_seg m1;
  Mbuf.decref m1;
  sent := [];
  let data_seg, m2 = make_seg ~payload:"hello" 1_001 in
  Tcp_conn.input ~ce:true tcb data_seg m2;
  Mbuf.decref m2;
  (match !sent with
  | [ ack ] -> check_bool "ECE echoed" true ack.Ixnet.Tcp_segment.ece
  | other -> Alcotest.failf "expected one ACK, got %d segments" (List.length other));
  (* A later unmarked segment's ACK carries no ECE. *)
  sent := [];
  let data2, m3 = make_seg ~payload:"world" 1_006 in
  Tcp_conn.input ~ce:false tcb data2 m3;
  Mbuf.decref m3;
  match !sent with
  | [ ack ] -> check_bool "no spurious ECE" false ack.Ixnet.Tcp_segment.ece
  | other -> Alcotest.failf "expected one ACK, got %d segments" (List.length other)

(* ---------------- Incast trend ---------------- *)

let incast ~senders ~block ~config ~ecn =
  Harness.Scenario.run
    {
      Harness.Scenario.default with
      cores = 4;
      tcp_config = Some config;
      workload = Incast { senders; block; ecn };
    }

let test_incast_fine_timers_beat_coarse () =
  let coarse =
    { Ix_core.Ix_host.ix_tcp_config with Ixtcp.Tcb.min_rto_ns = 200_000_000 }
  in
  let fine = Ix_core.Ix_host.ix_tcp_config in
  let g_coarse = (incast ~senders:16 ~block:(64 * 1024) ~config:coarse ~ecn:false).goodput_gbps in
  let g_fine = (incast ~senders:16 ~block:(64 * 1024) ~config:fine ~ecn:false).goodput_gbps in
  check_bool "fine-grained RTO rescues incast goodput (>=10x)" true
    (g_fine > 10. *. g_coarse)

let test_incast_dctcp_reduces_drops () =
  let fine = Ix_core.Ix_host.ix_tcp_config in
  let dctcp = { fine with Ixtcp.Tcb.dctcp = true } in
  let plain = incast ~senders:8 ~block:(256 * 1024) ~config:fine ~ecn:false in
  let marked = incast ~senders:8 ~block:(256 * 1024) ~config:dctcp ~ecn:true in
  check_bool "ECN marks happened" true (marked.ce_marks > 0);
  check_bool "DCTCP sheds load before the queue overflows" true
    (marked.tail_drops < plain.tail_drops);
  check_bool "and still moves data" true (marked.goodput_gbps > 1.)

let () =
  Alcotest.run "dctcp"
    [
      ( "marking",
        [
          Alcotest.test_case "with_ce checksum" `Quick test_with_ce_sets_bits_and_checksum;
          Alcotest.test_case "link marks past threshold" `Quick test_link_marks_past_threshold;
          Alcotest.test_case "link drops past limit" `Quick test_link_drops_past_limit;
        ] );
      ( "window_law",
        [
          Alcotest.test_case "alpha converges" `Quick test_dctcp_alpha_converges;
          Alcotest.test_case "proportional backoff" `Quick test_dctcp_proportionality;
          Alcotest.test_case "disabled mode inert" `Quick test_dctcp_ignores_marks_when_disabled;
        ] );
      ("echo", [ Alcotest.test_case "ECE on CE" `Quick test_ece_echoed_on_ce ]);
      ( "incast",
        [
          Alcotest.test_case "fine timers rescue goodput" `Slow
            test_incast_fine_timers_beat_coarse;
          Alcotest.test_case "dctcp reduces drops" `Slow test_incast_dctcp_reduces_drops;
        ] );
    ]
