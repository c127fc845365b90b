(* TCP engine tests over a loopback fixture: two endpoints joined by a
   lossy, delaying "wire", with timing wheels pumped from the event
   loop.  The property tests assert TCP's contract — exactly-once,
   in-order delivery — under random loss. *)

module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec
module Wheel = Timerwheel.Timer_wheel
module Seg = Ixnet.Tcp_segment
open Ixtcp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip_a = Ixnet.Ip_addr.of_octets 10 0 0 1
let ip_b = Ixnet.Ip_addr.of_octets 10 0 0 2

type host = {
  ep : Tcp_endpoint.t;
  wheel : Wheel.t;
  pool : Mempool.t;
}

type net = {
  sim : Engine.Sim.t;
  a : host;
  b : host;
  mutable drops : int;
}

(* Build two endpoints joined back-to-back.  [loss] drops each segment
   with the given probability; [delay_ns] is the one-way latency. *)
let make_net ?(loss = 0.) ?(delay_ns = 10_000) ?(seed = 1) ?config
    ?(wire_up = fun (_ : int) -> true) () =
  let sim = Engine.Sim.create () in
  let loss_rng = Engine.Rng.create ~seed:(seed + 100) in
  let cfg = match config with Some c -> c | None -> Tcb.default_config in
  let net = ref None in
  let peer_of ip = if ip = ip_a then (Option.get !net).a else (Option.get !net).b in
  let make_host ~local_ip ~seed =
    let wheel = Wheel.create ~now:0 () in
    let pool = Mempool.create ~capacity:32768 ~name:"host" () in
    let rec host =
      lazy
        (let output_raw ~remote_ip mbuf =
           let this = Lazy.force host in
           ignore this;
           (* The loss draw stays first (and gated on [loss > 0.]) so
              seeds reproduce the same drop pattern whether or not a
              flap window is configured. *)
           let lost = loss > 0. && Engine.Rng.float loss_rng 1.0 < loss in
           if lost || not (wire_up (Engine.Sim.now sim)) then begin
             (Option.get !net).drops <- (Option.get !net).drops + 1;
             Mbuf.decref mbuf
           end
           else begin
             Engine.Sim.after sim delay_ns (fun () ->
                 let dst = peer_of remote_ip in
                 (* The peer decodes the raw TCP segment. *)
                 (match Seg.decode mbuf ~src:local_ip ~dst:remote_ip with
                 | Ok seg -> Tcp_endpoint.rx_segment dst.ep ~src_ip:local_ip seg mbuf
                 | Error e -> Alcotest.failf "segment decode: %s" e);
                 Mbuf.decref mbuf)
           end
         in
         let ep =
           Tcp_endpoint.create
             ~now:(fun () -> Engine.Sim.now sim)
             ~wheel
             ~alloc:(fun () -> Mempool.alloc pool)
             ~output_raw
             ~rng:(Engine.Rng.create ~seed)
             ~local_ip ~config:cfg ()
         in
         { ep; wheel; pool })
    in
    Lazy.force host
  in
  let a = make_host ~local_ip:ip_a ~seed:(seed + 1) in
  let b = make_host ~local_ip:ip_b ~seed:(seed + 2) in
  let n = { sim; a; b; drops = 0 } in
  net := Some n;
  (* Pump both timing wheels every 100 us. *)
  let rec tick () =
    Wheel.advance a.wheel ~now:(Engine.Sim.now sim);
    Wheel.advance b.wheel ~now:(Engine.Sim.now sim);
    Engine.Sim.after sim 100_000 tick
  in
  Engine.Sim.after sim 100_000 tick;
  n

let run net ~ms = Engine.Sim.run ~until:(Engine.Sim_time.ms ms) net.sim

(* An accumulating sink server: collects everything it receives. *)
let sink_server ?(consume = true) host ~port =
  let received = Buffer.create 1024 in
  let closed = ref false in
  Tcp_endpoint.listen host.ep ~port ~on_accept:(fun tcb ->
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun mbuf off len ->
          Buffer.add_subbytes received mbuf.Mbuf.buf off len;
          if consume then Tcp_conn.consume tcb len;
          Mbuf.decref mbuf);
      tcb.Tcb.callbacks.Tcb.on_closed <-
        (fun _reason ->
          closed := true;
          Tcp_conn.close tcb));
  (received, closed)

(* A client that connects and streams [data], reissuing on [sent]. *)
let streaming_client host ~remote_ip ~port ~data ?(close_when_done = false) () =
  let connected = ref false in
  let refused = ref false in
  let sent_acked = ref 0 in
  let pos = ref 0 in
  let total = String.length data in
  let buf = Bytes.of_string data in
  let tcb_ref = ref None in
  let rec push tcb =
    if !pos < total then begin
      let iov = { Iovec.buf; off = !pos; len = total - !pos } in
      let accepted = Tcp_conn.send_iov tcb iov in
      pos := !pos + accepted;
      if accepted > 0 && !pos < total then push tcb
    end
    else if close_when_done && !pos = total && !sent_acked = total then
      Tcp_conn.close tcb
  in
  let tcb =
    Option.get
      (Tcp_endpoint.connect host.ep ~remote_ip ~remote_port:port ~cookie:7 ())
  in
  tcb_ref := Some tcb;
  tcb.Tcb.callbacks.Tcb.on_connected <-
    (fun ok ->
      if ok then begin
        connected := true;
        push tcb
      end
      else refused := true);
  tcb.Tcb.callbacks.Tcb.on_sent <-
    (fun n ->
      sent_acked := !sent_acked + n;
      push tcb);
  (tcb, connected, refused, sent_acked)

(* ---------------- Seqno ---------------- *)

let test_seqno_wraparound () =
  check_int "add wraps" 5 (Seqno.add 0xFFFFFFFE 7);
  check_bool "lt across wrap" true (Seqno.lt 0xFFFFFFF0 5);
  check_bool "gt across wrap" true (Seqno.gt 5 0xFFFFFFF0);
  check_int "diff across wrap" 21 (Seqno.diff 5 0xFFFFFFF0);
  check_int "negative diff" (-21) (Seqno.diff 0xFFFFFFF0 5);
  check_int "max picks later" 5 (Seqno.max 5 0xFFFFFFF0)

let prop_seqno_ordering_antisymmetric =
  QCheck.Test.make ~name:"seqno lt/gt antisymmetric" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
    (fun (a, b) ->
      QCheck.assume (Seqno.diff a b <> 0);
      Seqno.lt a b = Seqno.gt b a && Seqno.lt a b <> Seqno.lt b a)

let prop_seqno_add_orders_across_wrap =
  QCheck.Test.make ~name:"s < s+d for 0 < d < 2^31, across the wrap"
    ~count:1000
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_range 1 0x7FFFFFFE))
    (fun (s, d) ->
      let s' = Seqno.add s d in
      Seqno.lt s s' && Seqno.gt s' s && Seqno.le s s'
      && (not (Seqno.le s' s))
      && Seqno.diff s' s = d)

let prop_seqno_le_reflexive_antisymmetric =
  QCheck.Test.make ~name:"le reflexive and antisymmetric across wrap"
    ~count:1000
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
    (fun (a, b) ->
      Seqno.le a a
      &&
      if Seqno.diff a b = 0 then Seqno.le a b && Seqno.le b a
      else Seqno.le a b <> Seqno.le b a)

(* The window-acceptance predicate the input path relies on:
   [start <= s < start + len] in circular arithmetic. *)
let window_contains ~start ~len s =
  Seqno.le start s && Seqno.lt s (Seqno.add start len)

let prop_seqno_window_contains =
  QCheck.Test.make ~name:"window membership across the 2^32 wrap"
    ~count:1000
    QCheck.(
      triple (int_bound 0xFFFFFFFF) (int_range 1 65535) (int_bound 0xFFFFFFFF))
    (fun (start, wnd, k) ->
      let inside = Seqno.add start (k mod wnd) in
      let below = Seqno.sub start (1 + (k mod 1000)) in
      let at_edge = Seqno.add start wnd in
      window_contains ~start ~len:wnd inside
      && (not (window_contains ~start ~len:wnd below))
      && not (window_contains ~start ~len:wnd at_edge))

(* ---------------- RTT estimator (Tcb) ---------------- *)

let test_rtt_converges () =
  let r = Bare_tcb.create ~mss:1000 ~iw:10 () in
  for _ = 1 to 50 do
    Tcb.rtt_observe r ~sample_ns:10_000_000
  done;
  check_int "srtt converges to sample" 10_000_000 (Tcb.srtt_ns r);
  check_bool "rto >= srtt" true (Tcb.rto_ns r >= 10_000_000);
  Tcb.rtt_observe r ~sample_ns:2_000_000;
  check_int "one sample moves srtt 1/8 of the way" 9_000_000 (Tcb.srtt_ns r)

let test_rtt_backoff () =
  let r = Bare_tcb.create ~mss:1000 ~iw:10 () in
  Tcb.rtt_observe r ~sample_ns:5_000_000;
  let base = Tcb.rto_ns r in
  Tcb.rtt_backoff r;
  Tcb.rtt_backoff r;
  check_int "doubles twice" (4 * base) (Tcb.rto_ns r);
  for _ = 1 to 5 do
    Tcb.rtt_backoff r
  done;
  check_int "multiplier caps at 64" (64 * base) (Tcb.rto_ns r);
  Tcb.rtt_observe r ~sample_ns:5_000_000;
  check_bool "ack resets backoff" true (Tcb.rto_ns r < 4 * base)

let test_rtt_respects_min () =
  let r = Bare_tcb.create ~min_rto_ns:200_000_000 ~mss:1000 ~iw:10 () in
  Tcb.rtt_observe r ~sample_ns:50_000 (* 50 us RTT *);
  check_int "Linux-style 200ms floor" 200_000_000 (Tcb.rto_ns r)

let test_rtt_max_cap () =
  (* During a long outage the exponential backoff must plateau at
     max_rto, not keep doubling toward a multi-minute timer. *)
  let r = Bare_tcb.create ~max_rto_ns:8_000_000 ~mss:1000 ~iw:10 () in
  Tcb.rtt_observe r ~sample_ns:5_000_000;
  for _ = 1 to 10 do
    Tcb.rtt_backoff r
  done;
  check_int "backoff plateaus at max_rto" 8_000_000 (Tcb.rto_ns r);
  Tcb.rtt_backoff r;
  check_int "stays capped" 8_000_000 (Tcb.rto_ns r)

let test_rtt_reset_backoff () =
  (* Forward progress (a cumulative ACK) ends the backoff even when
     Karn's rule forbids taking an RTT sample from the retransmitted
     segment — the link healed, so the next timeout uses the base RTO. *)
  let r = Bare_tcb.create ~mss:1000 ~iw:10 () in
  Tcb.rtt_observe r ~sample_ns:5_000_000;
  let base = Tcb.rto_ns r in
  for _ = 1 to 4 do
    Tcb.rtt_backoff r
  done;
  check_int "backed off 16x" (16 * base) (Tcb.rto_ns r);
  Tcb.rtt_reset_backoff r;
  check_int "heal returns rto to base" base (Tcb.rto_ns r)

(* ---------------- Congestion control (Tcb) ---------------- *)

let test_congestion_slow_start_doubles () =
  let c = Bare_tcb.create ~mss:1000 ~iw:10 () in
  check_int "IW10" 10_000 (Tcb.cwnd c);
  Tcb.cong_on_ack c ~acked_bytes:10_000;
  check_int "doubled" 20_000 (Tcb.cwnd c)

let test_congestion_fast_retransmit_halves () =
  let c = Bare_tcb.create ~mss:1000 ~iw:10 () in
  Tcb.cong_on_fast_retransmit c ~flight:20_000;
  check_bool "in recovery" true (Tcb.in_recovery c);
  check_int "ssthresh half of flight" 10_000 (Tcb.ssthresh c);
  Tcb.cong_on_recovery_exit c;
  check_int "cwnd deflates to ssthresh" 10_000 (Tcb.cwnd c);
  check_bool "recovery exited" false (Tcb.in_recovery c)

let test_congestion_rto_collapses () =
  let c = Bare_tcb.create ~mss:1000 ~iw:10 () in
  Tcb.cong_on_rto c;
  check_int "one segment" 1_000 (Tcb.cwnd c)

let test_congestion_avoidance_linear () =
  let c = Bare_tcb.create ~mss:1000 ~iw:4 () in
  Tcb.cong_on_fast_retransmit c ~flight:8_000;
  Tcb.cong_on_recovery_exit c;
  let w0 = Tcb.cwnd c in
  (* One full window of acks in avoidance grows cwnd by one MSS. *)
  Tcb.cong_on_ack c ~acked_bytes:w0;
  check_int "plus one mss" (w0 + 1000) (Tcb.cwnd c)

(* ---------------- Port allocation ---------------- *)

let test_port_alloc_respects_predicate () =
  let pa = Port_alloc.create ~lo:100 ~hi:200 () in
  let even p = p mod 2 = 0 in
  let p = Port_alloc.alloc pa ~suitable:even in
  check_bool "a port" true (p >= 0);
  check_bool "even port" true (even p);
  check_int "in use" 1 (Port_alloc.in_use pa)

(* A connect's probe allocates nothing: the port comes back as an int,
   and the scan is no closure. *)
let test_port_alloc_allocates_nothing () =
  let pa = Port_alloc.create () in
  let odd p = p land 1 = 1 in
  Port_alloc.free pa (Port_alloc.alloc pa ~suitable:odd);
  Alloc_gate.none "words over 1k probes" (fun () ->
      for _ = 1 to 1_000 do
        Port_alloc.free pa (Port_alloc.alloc pa ~suitable:odd)
      done);
  check_int "all returned" 0 (Port_alloc.in_use pa)

let test_port_alloc_exhaustion () =
  let pa = Port_alloc.create ~lo:10 ~hi:12 () in
  let p1 = Port_alloc.alloc pa ~suitable:(fun _ -> true) in
  let p2 = Port_alloc.alloc pa ~suitable:(fun _ -> true) in
  let p3 = Port_alloc.alloc pa ~suitable:(fun _ -> true) in
  check_bool "three allocated" true (p1 >= 0 && p2 >= 0 && p3 >= 0);
  check_int "exhausted" (-1) (Port_alloc.alloc pa ~suitable:(fun _ -> true));
  Port_alloc.free pa p2;
  check_int "freed port reusable" p2 (Port_alloc.alloc pa ~suitable:(fun _ -> true))

(* ---------------- Connection lifecycle ---------------- *)

let test_handshake () =
  let net = make_net () in
  let _received, _ = sink_server net.b ~port:80 in
  let tcb, connected, _, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"" ()
  in
  run net ~ms:100;
  check_bool "client connected" true !connected;
  Alcotest.(check string) "established" "ESTABLISHED" (Tcp_state.to_string (Tcb.state tcb));
  check_int "server tracks one conn" 1 (Tcp_endpoint.connection_count net.b.ep)

let test_small_transfer () =
  let net = make_net () in
  let received, _ = sink_server net.b ~port:80 in
  let _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"hello over tcp" () in
  run net ~ms:100;
  Alcotest.(check string) "payload delivered" "hello over tcp" (Buffer.contents received)

let test_multi_segment_transfer () =
  let net = make_net () in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.init 50_000 (fun i -> Char.chr (i land 0xFF)) in
  let _, _, _, sent_acked = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:500;
  check_int "all bytes acked" 50_000 !sent_acked;
  Alcotest.(check string) "content integrity" data (Buffer.contents received)

let test_connection_refused () =
  let net = make_net () in
  (* No listener on port 81. *)
  let _, connected, refused, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:81 ~data:"x" ()
  in
  run net ~ms:100;
  check_bool "refused" true !refused;
  check_bool "never connected" false !connected;
  check_bool "server sent RST" true (Tcp_endpoint.rsts_sent net.b.ep > 0)

let test_orderly_close () =
  let net = make_net () in
  let received, server_closed = sink_server net.b ~port:80 in
  let tcb, _, _, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"bye" ~close_when_done:true ()
  in
  run net ~ms:2000;
  Alcotest.(check string) "data before close" "bye" (Buffer.contents received);
  check_bool "server saw close" true !server_closed;
  Alcotest.(check string) "client fully closed" "CLOSED" (Tcp_state.to_string (Tcb.state tcb));
  check_int "no lingering server conns" 0 (Tcp_endpoint.connection_count net.b.ep)

let test_abort_sends_rst () =
  let net = make_net () in
  let _, server_closed = sink_server net.b ~port:80 in
  let tcb, connected, _, _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"" () in
  run net ~ms:50;
  check_bool "connected first" true !connected;
  Tcp_conn.abort tcb;
  run net ~ms:100;
  check_bool "server learned of reset" true !server_closed;
  check_int "server table empty" 0 (Tcp_endpoint.connection_count net.b.ep);
  check_int "client table empty" 0 (Tcp_endpoint.connection_count net.a.ep)

let test_flow_control_zero_window () =
  (* Server never consumes: sender must stall at the receive buffer. *)
  let cfg = { Tcb.default_config with Tcb.rcv_buf = 8192 } in
  let net = make_net ~config:cfg () in
  let received, _ = sink_server ~consume:false net.b ~port:80 in
  let data = String.make 100_000 'z' in
  let _, _, _, sent_acked = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:300;
  check_bool "window bounds delivery" true (Buffer.length received <= 8192 + 1460);
  check_bool "some data flowed" true (Buffer.length received > 0);
  check_bool "sender stalled" true (!sent_acked < 100_000)

let test_window_reopens_after_consume () =
  let cfg = { Tcb.default_config with Tcb.rcv_buf = 8192 } in
  let net = make_net ~config:cfg () in
  let total_consumed = ref 0 in
  let server_tcb = ref None in
  Tcp_endpoint.listen net.b.ep ~port:80 ~on_accept:(fun tcb ->
      server_tcb := Some tcb;
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun mbuf _off len ->
          (* Hold data; consume later in batches (recv_done). *)
          total_consumed := !total_consumed + len;
          Mbuf.decref mbuf));
  let data = String.make 60_000 'q' in
  let _, _, _, sent_acked = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  (* Periodically release the window, like an application draining. *)
  let rec drain () =
    (match !server_tcb with
    | Some tcb -> Tcp_conn.consume tcb 4096
    | None -> ());
    Engine.Sim.after net.sim 500_000 drain
  in
  Engine.Sim.after net.sim 500_000 drain;
  run net ~ms:1000;
  check_int "everything eventually acked" 60_000 !sent_acked

let test_transfer_under_loss () =
  let net = make_net ~loss:0.05 ~seed:3 () in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.init 120_000 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:5000;
  check_bool "losses occurred" true (net.drops > 0);
  Alcotest.(check string) "exactly-once in-order delivery" data (Buffer.contents received)

let test_retransmit_counted () =
  let net = make_net ~loss:0.2 ~seed:9 () in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.make 20_000 'r' in
  let tcb, _, _, _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:10_000;
  Alcotest.(check string) "delivered despite 20% loss" data (Buffer.contents received);
  check_bool "retransmissions happened" true (Tcb.retransmits tcb > 0)

let test_survives_flap () =
  (* The wire goes fully down for 6 ms mid-transfer — shorter than the
     retransmission budget — then heals.  The connection must ride out
     the outage on RTO backoff and finish the transfer exactly once;
     a reset or a stall would show up as missing bytes. *)
  (* 40 us in: the handshake (3 x 10 us hops) is done and the transfer
     is mid-flight — well before 60 KB can complete on a 10 us wire. *)
  let down_start = 40_000 and down_end = 6_040_000 in
  let net =
    make_net ~wire_up:(fun now -> now < down_start || now >= down_end) ()
  in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.init 60_000 (fun i -> Char.chr ((i * 17) land 0xFF)) in
  let tcb, _, refused, sent_acked =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data ()
  in
  run net ~ms:5000;
  check_bool "the outage swallowed frames" true (net.drops > 0);
  check_bool "connect not refused" false !refused;
  check_int "everything acked after the heal" 60_000 !sent_acked;
  Alcotest.(check string) "exactly-once delivery across the flap" data
    (Buffer.contents received);
  check_bool "rode out the outage on retransmissions" true
    (Tcb.retransmits tcb > 0)

let test_bidirectional_echo () =
  let net = make_net () in
  (* Server echoes everything back. *)
  Tcp_endpoint.listen net.b.ep ~port:7 ~on_accept:(fun tcb ->
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun mbuf off len ->
          let copy = Bytes.sub mbuf.Mbuf.buf off len in
          ignore (Tcp_conn.send_iov tcb (Iovec.of_bytes copy));
          Tcp_conn.consume tcb len;
          Mbuf.decref mbuf));
  let echoed = Buffer.create 64 in
  let tcb =
    Option.get (Tcp_endpoint.connect net.a.ep ~remote_ip:ip_b ~remote_port:7 ~cookie:1 ())
  in
  tcb.Tcb.callbacks.Tcb.on_connected <-
    (fun ok -> if ok then ignore (Tcp_conn.send_iov tcb (Iovec.of_string "marco!")));
  tcb.Tcb.callbacks.Tcb.on_recv <-
    (fun mbuf off len ->
      Buffer.add_subbytes echoed mbuf.Mbuf.buf off len;
      Tcp_conn.consume tcb len;
      Mbuf.decref mbuf);
  run net ~ms:100;
  Alcotest.(check string) "echo round trip" "marco!" (Buffer.contents echoed)

let test_rtt_measured () =
  let net = make_net ~delay_ns:50_000 () in
  let _ = sink_server net.b ~port:80 in
  let tcb, _, _, _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:(String.make 5000 'x') () in
  run net ~ms:200;
  let srtt = Tcb.srtt_ns tcb in
  check_bool "srtt near 2x one-way delay" true (srtt >= 100_000 && srtt < 400_000)

let test_half_close_server_can_still_send () =
  (* Client sends FIN; the server (CLOSE_WAIT) may still send data and
     the client must receive it (half-close semantics). *)
  let net = make_net () in
  let server_tcb = ref None in
  Tcp_endpoint.listen net.b.ep ~port:80 ~on_accept:(fun tcb ->
      server_tcb := Some tcb;
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun mbuf _ len ->
          Tcp_conn.consume tcb len;
          Mbuf.decref mbuf));
  let got = Buffer.create 16 in
  let client =
    Option.get (Tcp_endpoint.connect net.a.ep ~remote_ip:ip_b ~remote_port:80 ~cookie:0 ())
  in
  client.Tcb.callbacks.Tcb.on_connected <-
    (fun ok -> if ok then Tcp_conn.close client);
  client.Tcb.callbacks.Tcb.on_recv <-
    (fun mbuf off len ->
      Buffer.add_subbytes got mbuf.Mbuf.buf off len;
      Tcp_conn.consume client len;
      Mbuf.decref mbuf);
  run net ~ms:50;
  (* Server is in CLOSE_WAIT now; send data on the half-open side. *)
  let tcb = Option.get !server_tcb in
  Alcotest.(check string) "server in close_wait" "CLOSE_WAIT"
    (Tcp_state.to_string (Tcb.state tcb));
  ignore (Tcp_conn.send_iov tcb (Iovec.of_string "parting gift"));
  run net ~ms:100;
  Alcotest.(check string) "client received post-FIN data" "parting gift"
    (Buffer.contents got);
  (* Server closes its side; everything tears down. *)
  Tcp_conn.close tcb;
  run net ~ms:3000;
  check_int "server table empty" 0 (Tcp_endpoint.connection_count net.b.ep);
  check_int "client table empty" 0 (Tcp_endpoint.connection_count net.a.ep)

let test_simultaneous_close () =
  let net = make_net () in
  let server_tcb = ref None in
  Tcp_endpoint.listen net.b.ep ~port:80 ~on_accept:(fun tcb -> server_tcb := Some tcb);
  let client =
    Option.get (Tcp_endpoint.connect net.a.ep ~remote_ip:ip_b ~remote_port:80 ~cookie:0 ())
  in
  run net ~ms:50;
  (* Both ends close in the same instant: FINs cross on the wire. *)
  Tcp_conn.close client;
  Tcp_conn.close (Option.get !server_tcb);
  run net ~ms:3000;
  Alcotest.(check string) "client closed" "CLOSED" (Tcp_state.to_string (Tcb.state client));
  check_int "no lingering flows" 0
    (Tcp_endpoint.connection_count net.a.ep + Tcp_endpoint.connection_count net.b.ep)

let test_mss_negotiation_clamps_segments () =
  (* Server advertises a small MSS; the client must never send larger
     segments.  Observable through segment counts: 5000 bytes over a
     536-byte MSS needs at least 10 data segments. *)
  let small = { Tcb.default_config with Tcb.mss = 536 } in
  let net = make_net ~config:small () in
  let received, _ = sink_server net.b ~port:80 in
  let tcb, _, _, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:(String.make 5_000 'm') ()
  in
  run net ~ms:200;
  check_int "delivered" 5_000 (Buffer.length received);
  check_bool "segment count respects MSS" true (Tcb.segs_out tcb >= 10)

let test_ooo_flood_recovers () =
  (* Heavy reordering-by-loss: more OOO segments than the 64-entry
     bound; retransmission must still complete the byte stream. *)
  let net = make_net ~loss:0.3 ~seed:21 () in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.init 60_000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:30_000;
  Alcotest.(check string) "in-order exactly-once despite 30% loss" data
    (Buffer.contents received)

let test_listener_teardown_refuses () =
  let net = make_net () in
  let _ = sink_server net.b ~port:80 in
  Tcp_endpoint.unlisten net.b.ep ~port:80;
  let _, connected, refused, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"x" ()
  in
  run net ~ms:100;
  check_bool "refused after unlisten" true !refused;
  check_bool "not connected" false !connected

(* ---------------- Properties ---------------- *)

let transfer_roundtrip ~loss ~size ~seed =
  let net = make_net ~loss ~seed () in
  let received, _ = sink_server net.b ~port:80 in
  let data = String.init size (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let _ = streaming_client net.a ~remote_ip:ip_b ~port:80 ~data () in
  run net ~ms:20_000;
  Buffer.contents received = data

(* --- flow table ----------------------------------------------------- *)

(* One env (hence one TCB store) per test: the flow table stores
   handles into its endpoint's store. *)
let make_tcb_env () =
  Tcp_conn.make_env
    ~now:(fun () -> 0)
    ~wheel:(Wheel.create ~now:0 ())
    ~alloc:(fun () -> None)
    ~output:(fun _ _ -> ())
    ~rng:(Engine.Rng.create ~seed:7) ()

let make_tcb env ~local_port ~remote_ip ~remote_port =
  Tcb.create env Tcb.default_config ~local_ip:ip_a ~local_port ~remote_ip
    ~remote_port ~cookie:0

(* A lookup's live view, or [None] for the dead view. *)
let find ft ~local_port ~remote_ip ~remote_port =
  let tcb = Flow_table.conn ft (Flow_table.lookup ft ~local_port ~remote_ip ~remote_port) in
  if Tcb.is_dead tcb then None else Some tcb

let test_flow_table_high_local_port () =
  (* Regression: the old single-int key packed local_port lsl 48 into a
     63-bit int, so any local port with bit 15 set (>= 0x8000) spilled
     into the sign bit and aliased local_port land 0x7FFF for the same
     remote endpoint. *)
  let env = make_tcb_env () in
  let ft = Flow_table.create ~store:env.Tcb.store in
  let remote_ip = ip_b and remote_port = 7777 in
  let hi = make_tcb env ~local_port:0x8000 ~remote_ip ~remote_port in
  let lo = make_tcb env ~local_port:0x0000 ~remote_ip ~remote_port in
  Flow_table.add ft ~local_port:0x8000 ~remote_ip ~remote_port hi;
  Flow_table.add ft ~local_port:0x0000 ~remote_ip ~remote_port lo;
  check_int "two distinct flows" 2 (Flow_table.count ft);
  (match find ft ~local_port:0x8000 ~remote_ip ~remote_port with
  | Some t -> check_bool "port 0x8000 finds its own tcb" true (t == hi)
  | None -> Alcotest.fail "port 0x8000 flow missing");
  (match find ft ~local_port:0x0000 ~remote_ip ~remote_port with
  | Some t -> check_bool "port 0x0000 finds its own tcb" true (t == lo)
  | None -> Alcotest.fail "port 0x0000 flow missing");
  Flow_table.remove ft ~local_port:0x8000 ~remote_ip ~remote_port;
  check_int "only the high-port flow removed" 1 (Flow_table.count ft);
  check_bool "high-port flow gone" true
    (find ft ~local_port:0x8000 ~remote_ip ~remote_port = None);
  check_bool "low-port flow survives" true
    (find ft ~local_port:0x0000 ~remote_ip ~remote_port <> None)

let test_flow_table_growth_and_tombstones () =
  (* Push the open-addressing table through several resizes with
     interleaved removals, then verify every surviving flow resolves. *)
  let env = make_tcb_env () in
  let ft = Flow_table.create ~store:env.Tcb.store in
  let tcbs = Hashtbl.create 64 in
  for i = 0 to 4_999 do
    let local_port = 0x8000 lor (i land 0x7FFF) in
    let remote_ip = Ixnet.Ip_addr.of_octets 10 1 (i lsr 8) (i land 0xFF) in
    let remote_port = 1000 + (i mod 50) in
    let tcb = make_tcb env ~local_port ~remote_ip ~remote_port in
    Flow_table.add ft ~local_port ~remote_ip ~remote_port tcb;
    Hashtbl.replace tcbs i (local_port, remote_ip, remote_port, tcb)
  done;
  for i = 0 to 4_999 do
    if i mod 3 = 0 then begin
      let local_port, remote_ip, remote_port, _ = Hashtbl.find tcbs i in
      Flow_table.remove ft ~local_port ~remote_ip ~remote_port;
      Hashtbl.remove tcbs i
    end
  done;
  check_int "count tracks removals" (Hashtbl.length tcbs) (Flow_table.count ft);
  Hashtbl.iter
    (fun _ (local_port, remote_ip, remote_port, tcb) ->
      match find ft ~local_port ~remote_ip ~remote_port with
      | Some t ->
          if t != tcb then
            Alcotest.fail "lookup returned the wrong tcb"
      | None -> Alcotest.fail "surviving flow missing after growth")
    tcbs;
  let seen = ref 0 in
  Flow_table.iter ft (fun _ -> incr seen);
  check_int "iter visits each live flow once" (Hashtbl.length tcbs) !seen

let prop_exactly_once_under_loss =
  QCheck.Test.make ~name:"exactly-once in-order delivery under random loss" ~count:15
    QCheck.(pair (int_bound 120) (int_bound 1000))
    (fun (loss_pct_tenths, seed) ->
      let loss = float_of_int loss_pct_tenths /. 1000. in
      transfer_roundtrip ~loss ~size:15_000 ~seed:(seed + 1))

let prop_sizes_roundtrip =
  QCheck.Test.make ~name:"transfers of arbitrary sizes roundtrip" ~count:20
    QCheck.(int_range 1 100_000)
    (fun size -> transfer_roundtrip ~loss:0. ~size ~seed:2)

(* ---------------- hostile-peer hardening ---------------- *)

(* Hand-inject one crafted segment into an endpoint, bypassing the
   wire (the mbuf carries no payload; flags come pre-set). *)
let inject host ~src_ip ~src_port ~dst_port ~seq ~ack ?(syn = false)
    ?(ack_flag = false) ?(rst = false) () =
  let mbuf = Mbuf.create () in
  let s = Seg.scratch () in
  s.Seg.src_port <- src_port;
  s.Seg.dst_port <- dst_port;
  s.Seg.seq <- seq;
  s.Seg.ack <- ack;
  s.Seg.syn <- syn;
  s.Seg.ack_flag <- ack_flag;
  s.Seg.fin <- false;
  s.Seg.rst <- rst;
  s.Seg.psh <- false;
  s.Seg.ece <- false;
  s.Seg.cwr <- false;
  s.Seg.window <- 65535;
  s.Seg.mss <- None;
  s.Seg.wscale <- None;
  s.Seg.sack <- None;
  s.Seg.payload_off <- mbuf.Mbuf.off;
  s.Seg.payload_len <- 0;
  Tcp_endpoint.rx_segment host.ep ~src_ip s mbuf;
  Mbuf.decref mbuf

let test_challenge_ack_rate_limit () =
  let net = make_net () in
  let received, _ = sink_server net.b ~port:80 in
  let tcb, connected, _, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"" ()
  in
  run net ~ms:50;
  check_bool "connected" true !connected;
  let lp = Tcb.local_port tcb and rp = Tcb.remote_port tcb in
  let rcv_nxt = Tcb.rcv_nxt tcb in
  (* RST flood: in-window but not rcv_nxt-exact sequence numbers, all
     inside one challenge-ACK rate window (no simulated time passes). *)
  let flood = 20 in
  for i = 1 to flood do
    inject net.a ~src_ip:ip_b ~src_port:rp ~dst_port:lp
      ~seq:(Seqno.add rcv_nxt (1 + (i mod 7)))
      ~ack:0 ~rst:true ()
  done;
  let limit = Tcb.challenge_ack_limit in
  check_int "challenge ACKs capped at the configured limit" limit
    (Tcp_endpoint.challenge_acks_sent net.a.ep);
  check_int "every suppressed challenge is counted" (flood - limit)
    (Tcp_endpoint.challenge_acks_limited net.a.ep);
  check_int "no forged RST tore the connection down" 0
    (Tcp_endpoint.rsts_accepted net.a.ep);
  Alcotest.(check string)
    "connection survives the flood" "ESTABLISHED"
    (Tcp_state.to_string (Tcb.state tcb));
  (* ...and still carries data afterwards *)
  let msg = "still alive after the flood" in
  let sent =
    Tcp_conn.send_iov tcb
      { Iovec.buf = Bytes.of_string msg; off = 0; len = String.length msg }
  in
  check_int "post-flood send accepted" (String.length msg) sent;
  run net ~ms:100;
  Alcotest.(check string) "post-flood data delivered" msg
    (Buffer.contents received)

let test_rfc1337_remnant () =
  (* TIME_WAIT is a compact flow-table remnant (no TCB), held long enough
     to attack: an RST at exactly the closed connection's rcv_nxt — the
     one sequence number a genuine reset carries — must be dropped, not
     assassinate the remnant. *)
  let cfg = { Tcb.default_config with time_wait_ns = 10_000_000_000 } in
  let net = make_net ~config:cfg () in
  let _ = sink_server net.b ~port:80 in
  let tcb, _, _, _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"x"
      ~close_when_done:true ()
  in
  (* Capture the tuple before the sim runs, and the final rcv_nxt in
     [on_closed]: the TIME_WAIT transition releases the TCB right after
     that callback, and its slot must not be read again. *)
  let lp = Tcb.local_port tcb and rp = Tcb.remote_port tcb in
  let final_rcv_nxt = ref (-1) in
  tcb.Tcb.callbacks.Tcb.on_closed <-
    (fun _ -> final_rcv_nxt := Tcb.rcv_nxt tcb);
  run net ~ms:500;
  check_bool "closed through TIME_WAIT" true (!final_rcv_nxt >= 0);
  check_int "remnant recorded" 1 (Tcp_endpoint.time_wait_count net.a.ep);
  inject net.a ~src_ip:ip_b ~src_port:rp ~dst_port:lp ~seq:!final_rcv_nxt
    ~ack:0 ~rst:true ();
  check_int "remnant RST dropped per RFC 1337" 1
    (Tcp_endpoint.tw_rst_dropped net.a.ep);
  check_int "remnant survives" 1 (Tcp_endpoint.time_wait_count net.a.ep)

let test_port_free_is_counted_once () =
  (* Regression for the port double-free: releasing the same port twice
     must not corrupt the free list, and the guard must count it. *)
  let pa = Port_alloc.create ~lo:50000 ~hi:50003 () in
  let p1 = Port_alloc.alloc pa ~suitable:(fun _ -> true) in
  let p2 = Port_alloc.alloc pa ~suitable:(fun _ -> true) in
  check_int "two ports in use" 2 (Port_alloc.in_use pa);
  Port_alloc.free pa p1;
  check_int "clean free is not a double free" 0 (Port_alloc.double_frees pa);
  Port_alloc.free pa p1;
  check_int "second free of the same port is counted" 1
    (Port_alloc.double_frees pa);
  check_int "in_use not corrupted by the double free" 1
    (Port_alloc.in_use pa);
  (* the freed port must come back exactly once: draining the pool
     yields each port at most once *)
  let drained = ref [] in
  let rec drain () =
    match Port_alloc.alloc pa ~suitable:(fun _ -> true) with
    | -1 -> ()
    | p ->
        check_bool "no port handed out twice" false (List.mem p !drained);
        drained := p :: !drained;
        drain ()
  in
  drain ();
  check_bool "p2 still reserved" false (List.mem p2 !drained)

let test_endpoint_lifecycle_no_double_free () =
  (* Full lifecycle (connect, transfer, orderly close, TIME_WAIT
     recycle) ends with every port back exactly once. *)
  let net = make_net () in
  let _ = sink_server net.b ~port:80 in
  let _ =
    streaming_client net.a ~remote_ip:ip_b ~port:80 ~data:"bye"
      ~close_when_done:true ()
  in
  run net ~ms:2000;
  check_int "no double frees on the client" 0
    (Tcp_endpoint.port_double_frees net.a.ep);
  check_int "no double frees on the server" 0
    (Tcp_endpoint.port_double_frees net.b.ep);
  check_int "client ports all returned" 0 (Tcp_endpoint.ports_in_use net.a.ep)

(* --- timers ----------------------------------------------------------- *)

(* A connection's first delayed-ACK, RTO and persist arm builds no
   closure: every TCP timer fires through its env's one action, which
   finds the connection from the code its wheel cell carries.  The TCBs
   and the wheel's cell pool exist before the gate, so it measures the
   arms alone. *)
let test_first_arms_allocate_nothing () =
  let n = 10_000 in
  let env = make_tcb_env () in
  let wheel = env.Tcb.wheel in
  let tcbs =
    Array.init n (fun i -> make_tcb env ~local_port:80 ~remote_ip:ip_b ~remote_port:(1_024 + i))
  in
  let warm = Array.init (3 * n) (fun i -> Wheel.schedule wheel ~deadline:(1_000_000 + i) ignore) in
  Array.iter (Wheel.cancel wheel) warm;
  Alloc_gate.none "words over 10k first arms of each timer" (fun () ->
      for i = 0 to n - 1 do
        let tcb = tcbs.(i) in
        Tcp_conn.arm_delack tcb;
        Tcp_conn.set_rexmit tcb;
        Tcp_conn.arm_persist tcb
      done);
  check_int "every timer armed" (3 * n) (Wheel.pending wheel);
  (* Each timeout clears its own connection's handle first, so a code
     that found the wrong connection would leave one set. *)
  Wheel.advance wheel ~now:1_000_000_000;
  check_int "every timer fired" 0 (Wheel.pending wheel);
  check_bool "each fired on its own connection" true
    (Array.for_all
       (fun tcb ->
         tcb.Tcb.rexmit_timer == Wheel.null
         && tcb.Tcb.delack_timer == Wheel.null
         && tcb.Tcb.persist_timer == Wheel.null)
       tcbs)

(* --- handshake budget -------------------------------------------------- *)

(* A client endpoint on [ip_a] and a server listening on [ip_b]:80,
   wired back to back through a FIFO of segments in two flat arrays.
   The returned [handshake] opens one connection on a fresh tuple and
   delivers segments until the wire is idle, each decoded into its
   receiver's scratch, so the words it allocates are the stack's own.
   Both endpoints share nothing but the wire; each presizes its TCB
   store so the measured handshakes never grow it. *)
let wire_cap = 64

let handshake_pair ~server_config =
  let dsts = Array.make wire_cap 0 and mbufs = Array.make wire_cap (Mbuf.create ~size:1 ()) in
  let head = ref 0 and count = ref 0 in
  let push ~remote_ip mbuf =
    let i = (!head + !count) land (wire_cap - 1) in
    dsts.(i) <- remote_ip;
    mbufs.(i) <- mbuf;
    incr count
  in
  let endpoint ~local_ip ~config ~seed =
    let pool = Mempool.create ~capacity:1024 ~name:"handshake" () in
    Tcp_endpoint.create
      ~now:(fun () -> 0)
      ~wheel:(Wheel.create ~now:0 ())
      ~alloc:(fun () -> Mempool.alloc pool)
      ~output_raw:push ~rng:(Engine.Rng.create ~seed) ~local_ip ~config
      ~store:(Tcb.store_create ~initial:4096 ())
      ()
  in
  let client = endpoint ~local_ip:ip_a ~config:Tcb.default_config ~seed:1 in
  let server = endpoint ~local_ip:ip_b ~config:server_config ~seed:2 in
  let client_seg = Seg.scratch () and server_seg = Seg.scratch () in
  let accepted = ref 0 in
  Tcp_endpoint.listen server ~port:80 ~on_accept:(fun _ -> incr accepted);
  let deliver ep seg ~src ~dst mbuf =
    if Seg.decode_into mbuf ~src ~dst seg then Tcp_endpoint.rx_segment ep ~src_ip:src seg mbuf;
    Mbuf.decref mbuf
  in
  let handshake () =
    ignore
      (Sys.opaque_identity
         (Tcp_endpoint.connect client ~remote_ip:ip_b ~remote_port:80 ~cookie:0 ()));
    while !count > 0 do
      let dst = dsts.(!head) and mbuf = mbufs.(!head) in
      head := (!head + 1) land (wire_cap - 1);
      decr count;
      if dst = ip_b then deliver server server_seg ~src:ip_a ~dst mbuf
      else deliver client client_seg ~src:ip_b ~dst mbuf
    done
  in
  (handshake, client, server, accepted)

(* The exact minor words of one handshake, over 1 k handshakes on fresh
   tuples after 2 k warm-up ones have created the pools' buffers, the
   wheels' cells and the flow tables at their final size.  What is left
   is the two connections: each side's [Tcb.create] (23 words: view,
   callbacks record, send deque), the client's [Some tcb] from
   [connect], and the server's [Some mss] for the SYN (its decode
   scratch dropped its MSS box on the previous handshake's option-less
   ACK).  No cookie, option or listener lookup allocates. *)
let handshake_words ~server_config =
  let handshake, client, server, accepted = handshake_pair ~server_config in
  for _ = 1 to 2_000 do
    handshake ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    handshake ()
  done;
  let w1 = Gc.minor_words () in
  check_int "every handshake accepted" 3_000 !accepted;
  check_int "client connections" 3_000 (Tcp_endpoint.connection_count client);
  check_int "server connections" 3_000 (Tcp_endpoint.connection_count server);
  (w1 -. w0) /. 1_000.

let handshake_budget = float_of_int ((2 * 23) + 2 + 2)

let test_classic_handshake_words () =
  Alcotest.(check (float 0.))
    "minor words per classic handshake" handshake_budget
    (handshake_words ~server_config:Tcb.default_config)

let test_cookie_handshake_words () =
  let server_config = { Tcb.default_config with Tcb.syn_cookies = true } in
  Alcotest.(check (float 0.))
    "minor words per cookie handshake" handshake_budget
    (handshake_words ~server_config)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "tcp"
    [
      ( "seqno",
        [
          Alcotest.test_case "wraparound" `Quick test_seqno_wraparound;
          qt prop_seqno_ordering_antisymmetric;
          qt prop_seqno_add_orders_across_wrap;
          qt prop_seqno_le_reflexive_antisymmetric;
          qt prop_seqno_window_contains;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "converges" `Quick test_rtt_converges;
          Alcotest.test_case "backoff" `Quick test_rtt_backoff;
          Alcotest.test_case "min rto floor" `Quick test_rtt_respects_min;
          Alcotest.test_case "max rto cap" `Quick test_rtt_max_cap;
          Alcotest.test_case "reset backoff on heal" `Quick test_rtt_reset_backoff;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "slow start" `Quick test_congestion_slow_start_doubles;
          Alcotest.test_case "fast retransmit" `Quick test_congestion_fast_retransmit_halves;
          Alcotest.test_case "rto collapse" `Quick test_congestion_rto_collapses;
          Alcotest.test_case "avoidance linear" `Quick test_congestion_avoidance_linear;
        ] );
      ( "ports",
        [
          Alcotest.test_case "predicate" `Quick test_port_alloc_respects_predicate;
          Alcotest.test_case "exhaustion" `Quick test_port_alloc_exhaustion;
          Alcotest.test_case "probe allocates nothing" `Quick
            test_port_alloc_allocates_nothing;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "high local port no collision" `Quick
            test_flow_table_high_local_port;
          Alcotest.test_case "growth and tombstones" `Quick
            test_flow_table_growth_and_tombstones;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "small transfer" `Quick test_small_transfer;
          Alcotest.test_case "multi segment transfer" `Quick test_multi_segment_transfer;
          Alcotest.test_case "connection refused" `Quick test_connection_refused;
          Alcotest.test_case "orderly close" `Quick test_orderly_close;
          Alcotest.test_case "abort / RST" `Quick test_abort_sends_rst;
          Alcotest.test_case "bidirectional echo" `Quick test_bidirectional_echo;
          Alcotest.test_case "rtt measurement" `Quick test_rtt_measured;
          Alcotest.test_case "half close" `Quick test_half_close_server_can_still_send;
          Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
          Alcotest.test_case "mss clamping" `Quick test_mss_negotiation_clamps_segments;
          Alcotest.test_case "unlisten refuses" `Quick test_listener_teardown_refuses;
        ] );
      ( "flow_control",
        [
          Alcotest.test_case "zero window stalls sender" `Quick test_flow_control_zero_window;
          Alcotest.test_case "window reopens on consume" `Quick test_window_reopens_after_consume;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "transfer under 5% loss" `Quick test_transfer_under_loss;
          Alcotest.test_case "retransmits under 20% loss" `Quick test_retransmit_counted;
          Alcotest.test_case "ooo flood under 30% loss" `Quick test_ooo_flood_recovers;
          Alcotest.test_case "survives a 6ms link flap" `Quick test_survives_flap;
          qt prop_exactly_once_under_loss;
          qt prop_sizes_roundtrip;
        ] );
      ( "timers",
        [
          Alcotest.test_case "first arms allocate nothing" `Quick
            test_first_arms_allocate_nothing;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "classic handshake words" `Quick
            test_classic_handshake_words;
          Alcotest.test_case "cookie handshake words" `Quick
            test_cookie_handshake_words;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "challenge-ACK rate limit under RST flood"
            `Quick test_challenge_ack_rate_limit;
          Alcotest.test_case "RFC 1337, recycled remnant" `Quick
            test_rfc1337_remnant;
          Alcotest.test_case "port double-free guard" `Quick
            test_port_free_is_counted_once;
          Alcotest.test_case "lifecycle frees each port once" `Quick
            test_endpoint_lifecycle_no_double_free;
        ] );
    ]
