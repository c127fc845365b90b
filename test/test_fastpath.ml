(* Header-prediction equivalence suite: the TCP receive fast path is a
   pure optimization, so a stack with [fast_path = true] must be
   observationally identical to one with it disabled — same delivered
   bytes, same close reasons, same final TCB states — under any segment
   stream we can throw at it: reordering (delivery jitter), loss-driven
   retransmits and dup-acks, zero-window stalls with randomized
   window-update cadence, and FIN or RST mid-stream.

   The fixture is the loopback pair from test_tcp: two endpoints joined
   by a delaying, lossy wire, all randomness drawn from seeded RNGs so
   a fast-on and fast-off run see byte-identical schedules. *)

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

type host = { ep : Tcp_endpoint.t; wheel : Wheel.t; pool : Mempool.t }

type net = { sim : Engine.Sim.t; a : host; b : host }

(* [jitter_ns] adds a per-segment random delivery delay on top of the
   base latency, which reorders segments on the wire. *)
let make_net ~fast_path ?(loss = 0.) ?(jitter_ns = 0) ?(delay_ns = 10_000)
    ~seed ?(rcv_buf = Tcb.default_config.Tcb.rcv_buf) () =
  let sim = Engine.Sim.create ~seed () in
  let loss_rng = Engine.Rng.create ~seed:(seed + 100) in
  let jitter_rng = Engine.Rng.create ~seed:(seed + 200) in
  let cfg = { Tcb.default_config with Tcb.fast_path; rcv_buf } in
  let net = ref None in
  let peer_of ip = if ip = ip_a then (Option.get !net).a else (Option.get !net).b in
  let make_host ~local_ip ~seed =
    let wheel = Wheel.create ~now:0 () in
    let pool = Mempool.create ~capacity:32768 ~name:"host" () in
    let output_raw ~remote_ip mbuf =
      if loss > 0. && Engine.Rng.float loss_rng 1.0 < loss then Mbuf.decref mbuf
      else begin
        let extra = if jitter_ns > 0 then Engine.Rng.int jitter_rng jitter_ns else 0 in
        ignore
          (Engine.Sim.after sim (delay_ns + extra) (fun () ->
               let dst = peer_of remote_ip in
               (match Seg.decode mbuf ~src:local_ip ~dst:remote_ip with
               | Ok seg -> Tcp_endpoint.rx_segment dst.ep ~src_ip:local_ip seg mbuf
               | Error e -> Alcotest.failf "segment decode: %s" e);
               Mbuf.decref mbuf))
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
    { ep; wheel; pool }
  in
  let a = make_host ~local_ip:ip_a ~seed:(seed + 1) in
  let b = make_host ~local_ip:ip_b ~seed:(seed + 2) in
  let n = { sim; a; b } in
  net := Some n;
  let rec tick () =
    Wheel.advance a.wheel ~now:(Engine.Sim.now sim);
    Wheel.advance b.wheel ~now:(Engine.Sim.now sim);
    ignore (Engine.Sim.after sim 100_000 tick)
  in
  ignore (Engine.Sim.after sim 100_000 tick);
  n

(* What a run looks like from the outside; two runs are equivalent iff
   these records are equal. *)
type observation = {
  delivered : string;  (* bytes the server's application saw, in order *)
  sent_acked : int;
  client_state : string;
  server_state : string;
  client_close : string;
  server_close : string;
  client_conns : int;
  server_conns : int;
  server_rsts : int;
}

type ending = Orderly | Fin_mid | Rst_mid

let reason_str = function
  | None -> "open"
  | Some Tcb.Normal -> "normal"
  | Some Tcb.Reset -> "reset"
  | Some Tcb.Timeout -> "timeout"
  | Some Tcb.Refused -> "refused"

(* One scripted connection: the client streams [size] bytes at the
   server, whose application consumes in [chunk]-byte bites every
   [drain_ns] (forcing genuine window updates when rcv_buf is small),
   and the stream ends per [ending].  Everything is driven by [seed]. *)
let run_scenario ~fast_path ~seed ~size ~loss ~jitter_ns ~rcv_buf ~chunk
    ~drain_ns ~ending =
  let net = make_net ~fast_path ~loss ~jitter_ns ~seed ~rcv_buf () in
  let delivered = Buffer.create size in
  let server_close = ref None in
  let server_tcb = ref None in
  Tcp_endpoint.listen net.b.ep ~port:80 ~on_accept:(fun tcb ->
      server_tcb := Some tcb;
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun mbuf off len ->
          Buffer.add_subbytes delivered mbuf.Mbuf.buf off len;
          Mbuf.decref mbuf);
      tcb.Tcb.callbacks.Tcb.on_closed <-
        (fun reason ->
          server_close := Some reason;
          Tcp_conn.close tcb));
  (* Application drain loop: window updates at a scenario-set cadence. *)
  let rec drain () =
    (* [consume] clamps to what has actually been delivered, so a fixed
       chunk is safe; small chunks against a small rcv_buf force real
       zero-window stalls and window-update segments. *)
    (match !server_tcb with
    | Some tcb -> Tcp_conn.consume tcb chunk
    | None -> ());
    ignore (Engine.Sim.after net.sim drain_ns drain)
  in
  ignore (Engine.Sim.after net.sim drain_ns drain);
  let data = String.init size (fun i -> Char.chr ((i * 131 + seed) land 0xFF)) in
  let client_close = ref None in
  let sent_acked = ref 0 in
  let pos = ref 0 in
  let buf = Bytes.of_string data in
  let tcb =
    Option.get
      (Tcp_endpoint.connect net.a.ep ~remote_ip:ip_b ~remote_port:80 ~cookie:3 ())
  in
  let rec push () =
    if !pos < size then begin
      let iov = { Iovec.buf; off = !pos; len = size - !pos } in
      let accepted = Tcp_conn.send tcb [ iov ] in
      pos := !pos + accepted;
      if accepted > 0 && !pos < size then push ()
    end
    else if ending = Orderly && !sent_acked = size then Tcp_conn.close tcb
  in
  tcb.Tcb.callbacks.Tcb.on_connected <- (fun ok -> if ok then push ());
  tcb.Tcb.callbacks.Tcb.on_sent <-
    (fun n ->
      sent_acked := !sent_acked + n;
      push ());
  tcb.Tcb.callbacks.Tcb.on_closed <- (fun reason -> client_close := Some reason);
  (* Mid-stream endings fire while the transfer is (usually) in flight. *)
  let mid_ns = 2_000_000 + (seed mod 7) * 300_000 in
  (match ending with
  | Orderly -> ()
  | Fin_mid -> ignore (Engine.Sim.after net.sim mid_ns (fun () -> Tcp_conn.close tcb))
  | Rst_mid -> ignore (Engine.Sim.after net.sim mid_ns (fun () -> Tcp_conn.abort tcb)));
  Engine.Sim.run ~until:(Engine.Sim_time.ms 20_000) net.sim;
  let obs =
    {
      delivered = Buffer.contents delivered;
      sent_acked = !sent_acked;
      client_state = Tcp_state.to_string (Tcb.state tcb);
      server_state =
        (match !server_tcb with
        | Some t -> Tcp_state.to_string (Tcb.state t)
        | None -> "NONE");
      client_close = reason_str !client_close;
      server_close = reason_str !server_close;
      client_conns = Tcp_endpoint.connection_count net.a.ep;
      server_conns = Tcp_endpoint.connection_count net.b.ep;
      server_rsts = Tcp_endpoint.rsts_sent net.b.ep;
    }
  in
  let hits = Tcp_endpoint.fast_path_hits net.a.ep + Tcp_endpoint.fast_path_hits net.b.ep in
  (obs, hits)

let explain which (a : observation) (b : observation) =
  QCheck.Test.fail_reportf
    "fast on/off diverged (%s):\n\
     on:  delivered=%d acked=%d client=%s/%s server=%s/%s conns=%d/%d rsts=%d\n\
     off: delivered=%d acked=%d client=%s/%s server=%s/%s conns=%d/%d rsts=%d"
    which (String.length a.delivered) a.sent_acked a.client_state
    a.client_close a.server_state a.server_close a.client_conns a.server_conns
    a.server_rsts (String.length b.delivered) b.sent_acked b.client_state
    b.client_close b.server_state b.server_close b.client_conns b.server_conns
    b.server_rsts

(* The property: for a random scenario, fast-on and fast-off runs are
   observationally identical — and the fast-on run actually exercised
   the predicted path (otherwise the property would pass vacuously). *)
let equivalent ~seed ~size ~loss ~jitter_ns ~rcv_buf ~chunk ~drain_ns ~ending =
  let scenario fp =
    run_scenario ~fast_path:fp ~seed ~size ~loss ~jitter_ns ~rcv_buf ~chunk
      ~drain_ns ~ending
  in
  let on, hits_on = scenario true in
  let off, hits_off = scenario false in
  if hits_off <> 0 then
    QCheck.Test.fail_reportf "fast_path=false still predicted %d segments" hits_off;
  if on <> off then
    explain
      (Printf.sprintf "seed=%d size=%d loss=%.2f jitter=%d end=%s" seed size
         loss jitter_ns
         (match ending with Orderly -> "fin" | Fin_mid -> "fin-mid" | Rst_mid -> "rst-mid"))
      on off;
  ignore hits_on;
  true

let scenario_gen =
  QCheck.make
    ~print:(fun (seed, size, lossi, jit, endi) ->
      Printf.sprintf "seed=%d size=%d loss#%d jitter#%d end#%d" seed size lossi
        jit endi)
    QCheck.Gen.(
      tup5 (int_bound 1000)
        (int_range 1 30_000)
        (int_bound 2) (int_bound 1) (int_bound 2))

let prop_fast_off_equivalence =
  QCheck.Test.make ~name:"fast on/off observationally identical" ~count:18
    scenario_gen
    (fun (seed, size, lossi, jit, endi) ->
      let loss = [| 0.; 0.03; 0.12 |].(lossi) in
      let jitter_ns = [| 0; 25_000 |].(jit) in
      let ending = [| Orderly; Fin_mid; Rst_mid |].(endi) in
      equivalent ~seed:(seed + 1) ~size ~loss ~jitter_ns ~rcv_buf:8192
        ~chunk:(1 + (seed mod 5) * 1024)
        ~drain_ns:(200_000 + (seed mod 3) * 150_000)
        ~ending)

(* Clean bulk transfer: the gate must actually fire (nearly every
   segment is in-order with nothing weird), and disabling it must not
   change the delivered stream. *)
let test_bulk_hits_and_equivalence () =
  let size = 300_000 in
  let run fp =
    run_scenario ~fast_path:fp ~seed:42 ~size ~loss:0. ~jitter_ns:0
      ~rcv_buf:(1 lsl 20) ~chunk:65536 ~drain_ns:100_000 ~ending:Orderly
  in
  let on, hits_on = run true in
  let off, hits_off = run false in
  check_int "delivered everything" size (String.length on.delivered);
  check_bool "fast path fired" true (hits_on > 100);
  check_int "disabled gate never fires" 0 hits_off;
  check_bool "identical observations" true (on = off)

(* Determinism through the parallel harness: the same fast-path NetPIPE
   runs fanned over a 4-wide domain pool must reproduce the sequential
   results bit-for-bit (Domain_pool clamps to the machine width, so
   this holds on any core count). *)
let test_parallel_fast_path_matches_sequential () =
  let netpipe size =
    Harness.Scenario.run { Harness.Scenario.default with workload = Netpipe { size } }
  in
  let slices =
    List.map
      (fun sizes () -> List.map netpipe sizes)
      [ [ 256 ]; [ 1024 ]; [ 4096 ]; [ 256; 1024 ] ]
  in
  let sequential = List.map (fun f -> f ()) slices in
  let parallel = Engine.Domain_pool.map_jobs ~jobs:4 slices in
  List.iteri
    (fun i (s, p) ->
      check_bool (Printf.sprintf "slice %d results" i) true (Stdlib.compare s p = 0))
    (List.combine sequential parallel)

(* Experiment-level escape hatch: the fig2 1 KB NetPIPE point must
   reproduce its full-precision snapshot with the same seed and with the
   fast path disabled; only the hit counters may differ. *)
let test_slice_snapshot_fast_off () =
  let fig2 fast_path =
    let r =
      Harness.Scenario.run
        { Harness.Scenario.default with scale = 0.05; fast_path; workload = Netpipe { size = 1_024 } }
    in
    (Printf.sprintf "one_way_us=%.17g,gbps=%.17g" r.avg_us r.goodput_gbps, r)
  in
  let on, r_on = fig2 true and again, _ = fig2 true and off, r_off = fig2 false in
  Alcotest.(check string) "same seed, same snapshot" on again;
  Alcotest.(check string) "fast path off, same snapshot" on off;
  check_bool "ran events" true (r_on.events > 0);
  check_bool "fast-on run predicted segments" true (r_on.fast_hits > 0);
  check_int "fast-off run predicted none" 0 r_off.fast_hits

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fastpath"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bulk transfer hits + identical" `Quick
            test_bulk_hits_and_equivalence;
          qt prop_fast_off_equivalence;
        ] );
      ( "harness",
        [
          Alcotest.test_case "jobs=4 matches sequential" `Quick
            test_parallel_fast_path_matches_sequential;
          Alcotest.test_case "slice snapshot with fast path off" `Quick
            test_slice_snapshot_fast_off;
        ] );
    ]
