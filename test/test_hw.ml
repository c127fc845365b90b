(* Hardware model tests: Toeplitz/RSS, links, switch, NIC, cache and
   PCIe models. *)

module Mbuf = Ixmem.Mbuf
open Ixhw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip n = Ixnet.Ip_addr.of_octets 10 0 0 n

(* ---------------- Toeplitz ---------------- *)

let test_toeplitz_known_vector () =
  (* Microsoft RSS verification suite: 66.9.149.187:2794 ->
     161.142.100.80:1766 hashes to 0x51ccc178 with the default key. *)
  let h =
    Toeplitz.hash_tuple
      ~src_ip:(Ixnet.Ip_addr.of_octets 66 9 149 187)
      ~dst_ip:(Ixnet.Ip_addr.of_octets 161 142 100 80)
      ~src_port:2794 ~dst_port:1766 ()
  in
  check_int "MS verification vector" 0x51ccc178 h

let test_toeplitz_known_vector2 () =
  (* 199.92.111.2:14230 -> 65.69.140.83:4739 -> 0xc626b0ea *)
  let h =
    Toeplitz.hash_tuple
      ~src_ip:(Ixnet.Ip_addr.of_octets 199 92 111 2)
      ~dst_ip:(Ixnet.Ip_addr.of_octets 65 69 140 83)
      ~src_port:14230 ~dst_port:4739 ()
  in
  check_int "MS verification vector 2" 0xc626b0ea h

let test_toeplitz_deterministic () =
  let h () =
    Toeplitz.hash_tuple ~src_ip:(ip 1) ~dst_ip:(ip 2) ~src_port:123 ~dst_port:80 ()
  in
  check_int "stable" (h ()) (h ())

let test_toeplitz_spreads () =
  (* Different source ports should spread over queues reasonably. *)
  let buckets = Array.make 8 0 in
  for port = 2000 to 2999 do
    let h =
      Toeplitz.hash_tuple ~src_ip:(ip 1) ~dst_ip:(ip 2) ~src_port:port ~dst_port:80 ()
    in
    buckets.(h land 7) <- buckets.(h land 7) + 1
  done;
  Array.iter (fun n -> check_bool "no empty bucket" true (n > 50)) buckets

let prop_toeplitz_symmetric_key =
  QCheck.Test.make ~name:"symmetric key gives direction-independent hash" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b, pa, pb) ->
      let lut = Toeplitz.lut_of_key Toeplitz.symmetric_key in
      let h1 =
        Toeplitz.hash_tuple ~lut ~src_ip:(ip a) ~dst_ip:(ip b) ~src_port:pa ~dst_port:pb ()
      in
      let h2 =
        Toeplitz.hash_tuple ~lut ~src_ip:(ip b) ~dst_ip:(ip a) ~src_port:pb ~dst_port:pa ()
      in
      h1 = h2)

(* ---------------- Frame helpers ---------------- *)

(* A TCP/IPv4 frame written into [into] (a fresh standalone mbuf by
   default); returns the mbuf. *)
let write_tcp_mbuf ?(into = Mbuf.create ()) ?(src_ip = ip 1) ?(dst_ip = ip 2)
    ?(src_port = 4000) ?(dst_port = 80) ?(dst_mac = Ixnet.Mac_addr.of_host_id 2)
    ?(payload = "yo") () =
  let m = into in
  Mbuf.append m payload;
  let seg =
    {
      Ixnet.Tcp_segment.src_port;
      dst_port;
      seq = 1;
      ack = 1;
      syn = false;
      ack_flag = true;
      fin = false;
      rst = false;
      psh = false;
      ece = false;
      cwr = false;
      window = 100;
      mss = None;
      wscale = None;
      sack = None;
      payload_off = 0;
      payload_len = 0;
    }
  in
  Ixnet.Tcp_segment.prepend m ~src:src_ip ~dst:dst_ip seg;
  Ixnet.Ipv4_packet.prepend m
    {
      Ixnet.Ipv4_packet.src = src_ip;
      dst = dst_ip;
      protocol = Ixnet.Ipv4_packet.Tcp;
      ttl = 64;
      ecn = 0;
      payload_len = m.Mbuf.len;
    };
  Ixnet.Ethernet.prepend m
    {
      Ixnet.Ethernet.dst = dst_mac;
      src = Ixnet.Mac_addr.of_host_id 1;
      ethertype = Ixnet.Ethernet.Ipv4;
    };
  m

(* An owned snapshot of such a frame. *)
let make_tcp_frame ?src_port ?dst_mac ?payload () =
  let m = write_tcp_mbuf ?src_port ?dst_mac ?payload () in
  let frame = Frame.of_mbuf m in
  Mbuf.decref m;
  frame

let test_frame_parsing () =
  let frame = make_tcp_frame () in
  check_int "dst mac" (Ixnet.Mac_addr.of_host_id 2) (Frame.dst_mac frame);
  check_int "src mac" (Ixnet.Mac_addr.of_host_id 1) (Frame.src_mac frame);
  check_bool "carries an RSS tuple" true (Frame.has_rss_tuple frame);
  check_int "src ip" (ip 1) (Frame.rss_src_ip frame);
  check_int "dst ip" (ip 2) (Frame.rss_dst_ip frame);
  check_int "src port" 4000 (Frame.rss_src_port frame);
  check_int "dst port" 80 (Frame.rss_dst_port frame)

(* A mutator consumes its input, and releasing a borrowed pool mbuf
   recycles it at once: [Mbuf.reset] moves its [off]/[len], and the
   next [alloc] hands the same buffer out for new bytes.  So each
   mutator must read everything it needs before it releases.  Here the
   frame holds the mbuf's only reference, the one-buffer pool must
   reuse it, and it is overwritten before the result is read. *)
let test_frame_mutators_on_recycled_mbuf () =
  let pool = Ixmem.Mempool.create ~capacity:1 ~name:"tx" () in
  let fill_next_buffer () =
    let m = Option.get (Ixmem.Mempool.alloc pool) in
    Bytes.fill m.Mbuf.buf 0 (Bytes.length m.Mbuf.buf) '\xA5';
    m
  in
  let borrowed () =
    let m = write_tcp_mbuf ~into:(fill_next_buffer ()) ~payload:"hello, wire" () in
    let frame = Frame.borrow_mbuf m in
    Mbuf.decref m;
    (Mbuf.payload m, frame)
  in
  let read_after_reuse mutated =
    check_int "the input went back to its pool" 0 (Ixmem.Mempool.live_count pool);
    Mbuf.decref (fill_next_buffer ());
    Bytes.to_string (Frame.copy_bytes mutated)
  in
  let original, frame = borrowed () in
  let marked = read_after_reuse (Frame.with_ce frame) in
  check_int "ECN field CE" 3 (Char.code marked.[15] land 3);
  check_bool "IPv4 header checksum still verifies (RFC 1624)" true
    (Ixnet.Checksum.verify (Bytes.of_string marked) ~off:14 ~len:20 ~init:0);
  check_bool "original checksum verified" true
    (Ixnet.Checksum.verify (Bytes.of_string original) ~off:14 ~len:20 ~init:0);
  let original, frame = borrowed () in
  let corrupted = read_after_reuse (Frame.corrupt frame ~pos:20 ~mask:0x40) in
  check_int "same length" (String.length original) (String.length corrupted);
  let diffs = ref [] in
  String.iteri (fun i c -> if c <> corrupted.[i] then diffs := i :: !diffs) original;
  Alcotest.(check (list int)) "exactly the flipped byte differs" [ 20 ] !diffs;
  check_int "flipped by the mask" (Char.code original.[20] lxor 0x40)
    (Char.code corrupted.[20]);
  let original, frame = borrowed () in
  Alcotest.(check string)
    "truncated prefix" (String.sub original 0 30)
    (read_after_reuse (Frame.truncate frame ~keep:30))

(* ---------------- Link ---------------- *)

let test_link_serialization_rate () =
  let sim = Engine.Sim.create () in
  let arrivals = ref [] in
  let link =
    Link.create sim ~gbps:10. ~propagation_ns:500
      ~deliver:(fun _ -> arrivals := Engine.Sim.now sim :: !arrivals)
      ()
  in
  let frame = make_tcp_frame ~payload:(String.make 64 'x') () in
  (* 64B payload message = 142B on the wire = 113.6 -> 114 ns at 10G. *)
  Link.send link frame;
  Link.send link frame;
  Engine.Sim.run sim;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      check_int "first arrival" 614 t1;
      check_int "second queues behind first" 728 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_utilization () =
  let sim = Engine.Sim.create () in
  let link = Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:ignore () in
  let frame = make_tcp_frame ~payload:(String.make 1000 'x') () in
  for _ = 1 to 10 do
    Link.send link frame
  done;
  Engine.Sim.run sim;
  check_int "frames counted" 10 (Link.frames_sent link);
  check_bool "utilization accounted" true (Link.utilization link ~over:(Engine.Sim.now sim) > 0.9)

(* ---------------- Switch ---------------- *)

let test_switch_forwards_by_mac () =
  let sim = Engine.Sim.create () in
  let got = ref 0 in
  let sw = Switch.create ~ports:3 () in
  let mk_port i deliver =
    let link = Link.create sim ~gbps:10. ~propagation_ns:100 ~deliver () in
    Switch.attach sw ~port:i ~mac:(Ixnet.Mac_addr.of_host_id (i + 1)) ~out:link
  in
  mk_port 0 ignore;
  mk_port 1 (fun _ -> incr got);
  mk_port 2 (fun _ -> Alcotest.fail "wrong port");
  Switch.input sw ~ingress_port:0 (make_tcp_frame ~dst_mac:(Ixnet.Mac_addr.of_host_id 2) ());
  Engine.Sim.run sim;
  check_int "delivered to port 1 only" 1 !got;
  check_int "forwarded count" 1 (Switch.forwarded sw)

let test_switch_floods_broadcast () =
  let sim = Engine.Sim.create () in
  let got = ref 0 in
  let sw = Switch.create ~ports:4 () in
  for i = 0 to 3 do
    let link = Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:(fun _ -> incr got) () in
    Switch.attach sw ~port:i ~mac:(Ixnet.Mac_addr.of_host_id (i + 1)) ~out:link
  done;
  Switch.input sw ~ingress_port:0 (make_tcp_frame ~dst_mac:Ixnet.Mac_addr.broadcast ());
  Engine.Sim.run sim;
  check_int "flooded to all but ingress" 3 !got

let test_switch_bond_spreads_flows () =
  let sim = Engine.Sim.create () in
  let counts = Array.make 4 0 in
  let sw = Switch.create ~ports:5 () in
  (* Ports 0-3 are a bond toward the "server", all with distinct MACs
     but the frames target port 0's MAC. *)
  for i = 0 to 3 do
    let link =
      Link.create sim ~gbps:10. ~propagation_ns:0
        ~deliver:(fun _ -> counts.(i) <- counts.(i) + 1)
        ()
    in
    Switch.attach sw ~port:i ~mac:(Ixnet.Mac_addr.of_host_id (100 + i)) ~out:link
  done;
  Switch.attach sw ~port:4 ~mac:(Ixnet.Mac_addr.of_host_id 1)
    ~out:(Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:ignore ());
  Switch.bond sw ~ports:[ 0; 1; 2; 3 ];
  for port = 1000 to 1999 do
    Switch.input sw ~ingress_port:4
      (make_tcp_frame ~src_port:port ~dst_mac:(Ixnet.Mac_addr.of_host_id 100) ())
  done;
  Engine.Sim.run sim;
  check_int "all frames delivered" 1000 (Array.fold_left ( + ) 0 counts);
  Array.iter (fun n -> check_bool "bond member used" true (n > 100)) counts;
  (* Same flow always takes the same member. *)
  let before = Array.copy counts in
  Switch.input sw ~ingress_port:4
    (make_tcp_frame ~src_port:1000 ~dst_mac:(Ixnet.Mac_addr.of_host_id 100) ());
  Engine.Sim.run sim;
  let diffs = ref 0 in
  Array.iteri (fun i n -> if n <> before.(i) then incr diffs) counts;
  check_int "exactly one member took the repeat flow" 1 !diffs

let host = Ixnet.Mac_addr.of_host_id

(* Frames entering on different ports in the same instant are forwarded
   on input, in input order (the crossing delay lives on the ingress
   links, which this test bypasses).  Egress links are distinct and
   idle, so the deliveries land at one time, in that order, one link
   event each. *)
let test_switch_equal_time_input_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let sw = Switch.create ~ports:6 () in
  for i = 0 to 5 do
    let deliver f = log := (Engine.Sim.now sim, i, Frame.rss_src_port f) :: !log in
    Switch.attach sw ~port:i ~mac:(host (i + 1))
      ~out:(Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver ())
  done;
  (* (ingress port, egress port): neither column is sorted. *)
  let routes = [ (0, 1); (2, 3); (4, 5); (1, 0) ] in
  List.iteri
    (fun k (ingress_port, egress) ->
      Switch.input sw ~ingress_port
        (make_tcp_frame ~src_port:(k + 1) ~dst_mac:(host (egress + 1)) ()))
    routes;
  Engine.Sim.run sim;
  let arrivals = List.rev !log in
  let t0 = match arrivals with (t, _, _) :: _ -> t | [] -> -1 in
  List.iter (fun (t, _, _) -> check_int "equal arrival times" t0 t) arrivals;
  Alcotest.(check (list (pair int int)))
    "delivered in input order"
    (List.mapi (fun k (_, egress) -> (egress, k + 1)) routes)
    (List.map (fun (_, port, src) -> (port, src)) arrivals);
  check_int "one link event per frame" 4
    (Engine.Sim.events_executed sim);
  (* A broadcast behind them still floods every port but its ingress. *)
  log := [];
  Switch.input sw ~ingress_port:2
    (make_tcp_frame ~src_port:9 ~dst_mac:Ixnet.Mac_addr.broadcast ());
  Engine.Sim.run sim;
  Alcotest.(check (list int))
    "flooded to every other port" [ 0; 1; 3; 4; 5 ]
    (List.rev_map (fun (_, port, _) -> port) !log);
  check_int "flood counted" 1 (Switch.flooded sw)

(* The whole per-frame wire path — switch crossing, forwarding, link
   serialization and delivery, NIC classify and DMA — allocates
   nothing: 10k pre-built frames allocate no word once the rings, the
   event heap and the mbuf pool are warm. *)
let test_switch_path_allocates_nothing () =
  let sim = Engine.Sim.create () in
  let tx = Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:ignore () in
  let nic = Nic.create sim ~mac:(host 2) ~queues:1 ~tx () in
  let q = Nic.queue nic 0 in
  let burst = Array.make 1 (Mbuf.create ()) in
  Nic.set_notify q (fun () ->
      let n = Nic.rx_burst_into q ~into:burst ~off:0 ~max:1 in
      for i = 0 to n - 1 do
        Mbuf.decref burst.(i)
      done;
      Nic.replenish q n);
  let sw = Switch.create ~ports:2 () in
  Switch.attach sw ~port:0 ~mac:(host 1)
    ~out:(Link.create sim ~gbps:10. ~propagation_ns:100 ~deliver:Frame.release ());
  Switch.attach sw ~port:1 ~mac:(host 2)
    ~out:(Link.create sim ~gbps:10. ~propagation_ns:100 ~deliver:(Nic.receive nic) ());
  let frames =
    Array.init 10_000 (fun i -> make_tcp_frame ~src_port:(1000 + i) ~dst_mac:(host 2) ())
  in
  let pass () =
    for i = 0 to Array.length frames - 1 do
      Switch.input sw ~ingress_port:0 frames.(i)
    done;
    Engine.Sim.run sim
  in
  pass ();
  let received = Nic.rx_frames nic in
  Alloc_gate.none "words over 10k frames" pass;
  check_int "every frame received" 10_000 (Nic.rx_frames nic - received);
  check_int "none dropped" 0 (Nic.rx_drops nic)

(* The borrowed wire path: pool mbufs leave through [Nic.transmit_at],
   cross link, switch and link, and land in [Nic.receive], which returns
   each to its pool.  A frame on the wire is its mbuf, so once the rings,
   the event heap and both pools are warm 10k frames allocate no word. *)
let test_borrowed_wire_path_allocates_nothing () =
  let sim = Engine.Sim.create () in
  let sw = Switch.create ~ports:2 () in
  let idle_tx = Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:ignore () in
  let rx_nic = Nic.create sim ~mac:(host 2) ~queues:1 ~tx:idle_tx () in
  let q = Nic.queue rx_nic 0 in
  let burst = Array.make 1 (Mbuf.create ()) in
  Nic.set_notify q (fun () ->
      let n = Nic.rx_burst_into q ~into:burst ~off:0 ~max:1 in
      for i = 0 to n - 1 do
        Mbuf.decref burst.(i)
      done;
      Nic.replenish q n);
  let to_switch =
    Link.create sim ~gbps:10. ~propagation_ns:(100 + Switch.crossing_ns)
      ~deliver:(fun frame -> Switch.input sw ~ingress_port:0 frame)
      ()
  in
  let tx_nic = Nic.create sim ~mac:(host 1) ~queues:1 ~tx:to_switch () in
  Switch.attach sw ~port:0 ~mac:(host 1)
    ~out:(Link.create sim ~gbps:10. ~propagation_ns:100 ~deliver:(Nic.receive tx_nic) ());
  Switch.attach sw ~port:1 ~mac:(host 2)
    ~out:(Link.create sim ~gbps:10. ~propagation_ns:100 ~deliver:(Nic.receive rx_nic) ());
  let template = write_tcp_mbuf ~dst_mac:(host 2) () in
  let pool = Ixmem.Mempool.create ~name:"tx" () in
  let pass () =
    for _ = 1 to 10_000 do
      let m = Option.get (Ixmem.Mempool.alloc pool) in
      Mbuf.append_bytes m template.Mbuf.buf template.Mbuf.off template.Mbuf.len;
      Nic.transmit_at tx_nic m ~earliest:0
    done;
    Engine.Sim.run sim
  in
  pass ();
  let received = Nic.rx_frames rx_nic in
  Alloc_gate.none "words over 10k borrowed frames" pass;
  check_int "every frame received" 10_000 (Nic.rx_frames rx_nic - received);
  check_int "none dropped" 0 (Nic.rx_drops rx_nic);
  check_int "every wire buffer back in its pool" 0 (Ixmem.Mempool.live_count pool)

(* The per-packet firewall check with no rules installed (the default)
   allocates nothing. *)
let test_policy_admit_allocates_nothing () =
  let pol = Ix_core.Policy.create () in
  let admitted = ref 0 in
  let admit now =
    if Ix_core.Policy.admit pol ~now ~src_ip:(ip 1) ~dst_port:80 ~len:64 then
      incr admitted
  in
  admit 0;
  Alloc_gate.none "words over 10k admits" (fun () ->
      for now = 1 to 10_000 do
        admit now
      done);
  check_int "all admitted" 10_001 !admitted

(* ---------------- NIC ---------------- *)

let make_nic ?(queues = 4) sim =
  let tx = Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:ignore () in
  Nic.create sim ~mac:(Ixnet.Mac_addr.of_host_id 2) ~queues ~tx ()

let test_nic_rss_steering_consistent () =
  let sim = Engine.Sim.create () in
  let nic = make_nic sim in
  let frame = make_tcp_frame ~src_port:5555 () in
  Nic.receive nic frame;
  Nic.receive nic frame;
  let expected_q =
    Nic.rss_queue_of_tuple nic ~src_ip:(ip 1) ~dst_ip:(ip 2) ~src_port:5555 ~dst_port:80
  in
  let q = Nic.queue nic expected_q in
  check_int "both frames on the RSS queue" 2 (Nic.rx_pending q);
  (* Other queues stayed empty. *)
  for i = 0 to Nic.queue_count nic - 1 do
    if i <> expected_q then check_int "other queue empty" 0 (Nic.rx_pending (Nic.queue nic i))
  done

let test_nic_drops_when_ring_empty () =
  let sim = Engine.Sim.create () in
  let nic = make_nic ~queues:1 sim in
  let q = Nic.queue nic 0 in
  (* Consume all descriptors. *)
  let frame = make_tcp_frame () in
  let free0 = Nic.free_descriptors q in
  for _ = 1 to free0 do
    Nic.receive nic frame
  done;
  check_int "ring exhausted" 0 (Nic.free_descriptors q);
  Nic.receive nic frame;
  check_int "drop counted" 1 (Nic.rx_drops nic);
  (* Driver refills. *)
  let pending_before = Nic.rx_pending q in
  let burst = Array.make 64 (Mbuf.create ()) in
  let n = Nic.rx_burst_into q ~into:burst ~off:0 ~max:64 in
  check_int "burst filled" 64 n;
  Nic.replenish q n;
  Array.iter Mbuf.decref burst;
  Nic.receive nic frame;
  check_int "accepts again after replenish" (pending_before - 64 + 1) (Nic.rx_pending q)

let test_nic_ignores_other_mac () =
  let sim = Engine.Sim.create () in
  let nic = make_nic sim in
  Nic.receive nic (make_tcp_frame ~dst_mac:(Ixnet.Mac_addr.of_host_id 99) ());
  check_int "not received" 0 (Nic.rx_frames nic)

let test_nic_notify_fires () =
  let sim = Engine.Sim.create () in
  let nic = make_nic ~queues:1 sim in
  let kicks = ref 0 in
  Nic.set_notify (Nic.queue nic 0) (fun () -> incr kicks);
  Nic.receive nic (make_tcp_frame ());
  check_int "notified" 1 !kicks

let test_nic_indirection_rebalance () =
  let sim = Engine.Sim.create () in
  let nic = make_nic ~queues:4 sim in
  (* Point every flow group at queue 3. *)
  Nic.set_indirection nic (fun _ -> 3);
  Nic.receive nic (make_tcp_frame ~src_port:1234 ());
  check_int "steered to queue 3" 1 (Nic.rx_pending (Nic.queue nic 3))

(* ---------------- Cache model ---------------- *)

let test_cache_model_curve () =
  let cm = Cache_model.create () in
  let low = Cache_model.misses_per_message cm ~conns:10_000 in
  let high = Cache_model.misses_per_message cm ~conns:250_000 in
  Alcotest.(check (float 0.01)) "in-cache floor (DDIO)" 1.4 low;
  check_bool "250k conns ~25 misses (paper §5.4)" true (high > 20. && high < 30.);
  check_bool "monotone" true
    (Cache_model.misses_per_message cm ~conns:100_000 < high);
  check_int "no extra cost in cache" 0 (Cache_model.extra_ns_per_message cm ~conns:1_000)

(* ---------------- PCIe model ---------------- *)

let test_pcie_coalescing () =
  let pcie = Pcie_model.create () in
  let coalesced = Pcie_model.replenish_cost_ns pcie ~descriptors:64 in
  let single = Pcie_model.create ~replenish_batch:1 () in
  let uncoalesced = Pcie_model.replenish_cost_ns single ~descriptors:64 in
  check_bool "coalescing amortizes 32x" true (uncoalesced = 32 * coalesced);
  check_int "zero descriptors free" 0 (Pcie_model.replenish_cost_ns pcie ~descriptors:0)

(* ---------------- Cpu core ---------------- *)

let test_cpu_core_accounting () =
  let core = Cpu_core.create ~id:0 in
  let t1 = Cpu_core.charge core ~now:0 Cpu_core.Kernel 750 in
  check_int "finishes at 750" 750 t1;
  let t2 = Cpu_core.charge core ~now:100 Cpu_core.User 250 in
  check_int "queues behind kernel work" 1000 t2;
  Alcotest.(check (float 0.001)) "kernel share" 0.75 (Cpu_core.kernel_share core);
  check_bool "busy now" true (Cpu_core.busy core ~now:999);
  check_bool "idle later" false (Cpu_core.busy core ~now:1001);
  Cpu_core.reset_accounting core;
  check_int "reset" 0 (Cpu_core.kernel_ns core)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hw"
    [
      ( "toeplitz",
        [
          Alcotest.test_case "microsoft vector 1" `Quick test_toeplitz_known_vector;
          Alcotest.test_case "microsoft vector 2" `Quick test_toeplitz_known_vector2;
          Alcotest.test_case "deterministic" `Quick test_toeplitz_deterministic;
          Alcotest.test_case "spreads ports" `Quick test_toeplitz_spreads;
          qt prop_toeplitz_symmetric_key;
        ] );
      ( "frame",
        [
          Alcotest.test_case "header peeks" `Quick test_frame_parsing;
          Alcotest.test_case "mutators on a recycled borrowed mbuf" `Quick
            test_frame_mutators_on_recycled_mbuf;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialization rate" `Quick test_link_serialization_rate;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
        ] );
      ( "switch",
        [
          Alcotest.test_case "forwards by mac" `Quick test_switch_forwards_by_mac;
          Alcotest.test_case "floods broadcast" `Quick test_switch_floods_broadcast;
          Alcotest.test_case "bond spreads flows" `Quick test_switch_bond_spreads_flows;
          Alcotest.test_case "equal-time inputs keep input order" `Quick
            test_switch_equal_time_input_order;
          Alcotest.test_case "wire path allocates nothing" `Quick
            test_switch_path_allocates_nothing;
          Alcotest.test_case "borrowed wire path allocates nothing" `Quick
            test_borrowed_wire_path_allocates_nothing;
        ] );
      ( "nic",
        [
          Alcotest.test_case "rss steering" `Quick test_nic_rss_steering_consistent;
          Alcotest.test_case "ring exhaustion drops" `Quick test_nic_drops_when_ring_empty;
          Alcotest.test_case "mac filter" `Quick test_nic_ignores_other_mac;
          Alcotest.test_case "notify" `Quick test_nic_notify_fires;
          Alcotest.test_case "indirection table" `Quick test_nic_indirection_rebalance;
        ] );
      ( "policy",
        [
          Alcotest.test_case "admit with no rules allocates nothing" `Quick
            test_policy_admit_allocates_nothing;
        ] );
      ("cache", [ Alcotest.test_case "ddio miss curve" `Quick test_cache_model_curve ]);
      ("pcie", [ Alcotest.test_case "doorbell coalescing" `Quick test_pcie_coalescing ]);
      ("cpu", [ Alcotest.test_case "charge accounting" `Quick test_cpu_core_accounting ]);
    ]
