(* Integration tests for the IX dataplane: unit tests of the core
   mechanisms (batching, protection, RCU, ARP cache, policy) plus
   end-to-end echo traffic across a simulated cluster. *)

module Sim = Engine.Sim
module Net_api = Netapi.Net_api
open Ix_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------------- Batch ---------------- *)

let test_batch_policy () =
  let b = Batch.create ~bound:16 () in
  check_int "bounded" 16 (Batch.next_batch b ~pending:100);
  check_int "never waits" 3 (Batch.next_batch b ~pending:3);
  check_int "zero when idle" 0 (Batch.next_batch b ~pending:0);
  Alcotest.(check (float 0.01)) "mean batch" 9.5 (Batch.mean_batch b);
  Batch.set_bound b 1;
  check_int "rebound" 1 (Batch.next_batch b ~pending:100)

(* The adaptive controller is a pure function of the next_batch call
   stream: saturated windows double the bound toward the ceiling,
   light windows halve it toward the floor, and the bound never leaves
   [floor, ceiling]. *)
let test_batch_adaptive_controller () =
  let b = Batch.create ~bound:8 ~mode:(Batch.Adaptive { floor = 1; ceiling = 64 }) () in
  check_int "starts at the requested bound" 8 (Batch.bound b);
  (* Saturate: every cycle has more pending than the bound admits. *)
  for _ = 1 to 32 do
    ignore (Batch.next_batch b ~pending:1_000)
  done;
  check_int "saturated window doubles" 16 (Batch.bound b);
  check_bool "congested" true (Batch.congested b);
  for _ = 1 to 64 do
    ignore (Batch.next_batch b ~pending:1_000)
  done;
  check_int "keeps climbing" 64 (Batch.bound b);
  for _ = 1 to 32 do
    ignore (Batch.next_batch b ~pending:1_000)
  done;
  check_int "clamped at the ceiling" 64 (Batch.bound b);
  (* Go idle-ish: one packet per non-idle cycle, far below bound/4. *)
  for _ = 1 to 32 * 7 do
    ignore (Batch.next_batch b ~pending:1)
  done;
  (* One packet per cycle rests at bound=4: mean admitted equals
     limit/4 exactly there and the halving test is strict. *)
  check_bool "bound came back down" true (Batch.bound b <= 4);
  check_bool "not congested" false (Batch.congested b);
  (* Idle cycles don't advance the window. *)
  let before = Batch.bound b in
  for _ = 1 to 1_000 do
    ignore (Batch.next_batch b ~pending:0)
  done;
  check_int "idle cycles leave the bound alone" before (Batch.bound b)

let test_batch_doorbell_coalescing () =
  (* Fixed mode: one ring per non-empty burst, exactly as before. *)
  let f = Batch.create ~bound:64 () in
  check_bool "fixed rings on burst" true (Batch.doorbell_due f ~burst:3);
  check_bool "fixed skips empty" false (Batch.doorbell_due f ~burst:0);
  check_int "fixed doorbells" 1 (Batch.doorbells f);
  (* Adaptive + congested: small bursts coalesce until a bound's worth
     of segments accumulated; a quiet cycle flushes the deferred ring. *)
  let a = Batch.create ~bound:8 ~mode:(Batch.Adaptive { floor = 1; ceiling = 8 }) () in
  for _ = 1 to 32 do
    ignore (Batch.next_batch a ~pending:1_000)
  done;
  check_bool "congested after saturated window" true (Batch.congested a);
  check_bool "small burst defers" false (Batch.doorbell_due a ~burst:3);
  check_bool "still under bound" false (Batch.doorbell_due a ~burst:3);
  check_bool "bound reached rings" true (Batch.doorbell_due a ~burst:3);
  check_bool "fresh accumulation defers again" false (Batch.doorbell_due a ~burst:1);
  check_bool "quiet cycle flushes" true (Batch.doorbell_due a ~burst:0);
  check_bool "nothing left to flush" false (Batch.doorbell_due a ~burst:0);
  check_int "adaptive doorbells" 2 (Batch.doorbells a)

(* ---------------- Protection ---------------- *)

let test_protection_transitions () =
  let p = Protection.create () in
  check_bool "starts in kernel" true (Protection.current p = Protection.Dataplane_kernel);
  let c1 = Protection.enter_user p in
  check_bool "crossing has a cost" true (c1 > 0);
  let _ = Protection.enter_kernel p in
  check_int "two crossings" 2 (Protection.crossings p);
  check_bool "vm transition pricier than ring crossing" true
    (Protection.control_plane_call p > 2 * c1)

let test_protection_violation () =
  let p = Protection.create () in
  Alcotest.check_raises "double enter_user"
    (Protection.Protection_violation "enter_user from user") (fun () ->
      ignore (Protection.enter_user p);
      ignore (Protection.enter_user p))

let test_protection_require () =
  let p = Protection.create () in
  Protection.require p Protection.Dataplane_kernel;
  Alcotest.check_raises "require user while in kernel"
    (Protection.Protection_violation "required user but running in dataplane-kernel")
    (fun () -> Protection.require p Protection.User)

(* ---------------- RCU ---------------- *)

let test_rcu_defers_until_quiescent () =
  let mgr = Rcu.create_manager ~threads:2 in
  let cell = Rcu.make mgr 1 in
  let retired = ref [] in
  Rcu.update cell (fun v -> v + 1) ~retired:(fun old -> retired := old :: !retired);
  check_int "new value visible immediately" 2 (Rcu.read cell);
  Alcotest.(check (list int)) "not reclaimed yet" [] !retired;
  Rcu.quiescent mgr ~thread:0;
  Alcotest.(check (list int)) "still waiting for thread 1" [] !retired;
  Rcu.quiescent mgr ~thread:1;
  Alcotest.(check (list int)) "reclaimed after full quiescent period" [ 1 ] !retired;
  check_int "no pendings" 0 (Rcu.pending_callbacks mgr)

let test_rcu_multiple_updates () =
  let mgr = Rcu.create_manager ~threads:1 in
  let cell = Rcu.make mgr 0 in
  let count = ref 0 in
  for _ = 1 to 5 do
    Rcu.update cell (fun v -> v + 1) ~retired:(fun _ -> incr count)
  done;
  Rcu.quiescent mgr ~thread:0;
  check_int "all five reclaimed" 5 !count;
  check_int "value" 5 (Rcu.read cell)

(* ---------------- ARP cache ---------------- *)

let test_arp_cache () =
  let mgr = Rcu.create_manager ~threads:1 in
  let cache = Arp_cache.create mgr in
  let ip = Ixnet.Ip_addr.of_host_id 9 in
  Alcotest.(check (option int)) "miss" None (Arp_cache.lookup cache ip);
  Arp_cache.learn cache ip (Ixnet.Mac_addr.of_host_id 9);
  Alcotest.(check (option int))
    "hit" (Some (Ixnet.Mac_addr.of_host_id 9))
    (Arp_cache.lookup cache ip);
  check_int "one entry" 1 (Arp_cache.entries cache);
  (* Re-learning the same mapping must not spin RCU. *)
  Arp_cache.learn cache ip (Ixnet.Mac_addr.of_host_id 9);
  Rcu.quiescent mgr ~thread:0;
  check_int "single retired version" 1 (Arp_cache.retired_versions cache)

let test_arp_parking () =
  let mgr = Rcu.create_manager ~threads:1 in
  let cache = Arp_cache.create mgr in
  let ip = Ixnet.Ip_addr.of_host_id 5 in
  let m1 = Ixmem.Mbuf.create () and m2 = Ixmem.Mbuf.create () in
  Arp_cache.park cache ip m1;
  Arp_cache.park cache ip m2;
  (match Arp_cache.take_parked cache ip with
  | [ a; b ] -> check_bool "fifo order" true (a == m1 && b == m2)
  | _ -> Alcotest.fail "expected two parked frames");
  Alcotest.(check (list unit)) "drained" [] (List.map ignore (Arp_cache.take_parked cache ip))

(* ---------------- Policy ---------------- *)

let test_policy_firewall () =
  let pol = Policy.create () in
  let bad_ip = Ixnet.Ip_addr.of_host_id 66 in
  Policy.add_rule pol { Policy.src_ip = Some bad_ip; dst_port = None; action = Policy.Deny };
  check_bool "denied source" false
    (Policy.admit pol ~now:0 ~src_ip:bad_ip ~dst_port:80 ~len:64);
  check_bool "other source admitted" true
    (Policy.admit pol ~now:0 ~src_ip:(Ixnet.Ip_addr.of_host_id 7) ~dst_port:80 ~len:64);
  check_int "denial counted" 1 (Policy.denied pol)

let test_policy_port_rule_first_match () =
  let pol = Policy.create () in
  Policy.add_rule pol { Policy.src_ip = None; dst_port = Some 22; action = Policy.Deny };
  Policy.add_rule pol { Policy.src_ip = None; dst_port = None; action = Policy.Allow };
  check_bool "port 22 blocked" false
    (Policy.admit pol ~now:0 ~src_ip:1 ~dst_port:22 ~len:64);
  check_bool "port 80 allowed" true (Policy.admit pol ~now:0 ~src_ip:1 ~dst_port:80 ~len:64)

let test_policy_metering () =
  let pol = Policy.create () in
  Policy.set_rate_limit pol ~bytes_per_sec:(Some 1_000_000);
  (* The bucket starts with 10 ms worth = 10 KB. *)
  let admitted = ref 0 in
  for i = 1 to 20 do
    ignore i;
    if Policy.admit pol ~now:0 ~src_ip:1 ~dst_port:80 ~len:1_000 then incr admitted
  done;
  check_int "token bucket caps burst" 10 !admitted;
  check_bool "later traffic refills" true
    (Policy.admit pol ~now:1_000_000_000 ~src_ip:1 ~dst_port:80 ~len:1_000)

(* ---------------- End-to-end echo over the cluster ---------------- *)

let run_echo_cluster ~server_kind ~msgs =
  let server = Harness.Cluster.server_spec ~threads:2 server_kind in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:2 ~server () in
  Apps.Echo.server cluster.Harness.Cluster.server ~port:9000 ~msg_size:64 ~app_ns:100;
  let stats = Apps.Echo.new_stats () in
  let client = List.hd cluster.Harness.Cluster.clients in
  Apps.Echo.client client
    ~now:(Harness.Cluster.now cluster)
    ~thread:0 ~server_ip:cluster.Harness.Cluster.server_ip ~port:9000 ~msg_size:64
    ~msgs_per_conn:msgs ~stats ~stop_after:(Engine.Sim_time.ms 1);
  Sim.run ~until:(Engine.Sim_time.ms 200) cluster.Harness.Cluster.sim;
  (stats, cluster)

let test_ix_echo_end_to_end () =
  let stats, cluster = run_echo_cluster ~server_kind:Harness.Cluster.Ix ~msgs:50 in
  check_bool "many messages echoed" true (stats.Apps.Echo.messages >= 50);
  check_int "no connect failures" 0 stats.Apps.Echo.connect_failures;
  let host = Option.get cluster.Harness.Cluster.server_ix in
  check_bool "dataplane cycles ran" true
    (Ix_core.Dataplane.cycles_run (Ix_core.Ix_host.dataplane host 0)
     + Ix_core.Dataplane.cycles_run (Ix_core.Ix_host.dataplane host 1)
    > 0);
  check_bool "kernel share is small (zero-copy dataplane)" true
    (Ix_core.Ix_host.kernel_share host < 0.95)

let test_linux_echo_end_to_end () =
  let stats, _ = run_echo_cluster ~server_kind:Harness.Cluster.Linux ~msgs:50 in
  check_bool "many messages echoed" true (stats.Apps.Echo.messages >= 50)

let test_mtcp_echo_end_to_end () =
  let stats, _ = run_echo_cluster ~server_kind:Harness.Cluster.Mtcp ~msgs:20 in
  check_bool "messages echoed" true (stats.Apps.Echo.messages >= 20)

let test_ix_latency_beats_linux () =
  let ix_stats, _ = run_echo_cluster ~server_kind:Harness.Cluster.Ix ~msgs:100 in
  let linux_stats, _ = run_echo_cluster ~server_kind:Harness.Cluster.Linux ~msgs:100 in
  let p50 stats = Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 50. in
  check_bool "ix echo RTT < linux echo RTT" true (p50 ix_stats < p50 linux_stats)

let test_connection_churn () =
  (* n=1: one message per connection, repeated — exercises the
     handshake, RST close and ephemeral port recycling. *)
  let stats, cluster = run_echo_cluster ~server_kind:Harness.Cluster.Ix ~msgs:1 in
  check_bool "many connections churned" true (stats.Apps.Echo.connects > 20);
  let host = Option.get cluster.Harness.Cluster.server_ix in
  check_int "no leaked server connections" 0 (Ix_core.Ix_host.connections host)

(* ---------------- Control plane ---------------- *)

let test_control_plane_monitor_and_scale () =
  let server = Harness.Cluster.server_spec ~threads:4 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:2 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let cp = Control_plane.create host in
  Apps.Echo.server cluster.Harness.Cluster.server ~port:9000 ~msg_size:64 ~app_ns:100;
  let stats = Apps.Echo.new_stats () in
  let client = List.hd cluster.Harness.Cluster.clients in
  Apps.Echo.client client
    ~now:(Harness.Cluster.now cluster)
    ~thread:0 ~server_ip:cluster.Harness.Cluster.server_ip ~port:9000 ~msg_size:64
    ~msgs_per_conn:1000 ~stats ~stop_after:(Engine.Sim_time.ms 4);
  Sim.run ~until:(Engine.Sim_time.ms 2) cluster.Harness.Cluster.sim;
  let reports = Control_plane.monitor cp in
  check_int "one report per thread" 4 (List.length reports);
  (* Revoke cores down to 1: flows must migrate and traffic continue. *)
  let before = stats.Apps.Echo.messages in
  Control_plane.set_elastic_threads cp 1;
  check_int "active" 1 (Control_plane.active_threads cp);
  Sim.run ~until:(Engine.Sim_time.ms 30) cluster.Harness.Cluster.sim;
  check_bool "traffic survived the rebalance" true (stats.Apps.Echo.messages > before);
  check_int "one rebalance recorded" 1 (Control_plane.rebalances cp)

let test_posix_passthrough_cost () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let cp = Control_plane.create host in
  let cost = Control_plane.posix_passthrough cp ~thread:0 in
  check_bool "passthrough costs two VM transitions" true (cost >= 3_000)

(* ---------------- libix behaviours ---------------- *)

let test_libix_send_limit () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let lib = Ix_host.libix host 0 in
  let results = ref [] in
  Libix.run lib (fun () ->
      Libix.connect lib ~ip:(List.hd cluster.Harness.Cluster.client_ips) ~port:1
        {
          Net_api.null_handlers with
          Net_api.on_connected = (fun _ ~ok -> results := ok :: !results);
        });
  Sim.run ~until:(Engine.Sim_time.ms 100) cluster.Harness.Cluster.sim;
  (* No listener on the client: the connection must be refused. *)
  Alcotest.(check (list bool)) "refused" [ false ] !results

(* ---------------- libix write coalescing & syscall accounting ------- *)

let test_libix_write_coalescing () =
  (* Three writes issued in one round must coalesce into a single sendv
     (§4.3: "libix automatically coalesces multiple write requests into
     single sendv system calls during each batching round"). *)
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  (* Sink on the client side. *)
  let received = Buffer.create 64 in
  let client = List.hd cluster.Harness.Cluster.clients in
  client.Net_api.listen ~port:9 (fun ~thread:_ _conn ->
      {
        Net_api.null_handlers with
        Net_api.on_data = (fun _ data -> Buffer.add_string received data);
      });
  let lib = Ix_host.libix host 0 in
  let dp = Ix_host.dataplane host 0 in
  let before = ref 0 in
  Libix.run lib (fun () ->
      Libix.connect lib
        ~ip:(List.hd cluster.Harness.Cluster.client_ips)
        ~port:9
        {
          Net_api.null_handlers with
          Net_api.on_connected =
            (fun conn ~ok ->
              if ok then begin
                before := Dataplane.syscalls_processed dp;
                ignore (conn.Net_api.send "one ");
                ignore (conn.Net_api.send "two ");
                ignore (conn.Net_api.send "three")
              end);
        });
  Sim.run ~until:(Engine.Sim_time.ms 50) cluster.Harness.Cluster.sim;
  Alcotest.(check string) "all three writes arrived in order" "one two three"
    (Buffer.contents received);
  (* Between connect completion and now: exactly one sendv (plus zero
     or more recv_done on other conns, but this thread has one conn and
     no inbound data). *)
  check_int "coalesced into one sendv" (!before + 1) (Dataplane.syscalls_processed dp)

let test_libix_pending_send_limit () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let lib = Ix_host.libix host 0 in
  let accepted = ref true in
  Libix.run lib (fun () ->
      Libix.connect lib
        ~ip:(List.hd cluster.Harness.Cluster.client_ips)
        ~port:1
        {
          Net_api.null_handlers with
          Net_api.on_connected =
            (fun conn ~ok ->
              ignore ok;
              (* Even before establishment, queueing beyond the pending
                 byte policy is rejected. *)
              accepted :=
                conn.Net_api.send (String.make (Libix.max_pending_send + 1) 'x'));
        });
  Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Harness.Cluster.sim;
  check_bool "oversized write refused" false !accepted

(* Deep-queue regression: the old write_queue was an immutable list
   rebuilt with [@] on every send, so queueing n writes in one round
   cost O(n^2) words (~100M at n=4000).  The ring deque keeps it
   linear.  The drain also exercises the window-limited sendv path at
   depth: only a prefix is accepted per round and the remainder must
   survive in place until Ev_sent reopens the window. *)
let test_libix_deep_queue () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let received = ref 0 in
  let client = List.hd cluster.Harness.Cluster.clients in
  client.Net_api.listen ~port:9 (fun ~thread:_ _conn ->
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun _ data -> received := !received + String.length data);
      });
  let lib = Ix_host.libix host 0 in
  let sends = 4_000 and chunk = 16 in
  let payload = String.make chunk 'q' in
  let queue_words = ref infinity in
  Libix.run lib (fun () ->
      Libix.connect lib
        ~ip:(List.hd cluster.Harness.Cluster.client_ips)
        ~port:9
        {
          Net_api.null_handlers with
          Net_api.on_connected =
            (fun conn ~ok ->
              check_bool "connected" true ok;
              let w0 = Gc.minor_words () in
              for _ = 1 to sends do
                ignore (conn.Net_api.send payload)
              done;
              queue_words := Gc.minor_words () -. w0);
        });
  Sim.run ~until:(Engine.Sim_time.ms 200) cluster.Harness.Cluster.sim;
  check_int "every queued byte drained" (sends * chunk) !received;
  check_bool
    (Printf.sprintf "queueing stayed linear (%.0f words for %d sends)"
       !queue_words sends)
    true
    (!queue_words < float_of_int (sends * 500))

let test_icmp_ping_roundtrip () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  let replies = ref [] in
  Dataplane.set_ping_handler dp (fun ~src_ip reply ->
      replies := (src_ip, reply.Ixnet.Icmp_packet.seq) :: !replies);
  let target = List.hd cluster.Harness.Cluster.client_ips in
  Dataplane.ping dp ~dst:target ~ident:7 ~seq:1;
  Dataplane.ping dp ~dst:target ~ident:7 ~seq:2;
  Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Harness.Cluster.sim;
  Alcotest.(check (list (pair int int)))
    "two replies, in order" [ (target, 1); (target, 2) ] (List.rev !replies)

(* ---------------- UDP datagrams (§4.2) ---------------- *)

let test_udp_echo_through_dataplane () =
  (* A UDP echo service on the IX server, exercised from an IX client —
     the memcached-GETs-over-UDP pattern of [46]. *)
  let server = Harness.Cluster.server_spec ~threads:2 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  for thread = 0 to 1 do
    let lib = Ix_host.libix host thread in
    Libix.run lib (fun () ->
        Libix.udp_bind lib ~port:5353 (fun ~src:(ip, port) data ->
            Libix.udp_send lib ~src_port:5353 ~dst_ip:ip ~dst_port:port
              ("echo:" ^ data)))
  done;
  let client_host = Option.get (List.hd cluster.Harness.Cluster.client_ix) in
  let client_lib = Ix_host.libix client_host 0 in
  let replies = ref [] in
  Libix.run client_lib (fun () ->
      Libix.udp_bind client_lib ~port:7777 (fun ~src:_ data ->
          replies := data :: !replies);
      Libix.udp_send client_lib ~src_port:7777
        ~dst_ip:cluster.Harness.Cluster.server_ip ~dst_port:5353 "ping-1";
      Libix.udp_send client_lib ~src_port:7777
        ~dst_ip:cluster.Harness.Cluster.server_ip ~dst_port:5353 "ping-2");
  Sim.run ~until:(Engine.Sim_time.ms 20) cluster.Harness.Cluster.sim;
  Alcotest.(check (slist string String.compare))
    "both datagrams echoed"
    [ "echo:ping-1"; "echo:ping-2" ]
    !replies

let test_udp_unbound_port_dropped () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let client_host = Option.get (List.hd cluster.Harness.Cluster.client_ix) in
  let client_lib = Ix_host.libix client_host 0 in
  let got = ref 0 in
  Libix.run client_lib (fun () ->
      Libix.udp_bind client_lib ~port:7778 (fun ~src:_ _ -> incr got);
      (* Nothing listens on 9999 at the server: silence, not a crash. *)
      Libix.udp_send client_lib ~src_port:7778
        ~dst_ip:cluster.Harness.Cluster.server_ip ~dst_port:9999 "void");
  Sim.run ~until:(Engine.Sim_time.ms 20) cluster.Harness.Cluster.sim;
  check_int "no reply from unbound port" 0 !got

(* ---------------- staging double buffers ---------------- *)

(* Step 4 executes a swapped-out syscall array: a syscall staged while
   it runs (here from an [on_result] callback, re-entering user mode to
   do so) lands in the fresh array and runs in the next cycle, never in
   the batch being executed. *)
let test_syscall_staged_in_on_result_runs_next_cycle () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  let prot = Dataplane.protection dp in
  let log = ref [] in
  let record name r = log := (name, Dataplane.cycles_run dp, r) :: !log in
  Dataplane.bootstrap dp (fun () ->
      Dataplane.sys_close dp (-7) ~on_result:(fun r ->
          record "first" r;
          ignore (Protection.enter_user prot);
          Dataplane.sys_close dp (-8) ~on_result:(record "second");
          ignore (Protection.enter_kernel prot)));
  Sim.run ~until:(Engine.Sim_time.ms 1) cluster.Harness.Cluster.sim;
  match List.rev !log with
  | [ ("first", c1, r1); ("second", c2, r2) ] ->
      check_int "unknown handle rejected" (-1) r1;
      check_int "follow-up rejected too" (-1) r2;
      check_int "follow-up ran in the next cycle" (c1 + 1) c2
  | _ -> Alcotest.fail "expected exactly two syscall completions"

(* Event conditions staged during step 4 — the [Dead] rows of two
   [Sys_abort]s — are delivered together in the next user phase, in the
   order the aborts ran. *)
let test_abort_events_delivered_next_user_phase () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  let knocks = ref [] and deaths = ref [] and abort_cycle = ref (-1) in
  Dataplane.set_app dp (fun events ->
      for i = 0 to Ix_api.count events - 1 do
        match Ix_api.kind events i with
        | Ix_api.Knock ->
            let handle = Ix_api.handle events i in
            let cookie = 100 + List.length !knocks in
            Dataplane.sys_accept dp handle ~cookie ~on_result:ignore;
            knocks := handle :: !knocks
        | Ix_api.Dead ->
            deaths := (Ix_api.cookie events i, Dataplane.cycles_run dp, i) :: !deaths
        | _ -> ()
      done;
      if List.length !knocks = 2 && !abort_cycle < 0 then begin
        abort_cycle := Dataplane.cycles_run dp;
        List.iter
          (fun handle -> Dataplane.sys_abort dp handle ~on_result:ignore)
          (List.rev !knocks)
      end);
  Dataplane.listen dp ~port:7100;
  let client = List.hd cluster.Harness.Cluster.clients in
  client.Net_api.run_app ~thread:0 (fun () ->
      for _ = 1 to 2 do
        client.Net_api.connect ~thread:0 ~ip:cluster.Harness.Cluster.server_ip
          ~port:7100 Net_api.null_handlers
      done);
  Sim.run ~until:(Engine.Sim_time.ms 5) cluster.Harness.Cluster.sim;
  check_bool "both connections accepted, then aborted" true (!abort_cycle >= 0);
  match List.rev !deaths with
  | [ (c1, cy1, i1); (c2, cy2, i2) ] ->
      Alcotest.(check (list int)) "abort order" [ 100; 101 ] [ c1; c2 ];
      check_int "first death in the next user phase" (!abort_cycle + 1) cy1;
      check_int "second in the same phase" cy1 cy2;
      check_int "adjacent in the event array" (i1 + 1) i2
  | l -> Alcotest.failf "expected two Dead events, got %d" (List.length l)

(* A handle names one connection for its whole life: after the
   connection closes, its handle is rejected with -1 even once a new
   connection reuses the store slot, and the syscalls that carry it
   leave the new connection untouched. *)
let test_stale_handle_rejected_after_slot_reuse () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let sim = cluster.Harness.Cluster.sim in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  let store = (Ixtcp.Tcp_endpoint.env (Dataplane.endpoint dp)).Ixtcp.Tcb.store in
  let handles = ref [] in
  Dataplane.set_app dp (fun events ->
      for i = 0 to Ix_api.count events - 1 do
        match Ix_api.kind events i with
        | Ix_api.Knock ->
            let handle = Ix_api.handle events i in
            let cookie = List.length !handles in
            Dataplane.sys_accept dp handle ~cookie ~on_result:ignore;
            (* The first connection is closed as soon as it is accepted;
               the second sends one message and stays open. *)
            (if cookie = 0 then Dataplane.sys_close dp handle ~on_result:ignore
             else
               let queue = Ixmem.Iov_deque.create () in
               Ixmem.Iov_deque.push queue (Ixmem.Iovec.of_string "hello");
               Dataplane.sys_sendv dp handle queue ~on_result:ignore);
            handles := !handles @ [ handle ]
        | Ix_api.Recv -> Ixmem.Mbuf.decref (Ix_api.mbuf events i)
        | _ -> ()
      done);
  Dataplane.listen dp ~port:7200;
  let client = List.hd cluster.Harness.Cluster.clients in
  let received = Buffer.create 16 and closes = ref 0 in
  let handlers =
    {
      Net_api.null_handlers with
      Net_api.on_data = (fun _ data -> Buffer.add_string received data);
      on_closed =
        (fun conn _ ->
          incr closes;
          conn.Net_api.close ());
    }
  in
  let connect_at ms =
    Sim.at sim (Engine.Sim_time.ms ms) (fun () ->
        client.Net_api.run_app ~thread:0 (fun () ->
            client.Net_api.connect ~thread:0
              ~ip:cluster.Harness.Cluster.server_ip ~port:7200 handlers))
  in
  connect_at 1;
  connect_at 5;
  Sim.run ~until:(Engine.Sim_time.ms 10) sim;
  let h1, h2 =
    match !handles with
    | [ h1; h2 ] -> (h1, h2)
    | l -> Alcotest.failf "expected two knocks, got %d" (List.length l)
  in
  check_bool "the second connection reuses the first one's slot" true
    (h1 land 0xFF_FFFF = h2 land 0xFF_FFFF);
  check_bool "under a new handle" true (h1 <> h2);
  check_bool "the first handle reads dead" true
    (Ixtcp.Tcb.is_dead (Ixtcp.Tcb.deref store h1));
  let tcb = Ixtcp.Tcb.deref store h2 in
  let fingerprint () =
    Ixtcp.Tcb.
      ( Ixtcp.Tcp_state.to_string (state tcb),
        [ snd_nxt tcb; rcv_nxt tcb; bytes_in tcb; bytes_out tcb; rcv_unconsumed tcb;
          snd_queue_len tcb ] )
  in
  let before = fingerprint () in
  check_string "second connection open" "ESTABLISHED" (fst before);
  check_string "second connection's message arrived" "hello" (Buffer.contents received);
  let results = ref [] in
  let record name r = results := (name, r) :: !results in
  Dataplane.bootstrap dp (fun () ->
      let queue = Ixmem.Iov_deque.create () in
      Ixmem.Iov_deque.push queue (Ixmem.Iovec.of_string "stale");
      Dataplane.sys_sendv dp h1 queue ~on_result:(record "sendv");
      Dataplane.sys_recv_done dp h1 ~bytes_acked:3 ~on_result:(record "recv_done");
      Dataplane.sys_close dp h1 ~on_result:(record "close"));
  Sim.run ~until:(Engine.Sim_time.ms 20) sim;
  Alcotest.(check (list (pair string int)))
    "each stale syscall rejected"
    [ ("sendv", -1); ("recv_done", -1); ("close", -1) ]
    (List.rev !results);
  check_bool "second connection's state unchanged" true (fingerprint () = before);
  check_string "no stale bytes reached the client" "hello" (Buffer.contents received);
  check_int "only the first connection closed" 1 !closes

(* ---------------- background threads (§4.1) ---------------- *)

let test_background_threads_timeshare () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  Apps.Echo.server cluster.Harness.Cluster.server ~port:9000 ~msg_size:64 ~app_ns:100;
  (* A garbage-collection-style background task in 10 us slices. *)
  let gc_work = ref 0 in
  Dataplane.set_background_work dp ~slice_ns:10_000 (fun () -> incr gc_work);
  (* Idle period: background work proceeds. *)
  Sim.run ~until:(Engine.Sim_time.ms 2) cluster.Harness.Cluster.sim;
  let idle_slices = Dataplane.background_slices dp in
  check_bool "background ran while idle" true (idle_slices > 50);
  (* Foreground traffic still flows, with background yielding. *)
  let stats = Apps.Echo.new_stats () in
  Apps.Echo.client
    (List.hd cluster.Harness.Cluster.clients)
    ~now:(Harness.Cluster.now cluster) ~thread:0
    ~server_ip:cluster.Harness.Cluster.server_ip ~port:9000 ~msg_size:64
    ~msgs_per_conn:200 ~stats ~stop_after:(Engine.Sim_time.ms 10);
  Sim.run ~until:(Engine.Sim_time.ms 20) cluster.Harness.Cluster.sim;
  check_bool "elastic work still served" true (stats.Apps.Echo.messages >= 200);
  check_bool "background continued between packets" true
    (Dataplane.background_slices dp > idle_slices);
  Dataplane.clear_background_work dp;
  let frozen = Dataplane.background_slices dp in
  Sim.run ~until:(Engine.Sim_time.ms 25) cluster.Harness.Cluster.sim;
  check_int "cleared work stops" frozen (Dataplane.background_slices dp)

(* ---------------- Baselines' shared socket host ---------------- *)

module Host = Baselines.Socket_host

(* One bare socket-host core with inert hooks, to drive the shared
   paths directly. *)
let bare_host () =
  let sim = Sim.create () in
  let tx = Ixhw.Link.create sim ~gbps:10. ~propagation_ns:0 ~deliver:Ixhw.Frame.release () in
  let nic = Ixhw.Nic.create sim ~mac:(Ixnet.Mac_addr.of_host_id 1) ~queues:1 ~tx () in
  let profile =
    {
      Host.name = "bare";
      domain = Ixhw.Cpu_core.User;
      call_ns = 0;
      call_counter = "calls";
      copy_ns_per_kb = 0;
      event_ns = 0;
      proto_tx_ns = 0;
      accept_is_call = false;
      burst = 1;
    }
  in
  let inert _ = () and drop _ _ = () in
  let hooks =
    { Host.notify = inert; wake = inert; connected = (fun _ _ _ -> ()); transmit = drop;
      transmit_ctrl = drop }
  in
  let cores =
    Host.create ~sim ~host_id:1 ~ip:(Ixnet.Ip_addr.of_host_id 1) ~nics:[| nic |] ~threads:1
      ~config:Ixtcp.Tcb.default_config ~seed:1 ~profile ~hooks ~state:(fun _ _ -> ()) ()
  in
  cores.(0)

(* The timer wakeup both baselines use allocates nothing: a periodic
   wheel timer drives 10k wakeups, each advancing the wheel and
   re-arming the wakeup with the core's cached thunk.  A closure built
   per re-arm would show up here. *)
let test_timer_wakeup_allocates_nothing () =
  let c = bare_host () in
  let period = 10 * Timerwheel.Timer_wheel.default_tick_ns in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    ignore (Timerwheel.Timer_wheel.schedule c.Host.wheel ~deadline:(Sim.now c.sim + period) tick)
  in
  ignore (Timerwheel.Timer_wheel.schedule c.wheel ~deadline:period tick);
  Host.run_timers c;
  (* Warm-up: grow the event heap and the wheel's cell pool. *)
  Sim.run ~until:(100 * period) c.sim;
  let until = Some (Sim.now c.sim + (10_000 * period)) in
  let fired_before = !fired and events_before = Sim.events_executed c.sim in
  Alloc_gate.none "words over 10k re-arms" (fun () -> Sim.run ?until c.sim);
  check_int "the timer fired every period" 10_000 (!fired - fired_before);
  check_bool "a wakeup per period at least" true
    (Sim.events_executed c.sim - events_before >= 10_000)

(* Moving the timer wakeup allocates nothing: with a wheel timer
   pending, 10k RX-pass [run_timers] calls each move the pending wakeup
   in place, and 10k disarm/arm pairs take it out and put it back. *)
let test_wakeup_moves_allocate_nothing () =
  let c = bare_host () in
  let deadline = 10 * Timerwheel.Timer_wheel.default_tick_ns in
  ignore (Timerwheel.Timer_wheel.schedule c.Host.wheel ~deadline ignore);
  for i = 1 to 100 do
    Sim.at c.sim (i * deadline) ignore
  done;
  Host.run_timers c;
  Alloc_gate.none "words over 10k in-place moves" (fun () ->
      for _ = 1 to 10_000 do
        Host.run_timers c
      done);
  check_bool "the wakeup stays pending" true (Sim.pending c.timer_wakeup);
  Alloc_gate.none "words over 10k disarm/arm pairs" (fun () ->
      for i = 1 to 10_000 do
        Sim.disarm c.timer_wakeup;
        Sim.arm c.timer_wakeup (i mod 200 * deadline)
      done);
  check_bool "and pending after the last arm" true (Sim.pending c.timer_wakeup)

(* The shared frame demux allocates nothing for frames it drops: 10k
   pre-built UDP frames go through [process_frame] and are released. *)
let test_process_frame_allocates_nothing () =
  let c = bare_host () in
  let src = Ixnet.Ip_addr.of_host_id 2 and dst = Ixnet.Ip_addr.of_host_id 1 in
  let udp_frame i =
    let m = Ixmem.Mbuf.create () in
    Ixmem.Mbuf.append m "datagram";
    Ixnet.Udp_packet.prepend m ~src ~dst ~src_port:(1000 + i) ~dst_port:53;
    Ixnet.Ipv4_packet.prepend_fields m ~src ~dst ~protocol:Ixnet.Ipv4_packet.Udp ~ttl:64
      ~ecn:0 ~payload_len:m.Ixmem.Mbuf.len;
    Ixnet.Ethernet.prepend_fields m ~dst:(Ixnet.Mac_addr.of_host_id 1)
      ~src:(Ixnet.Mac_addr.of_host_id 2) ~ethertype:Ixnet.Ethernet.Ipv4;
    m
  in
  let pass frames =
    for i = 0 to Array.length frames - 1 do
      Host.process_frame c frames.(i)
    done
  in
  pass (Array.init 100 udp_frame);
  let frames = Array.init 10_000 udp_frame in
  Alloc_gate.none "words over 10k frames" (fun () -> pass frames);
  check_bool "decoded as UDP" true
    (c.ip_scratch.Ixnet.Ipv4_packet.protocol = Ixnet.Ipv4_packet.Udp);
  check_bool "every frame released" true
    (Array.for_all (fun m -> m.Ixmem.Mbuf.refcount = 0) frames)

(* Event rows: every kind's fields read back through the accessors
   (past the columns' first growth); [unpark] patches the cookie of a
   connection's parked rows and moves them, oldest first, leaving other
   connections' rows parked in order; [discard] drops them. *)
let test_event_rows () =
  let fill = Ixmem.Mbuf.create ~size:1 () and m = Ixmem.Mbuf.create () in
  let ev = Ix_api.create_events ~fill and parked = Ix_api.create_events ~fill in
  let ip = Ixnet.Ip_addr.of_host_id 3 in
  for i = 1 to 100 do
    Ix_api.stage_sent ev ~cookie:i ~bytes_sent:(2 * i) ~window_size:(3 * i)
  done;
  check_int "grown past 64 rows" 100 (Ix_api.count ev);
  check_int "last row's window" 300 (Ix_api.window_size ev 99);
  Ix_api.clear ev;
  Ix_api.stage_knock ev ~handle:7 ~src_ip:ip ~src_port:4000 ~port:80;
  Ix_api.stage_recv parked ~cookie:7 m ~off:14 ~len:50;
  Ix_api.stage_sent parked ~cookie:9 ~bytes_sent:100 ~window_size:65535;
  Ix_api.stage_dead parked ~cookie:7 Ixtcp.Tcb.Reset;
  Ix_api.stage_connected parked ~cookie:9 ~handle:9 ~ok:true;
  Ix_api.unpark parked ~key:7 ~cookie:42 ~into:ev;
  check_int "knock plus the two unparked rows" 3 (Ix_api.count ev);
  check_bool "in arrival order" true
    (List.init 3 (Ix_api.kind ev) = Ix_api.[ Knock; Recv; Dead ]);
  check_int "knock handle" 7 (Ix_api.handle ev 0);
  check_int "knock port" 80 (Ix_api.port ev 0);
  check_bool "knock peer" true (Ix_api.src_ip ev 0 = ip && Ix_api.src_port ev 0 = 4000);
  check_int "recv cookie patched" 42 (Ix_api.cookie ev 1);
  check_bool "recv payload" true
    (Ix_api.mbuf ev 1 == m && Ix_api.off ev 1 = 14 && Ix_api.len ev 1 = 50);
  check_int "dead cookie patched" 42 (Ix_api.cookie ev 2);
  check_bool "dead reason" true (Ix_api.reason ev 2 = Ixtcp.Tcb.Reset);
  check_int "the other connection's rows stay parked" 2 (Ix_api.count parked);
  check_bool "still in order" true (List.init 2 (Ix_api.kind parked) = Ix_api.[ Sent; Connected ]);
  check_bool "sent fields" true
    (Ix_api.cookie parked 0 = 9 && Ix_api.bytes_sent parked 0 = 100
    && Ix_api.window_size parked 0 = 65535);
  check_bool "connected fields" true (Ix_api.handle parked 1 = 9 && Ix_api.ok parked 1);
  Ix_api.discard parked ~key:9;
  check_int "discarded" 0 (Ix_api.count parked);
  Ix_api.stage_udp_recv ev ~port:53 ~src_ip:ip ~src_port:1000 m ~off:42 ~len:8;
  check_bool "datagram fields" true
    (Ix_api.kind ev 3 = Ix_api.Udp_recv && Ix_api.port ev 3 = 53 && Ix_api.src_ip ev 3 = ip
    && Ix_api.src_port ev 3 = 1000 && Ix_api.mbuf ev 3 == m && Ix_api.off ev 3 = 42
    && Ix_api.len ev 3 = 8);
  Ix_api.clear ev;
  check_int "cleared" 0 (Ix_api.count ev)

(* A socket-host app round allocates nothing: 10k rounds each queue one
   job and ready one socket (through its TCB's [on_sent]), then run the
   pass that drains both. *)
let test_ready_round_allocates_nothing () =
  let c = bare_host () in
  let stack = Host.stack [| c |] in
  let sent = ref 0 in
  stack.Net_api.connect ~thread:0 ~ip:(Ixnet.Ip_addr.of_host_id 2) ~port:80
    { Net_api.null_handlers with Net_api.on_sent = (fun _ n -> sent := !sent + n) };
  Host.run_batch c;
  let tcb = ref None in
  Ixtcp.Tcp_endpoint.iter_connections (Option.get c.Host.ep) (fun t -> tcb := Some t);
  let on_sent = (Option.get !tcb).Ixtcp.Tcb.callbacks.Ixtcp.Tcb.on_sent in
  let jobs = ref 0 in
  let job () = incr jobs in
  let round () =
    stack.Net_api.run_app ~thread:0 job;
    on_sent 1;
    Host.run_batch c
  in
  for _ = 1 to 100 do
    round ()
  done;
  Alloc_gate.none "words over 10k ready/job rounds" (fun () ->
      for _ = 1 to 10_000 do
        round ()
      done);
  check_int "every job ran" 10_100 !jobs;
  check_int "every readiness was serviced" 10_100 !sent;
  check_bool "nothing left pending" false (Host.pending c)

(* A connection between an IX server and an IX client, both reading
   zero-copy; returns the cluster, the server's dataplane and libix, and
   the server side's TCB and portable conn. *)
let zero_copy_pair () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 and lib = Ix_host.libix host 0 in
  let client_lib = Ix_host.libix (Option.get (List.hd cluster.Harness.Cluster.client_ix)) 0 in
  Libix.set_zero_copy_reader client_lib (fun conn mbuf _off len -> Libix.recv_done conn mbuf len);
  let accepted = ref None in
  Libix.run lib (fun () ->
      Libix.listen lib ~port:7300 ~on_accept:(fun conn ->
          accepted := Some conn;
          Net_api.null_handlers));
  Libix.run client_lib (fun () ->
      Libix.connect client_lib ~ip:cluster.Harness.Cluster.server_ip ~port:7300
        Net_api.null_handlers);
  Sim.run ~until:(Engine.Sim_time.ms 2) cluster.Harness.Cluster.sim;
  let tcb = ref None in
  Ixtcp.Tcp_endpoint.iter_connections (Dataplane.endpoint dp) (fun t -> tcb := Some t);
  (cluster, dp, lib, Option.get !tcb, Option.get !accepted)

(* Event conditions and the syscalls they prompt allocate nothing from
   staging to execution: 10k [Recv] events are staged through the
   server TCB's [on_recv], delivered to libix's zero-copy reader, which
   releases each ([recv_done]) and answers it ([send]); the cycles run
   the resulting recv_done and sendv rows, and the replies cross to the
   client and are acknowledged. *)
let test_event_dispatch_allocates_nothing () =
  let cluster, dp, lib, tcb, _ = zero_copy_pair () in
  let sim = cluster.Harness.Cluster.sim in
  let reply = String.make 4 'p' and released = ref 0 in
  Libix.set_zero_copy_reader lib (fun conn mbuf _off len ->
      incr released;
      Libix.recv_done conn mbuf len;
      ignore (Libix.send conn reply));
  let mbuf = Option.get (Ixmem.Mempool.alloc (Dataplane.pool dp)) in
  Ixmem.Mbuf.append mbuf "ping";
  let on_recv = tcb.Ixtcp.Tcb.callbacks.Ixtcp.Tcb.on_recv in
  (* Round [r] runs the simulation to its own deadline, built here so
     the rounds allocate no option. *)
  let start = Sim.now sim in
  let deadlines = Array.init 120 (fun r -> Some (start + ((r + 1) * Engine.Sim_time.us 200))) in
  let round r =
    for _ = 1 to 100 do
      Ixmem.Mbuf.incref mbuf;
      on_recv mbuf mbuf.Ixmem.Mbuf.off 4
    done;
    Dataplane.kick dp;
    Sim.run ?until:deadlines.(r) sim
  in
  for r = 0 to 19 do
    round r
  done;
  let syscalls = Dataplane.syscalls_processed dp in
  Alloc_gate.none "words over 10k events" (fun () ->
      for r = 20 to 119 do
        round r
      done);
  check_int "every event reached the reader" 12_000 !released;
  check_bool "a recv_done and a sendv row ran per round at least" true
    (Dataplane.syscalls_processed dp - syscalls >= 10_100);
  check_int "the test's mbuf holds only its own reference" 1 mbuf.Ixmem.Mbuf.refcount

(* Queueing a write allocates nothing but the write queue's own growth:
   after a warm-up that grows the queue past 10k slices and drains it,
   10k [send]s of one existing string allocate no word. *)
let test_libix_send_allocates_nothing () =
  let cluster, _, lib, _, conn = zero_copy_pair () in
  (* Built at run time: for a literal, a slice record built from it
     would be a static constant, and the gate could not see one being
     allocated per send. *)
  let payload = String.make 16 'q' and queued = ref 0 in
  let sends () =
    for _ = 1 to 10_000 do
      if conn.Net_api.send payload then incr queued
    done
  in
  Libix.run lib sends;
  Sim.run ~until:(Engine.Sim_time.ms 50) cluster.Harness.Cluster.sim;
  Libix.run lib (fun () -> Alloc_gate.none "words over 10k sends" sends);
  check_int "every send was queued" 20_000 !queued

(* What one connection's setup and teardown allocate through [Net_api]
   on both hosts: the two TCBs, libix's conn and its one portable conn
   per side, and the dataplane's and engine's per-connection work.  A
   1-thread IX client connects to a 1-thread IX server and aborts once
   connected, and its [on_closed] opens the next connection, so the
   cycles run back to back inside the simulation.  After 1 k warm-up
   cycles have sized every pool and table, 1 k cycles measure 233.49
   words each; the pin leaves half a word of slack for the run's
   constant overheads, and a second wrapper record per connection (or
   per-connect handler closures) breaks it. *)
let setup_words_budget = 234.

let test_net_api_setup_words () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster =
    Harness.Cluster.build ~client_hosts:1 ~client_threads:1
      ~client_kind:Harness.Cluster.Ix ~server ()
  in
  let sim = cluster.Harness.Cluster.sim and ip = cluster.Harness.Cluster.server_ip in
  let accepted = ref 0 and closed = ref 0 and remaining = ref 0 in
  cluster.Harness.Cluster.server.Net_api.listen ~port:7400 (fun ~thread:_ _ ->
      incr accepted;
      Net_api.null_handlers);
  let client = List.hd cluster.Harness.Cluster.clients in
  let rec handlers =
    {
      Net_api.null_handlers with
      Net_api.on_connected = (fun c ~ok -> if ok then c.Net_api.abort ());
      on_closed =
        (fun _ _ ->
          incr closed;
          if !remaining > 0 then begin
            decr remaining;
            client.Net_api.connect ~thread:0 ~ip ~port:7400 handlers
          end);
    }
  in
  let cycles k =
    remaining := k - 1;
    client.Net_api.connect ~thread:0 ~ip ~port:7400 handlers;
    Sim.run ~until:(Sim.now sim + Engine.Sim_time.s 1) sim
  in
  cycles 1_000;
  let per_conn = Alloc_gate.words (fun () -> cycles 1_000) /. 1_000. in
  check_int "every connection accepted" 2_000 !accepted;
  check_int "every connection closed" 2_000 !closed;
  check_int "no connection left" 0 (cluster.Harness.Cluster.server.Net_api.conn_count ());
  check_bool
    (Printf.sprintf "%.2f words per connect/accept/abort cycle <= %.0f" per_conn
       setup_words_budget)
    true
    (per_conn <= setup_words_budget)

let () =
  Alcotest.run "ix_core"
    [
      ( "batch",
        [
          Alcotest.test_case "adaptive bounded policy" `Quick test_batch_policy;
          Alcotest.test_case "adaptive controller" `Quick
            test_batch_adaptive_controller;
          Alcotest.test_case "doorbell coalescing" `Quick
            test_batch_doorbell_coalescing;
        ] );
      ( "protection",
        [
          Alcotest.test_case "transitions & costs" `Quick test_protection_transitions;
          Alcotest.test_case "violation detected" `Quick test_protection_violation;
          Alcotest.test_case "require" `Quick test_protection_require;
        ] );
      ( "rcu",
        [
          Alcotest.test_case "defers until quiescent" `Quick test_rcu_defers_until_quiescent;
          Alcotest.test_case "multiple updates" `Quick test_rcu_multiple_updates;
        ] );
      ( "arp",
        [
          Alcotest.test_case "lookup/learn" `Quick test_arp_cache;
          Alcotest.test_case "parking" `Quick test_arp_parking;
        ] );
      ( "policy",
        [
          Alcotest.test_case "firewall by source" `Quick test_policy_firewall;
          Alcotest.test_case "first match wins" `Quick test_policy_port_rule_first_match;
          Alcotest.test_case "token bucket metering" `Quick test_policy_metering;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "ix echo" `Quick test_ix_echo_end_to_end;
          Alcotest.test_case "linux echo" `Quick test_linux_echo_end_to_end;
          Alcotest.test_case "mtcp echo" `Quick test_mtcp_echo_end_to_end;
          Alcotest.test_case "ix latency < linux" `Quick test_ix_latency_beats_linux;
          Alcotest.test_case "connection churn (n=1)" `Quick test_connection_churn;
        ] );
      ( "control_plane",
        [
          Alcotest.test_case "monitor & elastic scaling" `Quick
            test_control_plane_monitor_and_scale;
          Alcotest.test_case "posix passthrough" `Quick test_posix_passthrough_cost;
        ] );
      ( "udp",
        [
          Alcotest.test_case "udp echo" `Quick test_udp_echo_through_dataplane;
          Alcotest.test_case "unbound port" `Quick test_udp_unbound_port_dropped;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "timer wakeup allocates nothing" `Quick
            test_timer_wakeup_allocates_nothing;
          Alcotest.test_case "wakeup moves allocate nothing" `Quick
            test_wakeup_moves_allocate_nothing;
          Alcotest.test_case "frame demux allocates nothing" `Quick
            test_process_frame_allocates_nothing;
          Alcotest.test_case "ready/job round allocates nothing" `Quick
            test_ready_round_allocates_nothing;
        ] );
      ( "background",
        [ Alcotest.test_case "timesharing" `Quick test_background_threads_timeshare ] );
      ( "staging",
        [
          Alcotest.test_case "syscall from on_result runs next cycle" `Quick
            test_syscall_staged_in_on_result_runs_next_cycle;
          Alcotest.test_case "abort Ev_dead delivered next user phase" `Quick
            test_abort_events_delivered_next_user_phase;
          Alcotest.test_case "stale handle rejected after slot reuse" `Quick
            test_stale_handle_rejected_after_slot_reuse;
          Alcotest.test_case "event rows and parking" `Quick test_event_rows;
          Alcotest.test_case "event dispatch allocates nothing" `Quick
            test_event_dispatch_allocates_nothing;
        ] );
      ( "libix",
        [
          Alcotest.test_case "refused connect" `Quick test_libix_send_limit;
          Alcotest.test_case "write coalescing" `Quick test_libix_write_coalescing;
          Alcotest.test_case "pending send limit" `Quick test_libix_pending_send_limit;
          Alcotest.test_case "deep queue stays linear" `Quick test_libix_deep_queue;
          Alcotest.test_case "icmp ping" `Quick test_icmp_ping_roundtrip;
          Alcotest.test_case "send allocates nothing" `Quick test_libix_send_allocates_nothing;
          Alcotest.test_case "connection setup words through Net_api" `Quick
            test_net_api_setup_words;
        ] );
    ]
