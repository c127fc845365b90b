(* Integration tests for the IX dataplane: unit tests of the core
   mechanisms (batching, protection, RCU, ARP cache, policy) plus
   end-to-end echo traffic across a simulated cluster. *)

module Sim = Engine.Sim
open Ix_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
          Libix.default_handlers with
          Libix.on_connected = (fun _ ~ok -> results := ok :: !results);
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
  client.Netapi.Net_api.listen ~port:9 (fun ~thread:_ _conn ->
      {
        Netapi.Net_api.null_handlers with
        Netapi.Net_api.on_data = (fun _ data -> Buffer.add_string received data);
      });
  let lib = Ix_host.libix host 0 in
  let dp = Ix_host.dataplane host 0 in
  let before = ref 0 in
  Libix.run lib (fun () ->
      Libix.connect lib
        ~ip:(List.hd cluster.Harness.Cluster.client_ips)
        ~port:9
        {
          Libix.default_handlers with
          Libix.on_connected =
            (fun conn ~ok ->
              if ok then begin
                before := Dataplane.syscalls_processed dp;
                ignore (Libix.send conn "one ");
                ignore (Libix.send conn "two ");
                ignore (Libix.send conn "three")
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
          Libix.default_handlers with
          Libix.on_connected =
            (fun conn ~ok ->
              ignore ok;
              (* Even before establishment, queueing beyond the pending
                 byte policy is rejected. *)
              accepted := Libix.send conn (String.make (Libix.max_pending_send + 1) 'x'));
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
  client.Netapi.Net_api.listen ~port:9 (fun ~thread:_ _conn ->
      {
        Netapi.Net_api.null_handlers with
        Netapi.Net_api.on_data =
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
          Libix.default_handlers with
          Libix.on_connected =
            (fun conn ~ok ->
              check_bool "connected" true ok;
              let w0 = Gc.minor_words () in
              for _ = 1 to sends do
                ignore (Libix.send conn payload)
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
      Dataplane.syscall dp (Ix_api.Sys_close { handle = -7 }) ~on_result:(fun r ->
          record "first" r;
          ignore (Protection.enter_user prot);
          Dataplane.syscall dp (Ix_api.Sys_close { handle = -8 })
            ~on_result:(record "second");
          ignore (Protection.enter_kernel prot)));
  Sim.run ~until:(Engine.Sim_time.ms 1) cluster.Harness.Cluster.sim;
  match List.rev !log with
  | [ ("first", c1, r1); ("second", c2, r2) ] ->
      check_int "unknown handle rejected" (-1) r1;
      check_int "follow-up rejected too" (-1) r2;
      check_int "follow-up ran in the next cycle" (c1 + 1) c2
  | _ -> Alcotest.fail "expected exactly two syscall completions"

(* Event conditions staged during step 4 — the [Ev_dead]s of two
   [Sys_abort]s — are delivered together in the next user phase, in the
   order the aborts ran. *)
let test_abort_events_delivered_next_user_phase () =
  let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
  let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Harness.Cluster.server_ix in
  let dp = Ix_host.dataplane host 0 in
  let knocks = ref [] and deaths = ref [] and abort_cycle = ref (-1) in
  Dataplane.set_app dp (fun events n ->
      for i = 0 to n - 1 do
        match events.(i) with
        | Ix_api.Ev_knock { handle; _ } ->
            let cookie = 100 + List.length !knocks in
            Dataplane.syscall dp (Ix_api.Sys_accept { handle; cookie }) ~on_result:ignore;
            knocks := handle :: !knocks
        | Ix_api.Ev_dead { cookie; _ } ->
            deaths := (cookie, Dataplane.cycles_run dp, i) :: !deaths
        | _ -> ()
      done;
      if List.length !knocks = 2 && !abort_cycle < 0 then begin
        abort_cycle := Dataplane.cycles_run dp;
        List.iter
          (fun handle ->
            Dataplane.syscall dp (Ix_api.Sys_abort { handle }) ~on_result:ignore)
          (List.rev !knocks)
      end);
  Dataplane.listen dp ~port:7100;
  let client = List.hd cluster.Harness.Cluster.clients in
  client.Netapi.Net_api.run_app ~thread:0 (fun () ->
      for _ = 1 to 2 do
        client.Netapi.Net_api.connect ~thread:0 ~ip:cluster.Harness.Cluster.server_ip
          ~port:7100 Netapi.Net_api.null_handlers
      done);
  Sim.run ~until:(Engine.Sim_time.ms 5) cluster.Harness.Cluster.sim;
  check_bool "both connections accepted, then aborted" true (!abort_cycle >= 0);
  match List.rev !deaths with
  | [ (c1, cy1, i1); (c2, cy2, i2) ] ->
      Alcotest.(check (list int)) "abort order" [ 100; 101 ] [ c1; c2 ];
      check_int "first death in the next user phase" (!abort_cycle + 1) cy1;
      check_int "second in the same phase" cy1 cy2;
      check_int "adjacent in the event array" (i1 + 1) i2
  | l -> Alcotest.failf "expected two Ev_dead, got %d" (List.length l)

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
      ~config:Ixtcp.Tcb.default_config ~seed:1 ~profile ~hooks ~state:(fun _ -> ()) ()
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
          Alcotest.test_case "frame demux allocates nothing" `Quick
            test_process_frame_allocates_nothing;
        ] );
      ( "background",
        [ Alcotest.test_case "timesharing" `Quick test_background_threads_timeshare ] );
      ( "staging",
        [
          Alcotest.test_case "syscall from on_result runs next cycle" `Quick
            test_syscall_staged_in_on_result_runs_next_cycle;
          Alcotest.test_case "abort Ev_dead delivered next user phase" `Quick
            test_abort_events_delivered_next_user_phase;
        ] );
      ( "libix",
        [
          Alcotest.test_case "refused connect" `Quick test_libix_send_limit;
          Alcotest.test_case "write coalescing" `Quick test_libix_write_coalescing;
          Alcotest.test_case "pending send limit" `Quick test_libix_pending_send_limit;
          Alcotest.test_case "deep queue stays linear" `Quick test_libix_deep_queue;
          Alcotest.test_case "icmp ping" `Quick test_icmp_ping_roundtrip;
        ] );
    ]
