(* The multi-core dataplane contract (DESIGN.md §8): RSS flow-group
   sharding, the no-drop migration protocol, and the elastic policy
   loop.

   - the NIC indirection table is the placement mechanism: rewrites
     are counted [rss_retarget] events, take effect at classification
     time only, and never move the tuple hash itself;
   - a flow group migrates under live echo load without stalling the
     traffic, and under adversarial wire conditions (drops, reorders,
     link flaps — the PR-5 fault plans) the chaos audit still balances
     every conservation ledger: no lost frame, no leaked mbuf, no
     connection without a close reason;
   - runs with elastic scaling active are bit-identical across domain
     pool widths (jobs=1 vs jobs=4), and a live two-rebalance migration
     reproduces its pinned snapshot, fast path on or off;
   - the sharded sim scales near-linearly with cores (the Fig. 3a
     shape, reduced sweep) and the elastic experiment walks the core
     count up into a burst and back while saving energy vs static
     provisioning. *)

module E = Harness.Experiments
module Scenario = Harness.Scenario
module Chaos = Harness.Chaos
module Cluster = Harness.Cluster
module FP = Ix_faults.Fault_plan
module Nic = Ixhw.Nic
module Ix_host = Ix_core.Ix_host
module Control_plane = Ix_core.Control_plane
module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Net_api = Netapi.Net_api

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- NIC indirection semantics ---------------- *)

let test_indirection_rewrite () =
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let nic = cluster.Cluster.server_nics.(0) in
  let g = 7 in
  let q0 = Nic.indirection_entry nic g in
  let q1 = (q0 + 1) mod Nic.queue_count nic in
  let before = Nic.rss_retargets nic in
  Nic.set_indirection_entry nic ~group:g ~queue:q0;
  check_int "same-value write is not a retarget" before (Nic.rss_retargets nic);
  Nic.set_indirection_entry nic ~group:g ~queue:q1;
  check_int "rewrite counts one rss_retarget" (before + 1)
    (Nic.rss_retargets nic);
  check_int "readback sees the new queue" q1 (Nic.indirection_entry nic g);
  (* Bulk rewrite counts only the entries that changed. *)
  let before = Nic.rss_retargets nic in
  Nic.set_indirection nic (fun group -> Nic.indirection_entry nic group);
  check_int "identity bulk rewrite counts nothing" before
    (Nic.rss_retargets nic);
  Alcotest.check_raises "group out of range"
    (Invalid_argument "Nic.set_indirection_entry: group") (fun () ->
      Nic.set_indirection_entry nic ~group:Nic.indirection_entries ~queue:0);
  Alcotest.check_raises "queue out of range"
    (Invalid_argument "Nic.set_indirection_entry: queue") (fun () ->
      Nic.set_indirection_entry nic ~group:0 ~queue:(Nic.queue_count nic))

let test_group_hash_placement_independent () =
  (* The unit of placement: a tuple's flow group depends only on the
     RSS key, so retargeting an entry moves where frames land, never
     which group they belong to. *)
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let nic = cluster.Cluster.server_nics.(0) in
  let src_ip = List.hd cluster.Cluster.client_ips in
  let dst_ip = cluster.Cluster.server_ip in
  let group =
    Nic.rss_group_of_tuple nic ~src_ip ~dst_ip ~src_port:40001 ~dst_port:7000
  in
  let q = Nic.indirection_entry nic group in
  Nic.set_indirection_entry nic ~group ~queue:((q + 1) mod Nic.queue_count nic);
  check_int "hash unchanged by the retarget" group
    (Nic.rss_group_of_tuple nic ~src_ip ~dst_ip ~src_port:40001 ~dst_port:7000)

(* ---------------- Control plane ---------------- *)

let test_control_plane_bounds () =
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Cluster.server_ix in
  let cp = Control_plane.create host in
  check_int "starts at capacity" 2 (Control_plane.active_threads cp);
  check_bool "shrink 2 -> 1" true (Control_plane.remove_core cp);
  Sim.run cluster.Cluster.sim;
  check_int "one live thread after shrink" 1 (Ix_host.live_threads host);
  check_bool "cannot shrink below one" false (Control_plane.remove_core cp);
  check_bool "grow 1 -> 2" true (Control_plane.add_core cp);
  Sim.run cluster.Cluster.sim;
  check_int "back at capacity" 2 (Ix_host.live_threads host);
  check_bool "cannot grow past capacity" false (Control_plane.add_core cp);
  check_int "nothing left in flight" 0 (Control_plane.migrations_in_flight cp)

let test_migrate_under_live_load () =
  (* Shrink to one core and grow back while echo sessions are running:
     traffic keeps flowing across both transitions, every migration
     completes, and the NIC counted the indirection rewrites. *)
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster =
    Cluster.build ~seed:7 ~client_hosts:2 ~client_threads:2
      ~client_kind:Cluster.Ix ~server ()
  in
  let sim = cluster.Cluster.sim in
  let host = Option.get cluster.Cluster.server_ix in
  let cp = Control_plane.create host in
  Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
  let stats = Apps.Echo.new_stats () in
  let stop = Sim_time.ms 6 in
  List.iteri
    (fun i client ->
      for thread = 0 to 1 do
        Apps.Echo.client client
          ~now:(Cluster.now cluster)
          ~thread ~server_ip:cluster.Cluster.server_ip ~port:7 ~msg_size:64
          ~msgs_per_conn:256 ~stats ~stop_after:stop
      done;
      ignore i)
    cluster.Cluster.clients;
  let mid = ref 0 in
  Sim.at sim (Sim_time.ms 2) (fun () ->
      mid := stats.Apps.Echo.messages;
      Control_plane.set_elastic_threads cp 1);
  Sim.at sim (Sim_time.ms 4) (fun () -> Control_plane.set_elastic_threads cp 2);
  Sim.run ~until:(Sim_time.ms 8) sim;
  Sim.run sim;
  check_bool "migrations completed" true
    (Control_plane.migrations_completed cp > 0);
  check_int "none stuck in flight" 0 (Control_plane.migrations_in_flight cp);
  let retargets =
    Array.fold_left
      (fun acc nic -> acc + Nic.rss_retargets nic)
      0 cluster.Cluster.server_nics
  in
  check_bool "rss retargets counted" true (retargets > 0);
  check_bool "traffic flowed before the swap" true (!mid > 0);
  check_bool "traffic kept flowing across the swaps" true
    (stats.Apps.Echo.messages > !mid);
  check_int "live threads back at capacity" 2 (Ix_host.live_threads host)

(* A server-side TIME_WAIT remnant moves with its flow group: after the
   migration RSS steers the tuple's frames to the destination thread,
   so a retransmitted FIN must meet the remnant there and be re-ACKed,
   not draw a flow-miss RST (and a forged RST would otherwise meet no
   RFC 1337 guard). *)
let test_time_wait_follows_group () =
  let server =
    {
      (Cluster.server_spec ~threads:2 Cluster.Ix) with
      Cluster.tcp_config =
        Some { Ix_host.ix_tcp_config with Ixtcp.Tcb.time_wait_ns = Sim_time.s 1 };
    }
  in
  let cluster = Cluster.build ~seed:7 ~client_hosts:1 ~client_threads:1 ~server () in
  let sim = cluster.Cluster.sim in
  let host = Option.get cluster.Cluster.server_ix in
  (* The server closes on the first byte, so it is the side left in
     TIME_WAIT once the client closes too. *)
  cluster.Cluster.server.Net_api.listen ~port:7 (fun ~thread:_ _ ->
      { Net_api.null_handlers with on_data = (fun c _ -> c.Net_api.close ()) });
  (List.hd cluster.Cluster.clients).Net_api.connect ~thread:0
    ~ip:cluster.Cluster.server_ip ~port:7
    {
      Net_api.null_handlers with
      on_connected = (fun c ~ok -> if ok then ignore (c.Net_api.send "x"));
      on_closed = (fun c _ -> c.Net_api.close ());
    };
  (* Keep a copy of the client's FIN as the server receives it. *)
  let fin = ref None in
  let is_fin b =
    Bytes.length b >= 54
    && Bytes.get_uint16_be b 12 = 0x0800
    && Bytes.get_uint8 b 23 = 6
    && Bytes.get_uint8 b 47 land 0x01 <> 0
  in
  List.iter
    (fun link ->
      Ixhw.Link.set_tap link
        (Some
           (fun f deliver ->
             let b = Ixhw.Frame.copy_bytes f in
             if is_fin b then fin := Some (link, b);
             deliver f)))
    cluster.Cluster.server_rx_links;
  Sim.run ~until:(Sim_time.ms 5) sim;
  let link, fin_bytes = Option.get !fin in
  List.iter (fun l -> Ixhw.Link.set_tap l None) cluster.Cluster.server_rx_links;
  let endpoint i = Ix_core.Dataplane.endpoint (Ix_host.dataplane host i) in
  let remnants i = Ixtcp.Tcp_endpoint.time_wait_count (endpoint i) in
  let src = if remnants 0 = 1 then 0 else 1 in
  let dst = 1 - src in
  check_int "one remnant on the source thread" 1 (remnants src);
  let group =
    Nic.rss_group_of_tuple cluster.Cluster.server_nics.(0)
      ~src_ip:(List.hd cluster.Cluster.client_ips)
      ~dst_ip:cluster.Cluster.server_ip
      ~src_port:(Bytes.get_uint16_be fin_bytes 34) ~dst_port:7
  in
  check_int "the group is homed on the source thread" src
    (Ix_host.group_home host group);
  let cp = Control_plane.create host in
  Control_plane.migrate_flow_group cp ~group ~dst;
  Sim.run ~until:(Sim_time.ms 10) sim;
  check_int "migration completed" 0 (Control_plane.migrations_in_flight cp);
  check_int "the group is homed on the destination" dst
    (Ix_host.group_home host group);
  check_int "remnant left the source" 0 (remnants src);
  check_int "remnant arrived on the destination" 1 (remnants dst);
  let rsts () =
    Ixtcp.Tcp_endpoint.rsts_sent (endpoint 0)
    + Ixtcp.Tcp_endpoint.rsts_sent (endpoint 1)
  in
  let rsts_before = rsts () in
  Ixhw.Link.send link (Ixhw.Frame.of_bytes fin_bytes);
  Sim.run ~until:(Sim_time.ms 15) sim;
  check_int "the FIN retransmit is re-ACKed on the destination" 1
    (Ixtelemetry.Metrics.snap_counter
       (Ixtelemetry.Metrics.snapshot (Ix_host.metrics host))
       (Printf.sprintf "tcp.%d.tw_reacks" dst));
  check_int "no stateless RST" rsts_before (rsts ())

(* Migration rekeys a connection: on the destination thread its TCB
   lives under a new handle, and libix must rebind the conn to it.  The
   server queues more bytes on each connection than its window takes,
   the connections' groups migrate while libix still holds the rest,
   and each connection is closed from the server once its bytes are
   acknowledged: every byte and every FIN must reach the client through
   the new handles, and every flow table must end empty.  The portable
   conn survives the move: each server callback, before and after it,
   receives the one [Net_api.conn] the acceptor got, with the same id. *)
let test_migration_rekeys_handles () =
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  (* The client's 16 KB receive window keeps each sendv short of the
     whole write. *)
  let client_tcp_config =
    { Baselines.Linux_stack.linux_tcp_config with Ixtcp.Tcb.rcv_buf = 16 * 1024 }
  in
  let cluster =
    Cluster.build ~seed:7 ~client_hosts:1 ~client_threads:1 ~client_tcp_config ~server ()
  in
  let sim = cluster.Cluster.sim in
  let host = Option.get cluster.Cluster.server_ix in
  let conns = 8 and total = 256 * 1024 in
  let accepted = ref [] and mismatches = ref 0 and moved_callbacks = ref 0 in
  cluster.Cluster.server.Net_api.listen ~port:7 (fun ~thread:_ conn ->
      accepted := conn :: !accepted;
      let id = conn.Net_api.id and home = conn.Net_api.home () in
      (* Every callback receives the accepted conn itself, with its id,
         also once a migration has moved it to another thread. *)
      let same c =
        if c != conn || c.Net_api.id <> id then incr mismatches;
        if c.Net_api.home () <> home then incr moved_callbacks
      in
      let acked = ref 0 in
      {
        Net_api.null_handlers with
        on_sent =
          (fun c n ->
            same c;
            acked := !acked + n;
            if !acked = total then c.Net_api.close ());
        on_closed = (fun c _ -> same c);
      });
  let received = Hashtbl.create 8 and fins = ref 0 in
  let client = List.hd cluster.Cluster.clients in
  for _ = 1 to conns do
    client.Net_api.connect ~thread:0 ~ip:cluster.Cluster.server_ip ~port:7
      {
        Net_api.null_handlers with
        on_data =
          (fun c data ->
            let id = c.Net_api.id in
            let n = Option.value (Hashtbl.find_opt received id) ~default:0 in
            Hashtbl.replace received id (n + String.length data));
        on_closed =
          (fun c _ ->
            incr fins;
            c.Net_api.close ());
      }
  done;
  Sim.run ~until:(Sim_time.ms 2) sim;
  check_int "every connection accepted" conns (List.length !accepted);
  let endpoint i = Ix_core.Dataplane.endpoint (Ix_host.dataplane host i) in
  let src = (List.hd !accepted).Net_api.home () in
  let dst = 1 - src in
  let group_of (conn : Net_api.conn) =
    let ip, port = conn.Net_api.peer in
    Nic.rss_group_of_tuple cluster.Cluster.server_nics.(0) ~src_ip:ip
      ~dst_ip:cluster.Cluster.server_ip ~src_port:port ~dst_port:7
  in
  let moving = List.filter (fun c -> c.Net_api.home () = src) !accepted in
  check_bool "some connections move" true (moving <> []);
  let payload = String.make total 'm' in
  let cp = Control_plane.create host in
  List.iter (fun c -> check_bool "write queued" true (c.Net_api.send payload)) !accepted;
  List.iter
    (fun group -> Control_plane.migrate_flow_group cp ~group ~dst)
    (List.sort_uniq compare (List.map group_of moving));
  (* Step to the handover: the moved TCBs have taken only a window's
     worth of their writes, so libix still queues the rest. *)
  let deadline = Sim.now sim + Sim_time.ms 1 in
  while
    (Control_plane.migrations_completed cp = 0 || Control_plane.migrations_in_flight cp > 0)
    && Sim.now sim < deadline
  do
    Sim.run ~until:(Sim.now sim + 1_000) sim
  done;
  check_int "migrations completed" 0 (Control_plane.migrations_in_flight cp);
  check_int "every moved connection on the destination" (List.length moving)
    (List.length (List.filter (fun c -> c.Net_api.home () = dst) moving));
  Ixtcp.Tcp_endpoint.iter_connections (endpoint dst) (fun tcb ->
      let taken =
        Ixtcp.Seqno.diff (Ixtcp.Tcb.snd_queue_seq tcb) (Ixtcp.Tcb.iss tcb + 1)
        + Ixtcp.Tcb.snd_queue_len tcb
      in
      check_bool "libix still queues writes at the handover" true (taken < total));
  Sim.run ~until:(Sim_time.ms 40) sim;
  check_int "every queued byte reached the client" (conns * total)
    (Hashtbl.fold (fun _ n acc -> acc + n) received 0);
  Hashtbl.iter (fun _ n -> check_int "per connection" total n) received;
  check_int "every close reached the client as a FIN" conns !fins;
  for i = 0 to 1 do
    check_int "flow table empty" 0 (Ixtcp.Tcp_endpoint.connection_count (endpoint i));
    check_int "no TIME_WAIT remnant left" 0 (Ixtcp.Tcp_endpoint.time_wait_count (endpoint i))
  done;
  check_int "host connection count back to zero" 0 (Ix_host.connections host);
  check_bool "moved connections' callbacks ran" true (!moved_callbacks > 0);
  check_int "every callback received its accepted conn" 0 !mismatches

(* ---------------- Migration under faults (qcheck) ---------------- *)

(* The PR-5 fault classes that stress a migration: frames destroyed on
   the wire, frames delayed past the indirection swap, links going dark
   mid-handover.  Rates stay moderate so traffic still flows; the chaos
   audit is the property. *)
let fault_gen =
  let open QCheck.Gen in
  let rate bound = map (fun k -> float_of_int k /. 1000.) (int_bound bound) in
  rate 150 >>= fun drop_rate ->
  rate 300 >>= fun reorder_rate ->
  int_range 1_000 200_000 >>= fun reorder_delay_ns ->
  oneof
    [
      return (0, 0);
      (int_range 400_000 1_000_000 >>= fun p ->
       int_range 20_000 150_000 >>= fun w -> return (p, w));
    ]
  >>= fun (flap_period_ns, flap_down_ns) ->
  int_bound 999 >>= fun seed ->
  return
    ( {
        FP.none with
        FP.drop_rate;
        reorder_rate;
        reorder_delay_ns;
        flap_period_ns;
        flap_down_ns;
      },
      seed )

let prop_migrate_under_faults =
  QCheck.Test.make
    ~name:"migration under drops/reorders/flaps: audit clean, no frame lost"
    ~count:10
    (QCheck.make
       ~print:(fun (spec, seed) ->
         Printf.sprintf "seed=%d plan=%s" seed (FP.to_string spec))
       fault_gen)
    (fun (spec, seed) ->
      let leg =
        Chaos.echo_leg ~seed ~spec ~soak_ms:3 ~server_threads:4
          ~elastic_steps:[ 2; 4; 1; 3 ] ()
      in
      if leg.Chaos.audit_failures <> [] then
        QCheck.Test.fail_reportf "audit failed:\n  %s"
          (String.concat "\n  " leg.Chaos.audit_failures)
      else if leg.Chaos.migrated = 0 then
        QCheck.Test.fail_reportf "no migration completed"
      else true)

(* ---------------- Determinism with scaling active ---------------- *)

let elastic_leg seed () =
  (Chaos.echo_leg ~seed ~soak_ms:3 ~server_threads:4 ~elastic_steps:[ 2; 4 ] ())
    .Chaos.snapshot

let test_jobs_bit_identical () =
  let thunks = [ elastic_leg 11; elastic_leg 12; elastic_leg 13 ] in
  let seq = Engine.Domain_pool.map_jobs ~jobs:1 thunks in
  let par = Engine.Domain_pool.map_jobs ~jobs:4 thunks in
  check_bool "jobs=4 bit-identical to jobs=1 with migrations active" true
    (seq = par)

(* The migration run's snapshot is pinned in golden/elastic.expected:
   it must reproduce with the same seed and with header prediction off,
   which is a pure optimization and so must not change what the
   migration measured. *)
let test_migration_slice_deterministic () =
  let pinned = snd (Migration_run.run ~fast_path:true) in
  check_string "same seed, byte-identical snapshot" pinned
    (snd (Migration_run.run ~fast_path:true));
  check_string "fast-path off, bit-identical snapshot" pinned
    (snd (Migration_run.run ~fast_path:false));
  Golden.record "migration slice" (pinned ^ "\n")

(* ---------------- Scaling shapes ---------------- *)

let test_fig3a_near_linear () =
  (* Reduced Fig. 3a sweep at tiny windows: 4 per-core dataplanes
     behind the RSS indirection table must land well past 2x one core. *)
  let point cores =
    (Scenario.run { Scenario.default with cores; scale = 0.05 }).ops_per_sec
  in
  let p1 = point 1 and p4 = point 4 in
  check_bool "1-core throughput positive" true (p1 > 0.);
  check_bool (Printf.sprintf "4 cores scale past 2x (got %.2fx)" (p4 /. p1)) true
    (p4 > 2. *. p1)

let test_elastic_scaling_smoke () =
  let r, _ = E.elastic_scaling ~output:E.default_output ~scale:0.05 in
  check_bool "controller sampled" true (r.E.el_samples <> []);
  check_bool "scaled past one core into the burst" true (r.E.el_peak_cores >= 2);
  check_bool "scaling was flow-group migration" true (r.E.el_migrations > 0);
  check_bool "messages flowed" true (r.E.el_msgs > 0);
  check_bool "elastic curve burns less than static provisioning" true
    (r.E.el_energy_j < r.E.el_static_energy_j)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Golden.run "elastic"
    [
      ( "indirection",
        [
          Alcotest.test_case "rewrite semantics + rss_retarget" `Quick
            test_indirection_rewrite;
          Alcotest.test_case "group hash placement-independent" `Quick
            test_group_hash_placement_independent;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "add/remove core bounds" `Quick
            test_control_plane_bounds;
          Alcotest.test_case "migrate under live load" `Quick
            test_migrate_under_live_load;
          Alcotest.test_case "TIME_WAIT follows its group" `Quick
            test_time_wait_follows_group;
          Alcotest.test_case "migration rekeys libix handles" `Quick
            test_migration_rekeys_handles;
        ] );
      ("migration-faults", [ qt prop_migrate_under_faults ]);
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 with elastic active" `Quick
            test_jobs_bit_identical;
          Alcotest.test_case "migration slice snapshot" `Quick
            test_migration_slice_deterministic;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "fig3a reduced sweep near-linear" `Quick
            test_fig3a_near_linear;
          Alcotest.test_case "elastic experiment smoke" `Quick
            test_elastic_scaling_smoke;
        ] );
    ]
