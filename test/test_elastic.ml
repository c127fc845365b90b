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
  ignore
    (Sim.at sim (Sim_time.ms 2) (fun () ->
         mid := stats.Apps.Echo.messages;
         Control_plane.set_elastic_threads cp 1));
  ignore
    (Sim.at sim (Sim_time.ms 4) (fun () ->
         Control_plane.set_elastic_threads cp 2));
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

(* The migration run's snapshot is pinned literally: it must reproduce
   with the same seed and with header prediction off, which is a pure
   optimization and so must not change what the migration measured. *)
let test_migration_slice_deterministic () =
  let pinned =
    "migrations=128 parked_frames=0 total_migration_ns=69504 rss_retargets=128 msgs=8959"
  in
  check_string "pinned snapshot" pinned (snd (Migration_run.run ~fast_path:true));
  check_string "same seed, byte-identical snapshot" pinned
    (snd (Migration_run.run ~fast_path:true));
  check_string "fast-path off, bit-identical snapshot" pinned
    (snd (Migration_run.run ~fast_path:false))

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
  Alcotest.run "elastic"
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
