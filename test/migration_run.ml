(* Two full rebalances under live echo load, shared by the elastic and
   determinism suites: shrink a 4-core IX dataplane to 2 cores mid-run,
   then grow back to 4, so every flow group migrates twice with frames
   in flight.  The snapshot pins the migration count, the parked-frame
   count and the cumulative retarget-to-handover latency; the message
   count proves traffic kept flowing. *)

module Scenario = Harness.Scenario
module Cluster = Harness.Cluster
module Control_plane = Ix_core.Control_plane
module Sim = Engine.Sim
module Sim_time = Engine.Sim_time

(* Returns the simulation events executed and the snapshot. *)
let run ~fast_path =
  let s = { Scenario.default with cores = 4; client_hosts = 2; client_threads = 4; fast_path } in
  let cluster = Scenario.cluster s in
  let host = Option.get cluster.Cluster.server_ix in
  let cp = Control_plane.create host in
  Apps.Echo.server cluster.Cluster.server ~port:7000 ~msg_size:64 ~app_ns:150;
  let stats = Apps.Echo.new_stats () in
  let stop_after = Sim_time.ms 6 in
  Scenario.spawn_echo cluster ~client_threads:s.client_threads stats ~at:0 ~spacing:2_000
    ~first:0 ~sessions:32 ~msg_size:64 ~msgs_per_conn:64 ~stop_after;
  List.iter
    (fun (ms, threads) ->
      Sim.at cluster.Cluster.sim (Sim_time.ms ms) (fun () ->
          Control_plane.set_elastic_threads cp threads))
    [ (2, 2); (4, 4) ];
  Sim.run ~until:stop_after cluster.Cluster.sim;
  ( Sim.events_executed cluster.Cluster.sim,
    Printf.sprintf "migrations=%d parked_frames=%d total_migration_ns=%d rss_retargets=%d msgs=%d"
      (Control_plane.migrations_completed cp)
      (Ixtelemetry.Metrics.counter_value (Ix_core.Ix_host.metrics host) "cp.parked_frames")
      (Control_plane.total_migration_ns cp)
      (Array.fold_left (fun acc nic -> acc + Ixhw.Nic.rss_retargets nic) 0 cluster.Cluster.server_nics)
      stats.Apps.Echo.messages )
