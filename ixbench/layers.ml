(* Cumulative per-layer counters of a cluster, read only through the
   layers' public interfaces: the IX host's dataplanes, batchers,
   tracers and TCP endpoints, the NICs, and the stacks' metrics
   registries.  [delta] turns two readings into the counters of the
   measured phase. *)

module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Wheel = Timerwheel.Timer_wheel

type reading = (string * float) list

let sum_counters snapshot ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter n when String.ends_with ~suffix name -> acc + n
      | _ -> acc)
    0 snapshot

(* The cycle stages under the ledger's metric names. *)
let stage_names =
  [
    (Tracer.Rx_driver, "rx_driver"); (Tracer.Tcp_in, "tcp_in");
    (Tracer.Event_delivery, "event_delivery"); (Tracer.User_phase, "user_phase");
    (Tracer.Syscall, "syscall"); (Tracer.Timer, "timer"); (Tracer.Tx_driver, "tx_driver");
    (Tracer.Crossing, "crossing");
  ]

let read (c : Harness.Cluster.t) : reading =
  let f = float_of_int in
  let server_snap = c.Harness.Cluster.server.Netapi.Net_api.metrics () in
  let client_snaps = List.map Metrics.snapshot c.Harness.Cluster.client_metrics in
  let clients ~suffix =
    List.fold_left (fun acc s -> acc + sum_counters s ~suffix) 0 client_snaps
  in
  let nic_sum nics g = Array.fold_left (fun acc n -> acc + g n) 0 nics in
  let client_nics = Array.of_list c.Harness.Cluster.client_nics in
  let host_rows =
    match c.Harness.Cluster.server_ix with
    | None -> []
    | Some host ->
        let dps = List.init (Ix_core.Ix_host.thread_count host) (Ix_core.Ix_host.dataplane host) in
        let dsum g = List.fold_left (fun acc dp -> acc + g dp) 0 dps in
        let bsum g = dsum (fun dp -> g (Ix_core.Dataplane.batcher dp)) in
        let esum g = dsum (fun dp -> g (Ix_core.Dataplane.endpoint dp)) in
        let wheels =
          List.map
            (fun dp ->
              Wheel.stats (Ixtcp.Tcp_endpoint.env (Ix_core.Dataplane.endpoint dp)).Ixtcp.Tcb.wheel)
            dps
        in
        let wsum g = List.fold_left (fun acc s -> acc + g s) 0 wheels in
        let stages =
          List.map
            (fun (stage, name) ->
              let ns =
                List.fold_left
                  (fun acc tr ->
                    List.fold_left
                      (fun acc (s, ns, _) -> if s = stage then acc + ns else acc)
                      acc (Tracer.breakdown tr))
                  0 (Ix_core.Ix_host.tracers host)
              in
              ("stage." ^ name, f ns))
            stage_names
        in
        [
          ("cycles", f (dsum Ix_core.Dataplane.cycles_run));
          ("syscalls", f (dsum Ix_core.Dataplane.syscalls_processed));
          ("batch.packets", f (bsum Ix_core.Batch.packets));
          ("batch.cycles", f (bsum Ix_core.Batch.cycles));
          ("batch.tx_packets", f (bsum Ix_core.Batch.tx_packets));
          ("batch.tx_bursts", f (bsum Ix_core.Batch.tx_bursts));
          ("tcp.fast", f (esum Ixtcp.Tcp_endpoint.fast_path_hits));
          ("tcp.slow", f (esum Ixtcp.Tcp_endpoint.slow_path_hits));
          ("tcp.time_wait_live", f (esum Ixtcp.Tcp_endpoint.time_wait_count));
          ("tcp.cookies_sent", f (esum Ixtcp.Tcp_endpoint.syn_cookies_sent));
          ("tcp.cookies_validated", f (esum Ixtcp.Tcp_endpoint.syn_cookies_validated));
          ("wheel.fired", f (wsum (fun s -> s.Wheel.fired)));
          ("wheel.cascades", f (wsum (fun s -> s.Wheel.cascades)));
          ("wheel.max_armed", f (List.fold_left (fun acc s -> max acc s.Wheel.max_armed) 0 wheels));
        ]
        @ stages
  in
  [
    ("sim.events", f (Engine.Sim.events_executed c.Harness.Cluster.sim));
    ("busy_ns", f (Netapi.Net_api.busy_ns c.Harness.Cluster.server));
    ("kernel_share", Netapi.Net_api.kernel_share c.Harness.Cluster.server);
    ("tcp.rx_segs", f (sum_counters server_snap ~suffix:".rx_segs"));
    ("tcp.client.rx_segs", f (clients ~suffix:".rx_segs"));
    ("nic.server.rx_frames", f (nic_sum c.Harness.Cluster.server_nics Ixhw.Nic.rx_frames));
    ("nic.client.rx_frames", f (nic_sum client_nics Ixhw.Nic.rx_frames));
    ( "nic.rx_drops",
      f (nic_sum c.Harness.Cluster.server_nics Ixhw.Nic.rx_drops
         + nic_sum client_nics Ixhw.Nic.rx_drops) );
    ("nic.server.doorbells", f (sum_counters server_snap ~suffix:".doorbells"));
    ("linux.irqs", f (clients ~suffix:".irqs"));
    ("linux.wakeups", f (clients ~suffix:".wakeups"));
  ]
  @ host_rows

(* High-water marks and live levels are not differenced. *)
let levels = [ "wheel.max_armed"; "tcp.time_wait_live"; "kernel_share" ]

let delta ~(before : reading) ~(after : reading) : reading =
  List.map
    (fun (k, v) ->
      if List.mem k levels then (k, v)
      else (k, v -. Option.value (List.assoc_opt k before) ~default:0.))
    after

let get (r : reading) k = Option.value (List.assoc_opt k r) ~default:0.
