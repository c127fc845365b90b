module Sim = Engine.Sim
module Nic = Ixhw.Nic
module Link = Ixhw.Link
module Switch = Ixhw.Switch
module Net_api = Netapi.Net_api
module Ix_host = Ix_core.Ix_host

type kind = Ix | Linux | Mtcp

type spec = {
  kind : kind;
  threads : int;
  nic_ports : int;
  batch_bound : int;
  batch_mode : Ix_core.Batch.mode;
  zero_copy : bool;
  polling : bool;
  cache : Ixhw.Cache_model.t option;
  pcie : Ixhw.Pcie_model.t option;
  tcp_config : Ixtcp.Tcb.config option;
}

let server_spec ?(threads = 8) ?(nic_ports = 1) ?(batch_bound = 64)
    ?(batch_mode = Ix_core.Batch.Fixed) ?(zero_copy = true) ?(polling = true)
    ?cache ?pcie ?tcp_config kind =
  {
    kind;
    threads;
    nic_ports;
    batch_bound;
    batch_mode;
    zero_copy;
    polling;
    cache;
    pcie;
    tcp_config;
  }

type t = {
  sim : Sim.t;
  switch : Switch.t;
  server : Net_api.stack;
  server_ip : Ixnet.Ip_addr.t;
  server_ix : Ix_host.t option;
  server_nics : Nic.t array;
  server_rx_links : Link.t list;  (** switch output ports toward the server *)
  clients : Net_api.stack list;
  client_ips : Ixnet.Ip_addr.t list;
  client_ix : Ix_host.t option list;  (** per client, when running IX *)
  client_nics : Nic.t list;  (** one NIC per client host, in host order *)
  client_rx_links : Link.t list;  (** switch output ports toward clients *)
  client_metrics : Ixtelemetry.Metrics.t list;  (** per-client registries *)
}

(* Wire latencies: ~1.2 us per link hop plus the switch's 300 ns
   cut-through, reproducing the testbed's ~3 us NIC-pair latency. *)
let propagation_ns = 1_450
let link_gbps = 10.

(* The client Xeons are faster (3.5 GHz vs 2.4) and run only the load
   generator; scale the Linux cost model down so the clients are never
   the bottleneck under test. *)
let fast_client_costs =
  {
    Baselines.Linux_stack.default_costs with
    Baselines.Linux_stack.softirq_pkt_ns = 900;
    wakeup_ns = 1_800;
    syscall_ns = 300;
    proto_tx_ns = 500;
    tx_pkt_ns = 300;
    irq_entry_ns = 500;
    itr_interval_ns = 8_000;
  }

(* Attach one host with [ports] NIC ports starting at switch port
   [first_port]; returns its NIC array. *)
let attach_host ?ecn_threshold_bytes ?queue_limit_bytes ?collect_rx_links
    ?metrics sim switch ~first_port ~ports ~queues ~host_id =
  Array.init ports (fun p ->
      let port = first_port + p in
      (* All member ports of a bonded host share one MAC (802.3ad); the
         switch spreads that MAC's traffic over the LAG by flow hash. *)
      let mac = Ixnet.Mac_addr.of_host_id (host_id * 8) in
      let to_switch =
        Link.create sim ~gbps:link_gbps ~propagation_ns
          ~deliver:(fun frame -> Switch.input switch ~ingress_port:port frame)
          ()
      in
      let nic =
        Nic.create sim ~mac ~queues ~ring_size:4096 ?metrics
          ~name:(Printf.sprintf "nic.%d" p) ~tx:to_switch ()
      in
      (* AQM/buffer limits, if any, live on the switch's output port
         toward this host — the incast hot spot. *)
      let to_host =
        Link.create sim ~gbps:link_gbps ~propagation_ns ?ecn_threshold_bytes
          ?queue_limit_bytes
          ~deliver:(fun frame -> Nic.receive nic frame)
          ()
      in
      (match collect_rx_links with
      | Some cell -> cell := to_host :: !cell
      | None -> ());
      Switch.attach switch ~port ~mac ~out:to_host;
      nic)

let make_stack sim ~spec ~host_id ~ip ~nics ~metrics ~seed ~linux_costs =
  match spec.kind with
  | Ix ->
      let options =
        {
          Ix_host.default_options with
          Ix_host.batch_bound = spec.batch_bound;
          batch_mode = spec.batch_mode;
          zero_copy = spec.zero_copy;
          polling = spec.polling;
          cache = spec.cache;
          pcie = spec.pcie;
          config =
            Option.value spec.tcp_config ~default:Ix_host.default_options.Ix_host.config;
        }
      in
      let host =
        Ix_host.create ~sim ~host_id ~ip ~nics ~threads:spec.threads ~options
          ~metrics ~seed ()
      in
      (Apps.Ix_adapter.stack_of_host host, Some host)
  | Linux ->
      ( Baselines.Linux_stack.create ~sim ~host_id ~ip ~nics ~threads:spec.threads
          ~costs:linux_costs
          ?config:spec.tcp_config ?cache:spec.cache ~metrics ~seed (),
        None )
  | Mtcp ->
      ( Baselines.Mtcp_stack.create ~sim ~host_id ~ip ~nics ~threads:spec.threads
          ?config:spec.tcp_config ~metrics ~seed (),
        None )

let build ?(seed = 42) ?(client_hosts = 6) ?(client_threads = 8)
    ?(client_kind = Linux) ?client_tcp_config ?server_ecn_threshold_bytes
    ?server_queue_limit_bytes ~server () =
  let sim = Sim.create ~seed () in
  let total_ports = server.nic_ports + client_hosts in
  let switch = Switch.create sim ~ports:total_ports () in
  (* Server: host id 1, switch ports [0, nic_ports). *)
  let server_ip = Ixnet.Ip_addr.of_host_id 1 in
  let rx_links = ref [] in
  (* One registry per host: the NICs and the stack share it, so a
     stack's [metrics] snapshot covers its hardware too. *)
  let server_metrics = Ixtelemetry.Metrics.create () in
  let server_nics =
    attach_host ?ecn_threshold_bytes:server_ecn_threshold_bytes
      ?queue_limit_bytes:server_queue_limit_bytes ~collect_rx_links:rx_links
      ~metrics:server_metrics sim switch ~first_port:0 ~ports:server.nic_ports
      ~queues:server.threads ~host_id:1
  in
  if server.nic_ports > 1 then
    Switch.bond switch ~ports:(List.init server.nic_ports Fun.id);
  let server_stack, server_ix =
    make_stack sim ~spec:server ~host_id:1 ~ip:server_ip ~nics:server_nics
      ~metrics:server_metrics ~seed
      ~linux_costs:Baselines.Linux_stack.default_costs
  in
  (* Clients: host ids 2.., one switch port each. *)
  let client_links = ref [] in
  let client_triples =
    List.init client_hosts (fun i ->
        let host_id = 2 + i in
        let ip = Ixnet.Ip_addr.of_host_id host_id in
        let metrics = Ixtelemetry.Metrics.create () in
        let nics =
          attach_host ~metrics ~collect_rx_links:client_links sim switch
            ~first_port:(server.nic_ports + i) ~ports:1 ~queues:client_threads
            ~host_id
        in
        let spec =
          {
            kind = client_kind;
            threads = client_threads;
            nic_ports = 1;
            batch_bound = 64;
            batch_mode = Ix_core.Batch.Fixed;
            zero_copy = true;
            polling = true;
            cache = None;
            pcie = None;
            tcp_config = client_tcp_config;
          }
        in
        let stack, ix =
          make_stack sim ~spec ~host_id ~ip ~nics ~metrics ~seed:(seed + host_id)
            ~linux_costs:fast_client_costs
        in
        (stack, ip, ix, nics.(0), metrics))
  in
  let clients = List.map (fun (s, _, _, _, _) -> s) client_triples in
  let client_ips = List.map (fun (_, ip, _, _, _) -> ip) client_triples in
  let client_ix = List.map (fun (_, _, ix, _, _) -> ix) client_triples in
  let client_nics = List.map (fun (_, _, _, nic, _) -> nic) client_triples in
  let client_metrics = List.map (fun (_, _, _, _, m) -> m) client_triples in
  {
    sim;
    switch;
    server = server_stack;
    server_ip;
    server_ix;
    server_nics;
    server_rx_links = !rx_links;
    clients;
    client_ips;
    client_ix;
    client_nics;
    client_rx_links = List.rev !client_links;
    client_metrics;
  }

let now t () = Sim.now t.sim

let server_rx_drops t =
  Array.fold_left (fun acc nic -> acc + Nic.rx_drops nic) 0 t.server_nics

let server_link_stats t =
  List.fold_left
    (fun (m, d) link -> (m + Link.marked link, d + Link.dropped link))
    (0, 0) t.server_rx_links
