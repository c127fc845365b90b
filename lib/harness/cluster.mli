(** Testbed topologies (§5.1): one server and a set of client machines
    joined by a 48-port 10GbE cut-through switch.  The server attaches
    with one NIC port (10GbE rows) or four bonded ports with L3+L4
    hashing (4x10GbE rows); clients always attach with one port.

    Clients default to the Linux stack (as in the paper: "client
    machines always run Linux", except §5.2), with a cost profile
    scaled for the faster client Xeons. *)

type kind = Ix | Linux | Mtcp

type spec = {
  kind : kind;
  threads : int;
  nic_ports : int;
  ix : Ix_core.Dataplane.config;  (** IX only: the dataplane design choices *)
  cache : Ixhw.Cache_model.t option;  (** connection-count L3 model *)
  tcp_config : Ixtcp.Tcb.config option;  (** override the stack's TCP profile *)
}

val server_spec : ?threads:int -> ?nic_ports:int -> kind -> spec
(** Defaults: 8 threads, one NIC port, {!Ix_core.Dataplane.default_config},
    no cache model, the stack's own TCP profile. *)

type t = {
  sim : Engine.Sim.t;
  switch : Ixhw.Switch.t;
  server : Netapi.Net_api.stack;
  server_ip : Ixnet.Ip_addr.t;
  server_ix : Ix_core.Ix_host.t option;  (** for IX-specific inspection *)
  server_nics : Ixhw.Nic.t array;
  server_rx_links : Ixhw.Link.t list;  (** switch ports toward the server *)
  clients : Netapi.Net_api.stack list;
  client_ips : Ixnet.Ip_addr.t list;
  client_ix : Ix_core.Ix_host.t option list;
      (** per-client Ix hosts when [client_kind] is [Ix] (for direct
          dataplane access, e.g. the UDP API) *)
  client_nics : Ixhw.Nic.t list;  (** one NIC per client host, in host order *)
  client_rx_links : Ixhw.Link.t list;
      (** switch ports toward the clients; together with
          [server_rx_links] these cover every NIC-facing delivery path,
          which is where the fault injector installs its wire taps *)
  client_metrics : Ixtelemetry.Metrics.t list;
      (** per-client telemetry registries (the server's is reachable as
          [Netapi.Net_api.metrics server]) *)
}

val build :
  ?seed:int ->
  ?client_hosts:int ->
  ?client_threads:int ->
  ?client_kind:kind ->
  ?client_tcp_config:Ixtcp.Tcb.config ->
  ?server_ecn_threshold_bytes:int ->
  ?server_queue_limit_bytes:int ->
  server:spec ->
  unit ->
  t
(** Defaults: 6 client machines with 8 threads each, Linux stack with a
    fast-client cost profile.  [server_ecn_threshold_bytes] /
    [server_queue_limit_bytes] configure the AQM and finite buffering of
    the switch output port toward the server — the incast hot spot. *)

val now : t -> unit -> Engine.Sim_time.t

val server_rx_drops : t -> int
(** NIC descriptor-ring drops at the server (overload signal). *)

val server_link_stats : t -> int * int
(** (CE-marked, tail-dropped) frame counts at the switch ports toward
    the server. *)
