(** The mTCP baseline (§2.3/§5.1): a user-level TCP stack with
    dedicated per-core stack threads that exchange *batches* of events
    and commands with application threads at coarse granularity.

    The model captures mTCP's defining trade-off: kernel bypass and
    aggressive batching give low per-packet cost (high throughput), but
    events sit in the exchange queues for up to a batching interval in
    each direction, inflating latency (Fig. 2's mTCP curve).  Like the
    original, it cannot drive bonded NICs, and it dedicates hardware
    threads to stack processing regardless of load. *)

val mtcp_tcp_config : Ixtcp.Tcb.config

val create :
  sim:Engine.Sim.t ->
  host_id:int ->
  ip:Ixnet.Ip_addr.t ->
  nics:Ixhw.Nic.t array ->
  threads:int ->
  ?config:Ixtcp.Tcb.config ->
  ?metrics:Ixtelemetry.Metrics.t ->
  seed:int ->
  unit ->
  Netapi.Net_api.stack
(** Raises [Invalid_argument] when given more than one NIC: mTCP does
    not support NIC bonding (§5.1), so 4x10GbE rows are absent from the
    paper's mTCP results too.

    [metrics] is the telemetry registry the stack publishes through
    [Net_api.stack.metrics]: per-core [mtcp.<i>.{rounds,pkts,api_calls}]
    counters, the shared TCP endpoint counters and the
    [kernel_share]/[busy_ns] probe gauges.  A private registry is
    created when omitted. *)
