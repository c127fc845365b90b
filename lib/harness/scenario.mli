(** One experiment configuration and its single runner.

    A scenario is a server configuration on the §5.1 testbed plus one
    traffic shape.  Every figure point and CLI run is a
    {!t} handed to {!run}; {!default} is the common starting point, so
    a scenario is written as the fields it changes. *)

type workload =
  | Echo of { msg_size : int; msgs_per_conn : int; sessions : int }
      (** closed-loop echo (Fig. 3): [sessions] client sessions, each
          [msgs_per_conn] round trips per connection *)
  | Netpipe of { size : int }
      (** NetPIPE ping-pong (Fig. 2); one client host running the
          server's stack *)
  | Conn_scaling of { conns : int; workers : int }
      (** [conns] live connections driven by [workers] closed-loop
          requesters (Fig. 4); the server gets the L3 cache model *)
  | Memcached of { profile : Workloads.Size_dist.profile; target_rps : float }
      (** one mutilate load point, 1476 connections (Figs. 5–6) *)
  | Incast of { senders : int; block : int; ecn : bool }
      (** [senders] IX hosts each ship [block] bytes to the server
          through a 64 KB switch buffer; [ecn] arms marking at 24 KB *)

type t = {
  kind : Cluster.kind;  (** server stack *)
  ports : int;  (** server NIC ports (1, or 4 bonded) *)
  cores : int;  (** server threads; with [elastic], the capacity *)
  client_hosts : int;  (** ignored by [Netpipe] and [Incast] *)
  client_threads : int;
  batch_bound : int;  (** IX batch bound B (the start value if adaptive) *)
  batch_mode : Ix_core.Batch.mode;
  zero_copy : bool;
  polling : bool;
  uncoalesced_pcie : bool;  (** one doorbell per replenished descriptor *)
  fast_path : bool;
      (** TCP header prediction on every stack; turning it off must
          change nothing but the hit counters *)
  elastic : bool;
      (** IX echo only: start on one live core and let the
          {!Ix_core.Elastic} loop scale up to [cores] *)
  tcp_config : Ixtcp.Tcb.config option;
      (** TCP profile for every stack, instead of each stack's own *)
  scale : float;  (** measurement-window multiplier (the CLIs' [IX_BENCH_SCALE]) *)
  workload : workload;
}

val default : t
(** IX, 1 port, 1 core, 6 client hosts × 8 threads, fixed B=64,
    zero-copy, polling, fast path, no elastic, stack TCP profiles,
    scale 1, 64 B echo with one message per connection and 768
    sessions. *)

module Result : sig
  type t = {
    ops_per_sec : float;
        (** echo and connection-scaling messages/s, memcached achieved
            requests/s, over the measurement window *)
    conns_per_sec : float;  (** echo *)
    goodput_gbps : float;  (** echo, NetPIPE, incast (0 if unfinished) *)
    p99_us : float;  (** echo round trip, memcached request *)
    avg_us : float;  (** mean latency: memcached request, NetPIPE one-way *)
    ce_marks : int;  (** incast: CE marks at the server's switch port *)
    tail_drops : int;  (** incast: tail drops there *)
    fast_hits : int;  (** header-prediction deliveries, every stack *)
    slow_hits : int;  (** segments that took the full TCP input path *)
    mean_batch : float;  (** IX: mean admitted batch over all threads *)
    mean_tx_burst : float;
    batch_bound_end : int;  (** IX: largest bound in effect at the end *)
    kernel_share : float;
    cpu_util : float;  (** echo: server busy share over the window *)
    events : int;  (** sim events executed *)
    metrics : Ixtelemetry.Metrics.snapshot;  (** the server's, at the end *)
    tracers : Ixtelemetry.Tracer.t list;  (** IX server only *)
  }
  (** Fields a workload does not measure are [nan] (or 0). *)
end

val run : t -> Result.t
(** Build a fresh cluster and run the scenario to completion.  A pure
    function of the scenario: the same [t] gives a structurally equal
    result in any domain. *)

val cluster : t -> Cluster.t
(** The scenario's testbed, for runners that drive it themselves. *)

val scaled_ms : t -> int -> int
(** [ms] scaled by [scale], at least 2. *)

val spawn_echo :
  Cluster.t ->
  client_threads:int ->
  Apps.Echo.client_stats ->
  at:Engine.Sim_time.t ->
  spacing:Engine.Sim_time.t ->
  first:int ->
  sessions:int ->
  msg_size:int ->
  msgs_per_conn:int ->
  stop_after:Engine.Sim_time.t ->
  unit
(** Start echo sessions [first .. first+sessions-1], one every
    [spacing] from [at], spread round-robin over the client hosts and
    their [client_threads]. *)

val kind_name : Cluster.kind -> string
(** "IX", "Linux" or "mTCP". *)
