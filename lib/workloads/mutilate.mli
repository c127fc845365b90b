(** The mutilate-style load generator (§5.5, [35]): many client threads
    across multiple machines place an open-loop (Poisson) load of KV
    requests on one server at a target request rate, over a fixed set
    of persistent connections, pipelining at most 4 requests per
    connection; response latency is measured against the *intended*
    arrival time, so server-side queueing shows up in the tail exactly
    as the paper's throughput-vs-99th-percentile curves require. *)

type result = {
  target_rps : float;
  achieved_rps : float;
  avg_us : float;
  p95_us : float;
  p99_us : float;
  issued : int;
  completed : int;
}

val run :
  sim:Engine.Sim.t ->
  clients:Netapi.Net_api.stack list ->
  server_ip:Ixnet.Ip_addr.t ->
  port:int ->
  profile:Size_dist.profile ->
  connections:int ->
  target_rps:float ->
  ?warmup_ms:int ->
  ?duration_ms:int ->
  seed:int ->
  unit ->
  result
(** Establish [connections] spread round-robin over every
    (client, thread) pair, each with up to 4 requests in flight, warm
    up, measure for [duration_ms], and run the simulation to
    completion of the window. *)
