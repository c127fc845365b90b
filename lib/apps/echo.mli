(** The echo benchmark of §5.3 (the same benchmark MegaPipe and mTCP
    use): clients connect to one server port, send an [s]-byte message
    and wait for the [s]-byte echo, [n] round trips per connection,
    then close with a reset to avoid exhausting ephemeral ports.

    The server withholds its echo until the whole message has been
    received (like the paper's NetPIPE setup). *)

type client_stats = {
  latency : Ixtelemetry.Log_hist.t;  (** per-message round-trip, ns *)
  mutable messages : int;
  mutable connects : int;
  mutable connect_failures : int;
  mutable goodput_bytes : int;
}

val new_stats : unit -> client_stats

val server : Netapi.Net_api.stack -> port:int -> msg_size:int -> app_ns:int -> unit
(** Echo every complete [msg_size]-byte message, charging [app_ns] of
    application time per message. *)

val client :
  Netapi.Net_api.stack ->
  now:(unit -> Engine.Sim_time.t) ->
  thread:int ->
  server_ip:Ixnet.Ip_addr.t ->
  port:int ->
  msg_size:int ->
  msgs_per_conn:int ->
  stats:client_stats ->
  stop_after:Engine.Sim_time.t ->
  unit
(** Start one closed-loop client session on [thread]: connect, do
    [msgs_per_conn] synchronous RPCs, reset, reconnect — until the
    simulation clock passes [stop_after].  Call several times per
    thread for concurrency. *)
