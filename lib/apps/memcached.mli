(** A memcached-style in-memory key-value store (§5.5): a hash table
    behind the KV protocol, with the application-level characteristics
    that shape the paper's results — a per-request compute cost and a
    *global cache lock* whose contention grows with core count and
    write share (the paper: "The improvement for ETC is lower due to
    the increased lock contention within the application itself, in
    particular because it has a higher write frequency", and contention
    is "the reason that IX cannot provide throughput improvements with
    more than 6 cores").

    The store itself is real: GETs return previously SET values. *)

type t

val server :
  Netapi.Net_api.stack ->
  now:(unit -> Engine.Sim_time.t) ->
  port:int ->
  unit ->
  t

val insert : t -> string -> string -> unit
(** Dataset preload (bypasses the wire, used before measurement). *)

val items : t -> int
val gets : t -> int
val sets : t -> int
val hits : t -> int
