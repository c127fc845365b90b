(** In-dataplane network security policy (§4.5).

    Because IX keeps the networking stack in protected ring 0, it can
    enforce policies user-level stacks cannot: firewall rules, access
    control lists, and bandwidth metering, applied to every packet
    before it reaches application code. *)

type action = Allow | Deny

type rule = {
  src_ip : Ixnet.Ip_addr.t option;  (** [None] = wildcard *)
  dst_port : int option;
  action : action;
}

type t

val create : unit -> t
(** No rules (everything is allowed) and no rate limit. *)

val add_rule : t -> rule -> unit
(** Rules are evaluated in insertion order; first match wins. *)

val clear_rules : t -> unit

val set_rate_limit : t -> bytes_per_sec:int option -> unit
(** Token-bucket metering of received traffic ([None] disables). *)

val admit : t -> now:int -> src_ip:Ixnet.Ip_addr.t -> dst_port:int -> len:int -> bool
(** Firewall + metering decision for one received packet. *)

val denied : t -> int
val metered_drops : t -> int
