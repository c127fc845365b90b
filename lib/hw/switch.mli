(** A cut-through top-of-rack switch (the testbed's Quanta/Cumulus
    48x10GbE, §5.1).

    Ports are attached with their MAC address and an output [Link]
    toward the device.  Bonded port groups model the 4x10GbE server
    configuration: frames destined to a bond member are spread across
    the group with an L3+L4 flow hash, so one flow always uses one
    member link. *)

type t

val crossing_ns : int
(** Cut-through latency from ingress to egress (300 ns).  The switch
    forwards on input; whoever builds the links into the switch adds
    this to their propagation delay. *)

val create : ports:int -> unit -> t

val attach : t -> port:int -> mac:Ixnet.Mac_addr.t -> out:Link.t -> unit

val bond : t -> ports:int list -> unit
(** Declare a LAG over the given (already attached) ports. *)

val input : t -> ingress_port:int -> Frame.t -> unit
(** Offer a frame to the switch; it is forwarded (or flooded, for
    broadcast) on input — the crossing lives on the ingress link. *)

val forwarded : t -> int
val flooded : t -> int
