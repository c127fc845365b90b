(** The RCU-protected ARP table shared by all elastic threads (§4.4):
    reads are coherence-free snapshots; the rare updates (a host seen
    for the first time) go through [Rcu.update].  Packets that miss are
    parked per destination until the reply lands. *)

type t

val create : Rcu.manager -> t

val lookup : t -> Ixnet.Ip_addr.t -> Ixnet.Mac_addr.t option

val find : t -> Ixnet.Ip_addr.t -> Ixnet.Mac_addr.t
(** [lookup] without the option, for the per-frame TX path: allocates
    nothing, and raises [Not_found] on a miss. *)

val learn : t -> Ixnet.Ip_addr.t -> Ixnet.Mac_addr.t -> unit
(** Insert/refresh a mapping (on ARP request or reply reception). *)

val park : t -> Ixnet.Ip_addr.t -> Ixmem.Mbuf.t -> unit
(** Hold a frame awaiting resolution; bounded to 8 frames per IP
    (excess is dropped, mirroring real stacks). *)

val take_parked : t -> Ixnet.Ip_addr.t -> Ixmem.Mbuf.t list
(** Drain frames parked for a now-resolved address, in arrival order. *)

val entries : t -> int
val retired_versions : t -> int
(** How many superseded table versions RCU has reclaimed (observability
    for tests). *)

val parked_count : t -> int
(** Frames currently parked awaiting resolution — the chaos audit's
    leak check expects this to drain to zero at quiescence. *)
