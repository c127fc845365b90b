(** Per-elastic-thread connection lookup.

    Each elastic thread owns its own flow table — flow-consistent RSS
    hashing guarantees each thread sees a disjoint subset of flows, so
    the table needs no synchronization (§4.4) and the flow-identifier
    namespace is per-thread, keeping the API commutative (§3). *)

type t

val create : store:Tcb.store -> t
(** The table stores each key's hash beside a generation-checked handle
    into [store] ([Tcb.flow_handle]); key comparison reads the store's
    columns only when the stored hash matches. *)

val add : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> Tcb.t -> unit

val find : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> Tcb.t
(** The connection's view, or the store's dead view ([Tcb.dead_view],
    which [Tcb.is_dead] recognises) when no live connection carries the
    tuple.  Allocates nothing, hit or miss. *)

val remove : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> unit

val count : t -> int

val capacity : t -> int
(** Slots currently allocated (a power of two).  Churn at a steady live
    population does not grow it. *)

val iter : t -> (Tcb.t -> unit) -> unit
