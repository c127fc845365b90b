(** Per-elastic-thread tuple index: live connections and TIME_WAIT
    remnants.

    Each elastic thread owns its own flow table — flow-consistent RSS
    hashing guarantees each thread sees a disjoint subset of flows, so
    the table needs no synchronization (§4.4) and the flow-identifier
    namespace is per-thread, keeping the API commutative (§3).

    A tuple has at most one entry.  A remnant is what a connection
    leaves on entering TIME_WAIT: the key, the final sequence numbers
    and the quiet-period deadline, a few unboxed words instead of a
    parked TCB.  The table keeps no clock; the endpoint passes [now]. *)

type t

val create : store:Tcb.store -> t
(** The table stores each key's hash beside a generation-checked handle
    into [store] ([Tcb.flow_handle]) or a remnant's code; key comparison
    reads the key words of the connection's or the remnant's row only
    when the stored hash matches. *)

val add : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> Tcb.t -> unit
(** Replaces the tuple's entry, a remnant included. *)

val remove : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> unit
(** Drops the tuple's connection; a remnant stays. *)

val count : t -> int
(** Live connections, remnants not included. *)

val capacity : t -> int
(** Slots currently allocated (a power of two).  Churn at a steady live
    population does not grow it. *)

val iter : t -> (Tcb.t -> unit) -> unit
(** Every live connection, in slot order; remnants are skipped. *)

val lookup : t -> local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> int
(** The slot of the tuple's entry — a live connection or a remnant,
    expired or not — or a negative number.  One probe; allocates
    nothing.  The [slot] arguments below are its results, with no table
    update between. *)

val conn : t -> int -> Tcb.t
(** The connection at [slot]; the dead view for a miss or a remnant. *)

val is_remnant : t -> int -> bool
(** Whether [slot] holds a remnant ([false] for a miss). *)

val add_remnant :
  t ->
  local_port:int ->
  remote_ip:Ixnet.Ip_addr.t ->
  remote_port:int ->
  snd_nxt:Seqno.t ->
  rcv_nxt:Seqno.t ->
  deadline:int ->
  unit
(** Record the tuple's remnant in place of its connection (which
    leaves [count]) or of its previous remnant. *)

val remnant_snd_nxt : t -> int -> Seqno.t
(** Our final [snd_nxt] — the sequence number a TIME_WAIT re-ACK uses. *)

val remnant_rcv_nxt : t -> int -> Seqno.t
(** The peer's final sequence edge — the ack a TIME_WAIT re-ACK carries. *)

val refresh_remnant : t -> int -> deadline:int -> unit
(** Restart the quiet period. *)

val remove_remnant : t -> int -> unit
(** Drop the remnant before its deadline (a new SYN superseded it). *)

val expire_remnant : t -> int -> now:int -> bool
(** Lazy expiry: drop the remnant if its deadline is at or before
    [now], and say whether it was dropped. *)

val transfer_remnants :
  t -> dst:t -> now:int ->
  select:(local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> bool) -> unit
(** Flow-group migration: move every unexpired remnant whose tuple
    [select] accepts into [dst], sequence numbers and deadline kept. *)

val sweep : t -> now:int -> int
(** Drop every remnant whose deadline is at or before [now]; returns
    how many. *)

val remnant_count : t -> int
(** Live remnants, connections not included. *)
