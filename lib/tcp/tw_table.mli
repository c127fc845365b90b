(** Compact TIME_WAIT remnant table (open addressing, unboxed columns).

    A connection entering TIME_WAIT releases its full TCB immediately;
    the 4-tuple key, final sequence numbers and quiet-period deadline
    live here (~40 B instead of a parked TCB).  The endpoint's demux consults it before the flow
    table whenever it is non-empty. *)

type t

val create : unit -> t

val add :
  t ->
  local_port:int ->
  remote_ip:Ixnet.Ip_addr.t ->
  remote_port:int ->
  snd_nxt:Seqno.t ->
  rcv_nxt:Seqno.t ->
  deadline:int ->
  unit
(** Record a remnant (replacing any live one for the same tuple). *)

val find_slot :
  t ->
  now:int ->
  local_port:int ->
  remote_ip:Ixnet.Ip_addr.t ->
  remote_port:int ->
  int
(** Slot of the live remnant for the tuple, or -1.  Expired occupants
    encountered are reaped in place (lazy expiry).  Allocation-free. *)

val fin_snd_nxt : t -> int -> Seqno.t
(** Our final [snd_nxt] — the sequence number a TIME_WAIT re-ACK uses. *)

val fin_rcv_nxt : t -> int -> Seqno.t
(** The peer's final sequence edge — the ack a TIME_WAIT re-ACK carries. *)

val refresh : t -> int -> deadline:int -> unit
(** Restart the quiet period (a retransmitted FIN arrived). *)

val remove : t -> int -> unit
(** Early recycle (a legitimate new SYN superseded the remnant). *)

val transfer :
  t -> dst:t -> now:int ->
  select:(local_port:int -> remote_ip:Ixnet.Ip_addr.t -> remote_port:int -> bool) -> unit
(** Flow-group migration: move every live remnant whose tuple [select]
    accepts into [dst], sequence numbers and deadline unchanged. *)

val sweep : t -> now:int -> int
(** Reap every expired remnant; returns the number removed. *)

val count : t -> int

val capacity : t -> int
(** Slots currently allocated (a power of two).  Churn at a steady
    remnant population does not grow it. *)
