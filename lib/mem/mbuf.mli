(** Message buffers.

    An mbuf is the storage object for network packets (§4.2 of the
    paper): a contiguous chunk of bookkeeping data plus an MTU-sized
    buffer, used for both receive and transmit.  Mbufs are reference
    counted so that zero-copy handoff to the application (read-only
    mapping in IX) can outlive the dataplane's run-to-completion cycle;
    the application returns them with [recv_done], which drops a
    reference. *)

type t = {
  buf : Bytes.t;  (** backing storage *)
  mutable off : int;  (** start of valid payload within [buf] *)
  mutable len : int;  (** length of valid payload *)
  mutable refcount : int;
  mutable on_free : t -> unit;  (** invoked when refcount reaches 0 *)
  id : int;
      (** unique id, for debugging and pool accounting only.  Allocated
          from a process-wide [Atomic.t], so values depend on domain
          interleaving when sims run in parallel — nothing behavioural
          may key off them. *)
}

val headroom : int
(** Bytes reserved at the front of a fresh mbuf so lower layers can
    prepend headers without copying. *)

val create : ?size:int -> unit -> t
(** A standalone mbuf (not pool-managed); [on_free] is a no-op.  [size]
    defaults to 2 KB, enough for an MTU-sized frame plus headroom; pools
    use the default. *)

val wrap : Bytes.t -> t
(** A standalone mbuf whose payload is all of [buf], with no headroom.
    Takes ownership: the caller must not mutate [buf] afterwards. *)

val reset : t -> unit
(** Restore a recycled mbuf to the fresh state: payload empty, offset at
    [headroom], refcount 1. *)

val incref : t -> unit

val decref : t -> unit
(** Drop a reference; at zero, calls [on_free].  It is a checked error
    to decref below zero. *)

val tailroom : t -> int

val append : t -> string -> unit
(** [append m s] copies [s] after the current payload.  Raises
    [Invalid_argument] if it does not fit. *)

val append_bytes : t -> Bytes.t -> int -> int -> unit
(** [append_bytes m src off len] copies a slice after the payload. *)

val prepend : t -> int -> int
(** [prepend m n] extends the payload [n] bytes at the front (into
    headroom) and returns the new start offset.  Raises
    [Invalid_argument] if there is not enough headroom. *)

val adjust : t -> int -> unit
(** [adjust m n] trims [n] bytes off the front of the payload (header
    consumption on RX). *)

val payload : t -> string
(** Copy of the current payload (test/debug convenience). *)
