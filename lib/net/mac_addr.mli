(** 48-bit Ethernet MAC addresses, stored in the low bits of an [int]. *)

type t = int

val broadcast : t
val zero : t

val of_host_id : int -> t
(** Deterministic locally-administered address for simulated host [n]. *)

val is_broadcast : t -> bool

val write : Bytes.t -> int -> t -> unit
(** Serialize 6 bytes big-endian at the given offset. *)

val read : Bytes.t -> int -> t
