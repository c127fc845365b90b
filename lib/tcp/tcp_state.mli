(** TCP connection states (RFC 793 §3.2).  A connection leaves
    [Fin_wait_2] or [Closing] for TIME_WAIT by releasing its TCB: the
    quiet period is kept by a {!Flow_table} remnant, so no
    TCB is ever in that state. *)

type t =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack

val to_int : t -> int
(** Dense code (0..9) for the packed state field of a TCB row. *)

val of_int : int -> t
(** Inverse of [to_int]; out-of-range codes map to [Closed]. *)

val is_synchronized : t -> bool
(** States in which the connection has a synchronized sequence space
    (Established and later). *)

val can_send_data : t -> bool
(** States in which new application data may be sent. *)

val can_receive_data : t -> bool

val to_string : t -> string
