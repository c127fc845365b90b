(** TCP connection states (RFC 793 §3.2). *)

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
  | Time_wait

val to_int : t -> int
(** Dense code (0..10) for packed storage in the SoA TCB store. *)

val of_int : int -> t
(** Inverse of [to_int]; out-of-range codes map to [Closed]. *)

val is_synchronized : t -> bool
(** States in which the connection has a synchronized sequence space
    (Established and later). *)

val can_send_data : t -> bool
(** States in which new application data may be sent. *)

val can_receive_data : t -> bool

val to_string : t -> string
