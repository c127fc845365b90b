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

(* Dense codes for the packed state field of a TCB row. *)
let to_int = function
  | Closed -> 0
  | Listen -> 1
  | Syn_sent -> 2
  | Syn_received -> 3
  | Established -> 4
  | Fin_wait_1 -> 5
  | Fin_wait_2 -> 6
  | Close_wait -> 7
  | Closing -> 8
  | Last_ack -> 9

let of_int = function
  | 1 -> Listen
  | 2 -> Syn_sent
  | 3 -> Syn_received
  | 4 -> Established
  | 5 -> Fin_wait_1
  | 6 -> Fin_wait_2
  | 7 -> Close_wait
  | 8 -> Closing
  | 9 -> Last_ack
  | _ -> Closed

let is_synchronized = function
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      true
  | Closed | Listen | Syn_sent | Syn_received -> false

let can_send_data = function
  | Established | Close_wait -> true
  | Closed | Listen | Syn_sent | Syn_received | Fin_wait_1 | Fin_wait_2
  | Closing | Last_ack ->
      false

let can_receive_data = function
  | Established | Fin_wait_1 | Fin_wait_2 -> true
  | Closed | Listen | Syn_sent | Syn_received | Close_wait | Closing | Last_ack ->
      false

let to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
