type t = int

let broadcast = 0xFFFF_FFFF_FFFF
let zero = 0

(* 0x02 prefix marks a locally administered unicast address. *)
let of_host_id n = 0x0200_0000_0000 lor (n land 0xFFFF_FFFF)
let is_broadcast t = t = broadcast

let write buf off t =
  Bytes.set_uint8 buf off ((t lsr 40) land 0xFF);
  Bytes.set_uint8 buf (off + 1) ((t lsr 32) land 0xFF);
  Bytes.set_uint8 buf (off + 2) ((t lsr 24) land 0xFF);
  Bytes.set_uint8 buf (off + 3) ((t lsr 16) land 0xFF);
  Bytes.set_uint8 buf (off + 4) ((t lsr 8) land 0xFF);
  Bytes.set_uint8 buf (off + 5) (t land 0xFF)

let read buf off =
  (Bytes.get_uint8 buf off lsl 40)
  lor (Bytes.get_uint8 buf (off + 1) lsl 32)
  lor (Bytes.get_uint8 buf (off + 2) lsl 24)
  lor (Bytes.get_uint8 buf (off + 3) lsl 16)
  lor (Bytes.get_uint8 buf (off + 4) lsl 8)
  lor Bytes.get_uint8 buf (off + 5)
