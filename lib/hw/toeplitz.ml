(* The hash XORs, for every set bit i of the input (MSB first), the
   32-bit window of the key starting at bit i.

   [hash_tuple] runs once per simulated packet (RSS steering), so it
   uses a per-byte lookup table: tab.(p).(v) is the XOR of the key
   windows for the set bits of byte value [v] at byte position [p],
   collapsing 8 window slides into one array read.  The table is built
   once per key (the NIC hashes with the default key's), and the tuple
   bytes are fed straight from the unboxed ints — no Bytes staging
   buffer. *)

let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
   \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
   \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let symmetric_key = String.init 40 (fun i -> if i land 1 = 0 then '\x6d' else '\x5a')

let key_bit key i =
  let byte = Char.code key.[(i / 8) mod String.length key] in
  (byte lsr (7 - (i mod 8))) land 1

(* 32-bit key window starting at bit [i]. *)
let key_window key i =
  let w = ref 0 in
  for b = 0 to 31 do
    w := (!w lsl 1) lor key_bit key (i + b)
  done;
  !w

(* Per-byte tables for the 12-byte TCPv4 tuple input.

   A LUT belongs to whoever hashes with its key and is passed in per
   call, so there is no process-global cache and no module-level
   mutable state to race when sims run in concurrent domains.  The
   table for the default key, which every [Nic] uses, is built eagerly
   once at module initialisation (immutable afterwards, hence
   domain-safe) and shared. *)
type lut = int array array

let lut_of_key key =
  Array.init 12 (fun p ->
      let windows = Array.init 8 (fun b -> key_window key ((8 * p) + b)) in
      Array.init 256 (fun v ->
          let acc = ref 0 in
          for b = 0 to 7 do
            if v land (0x80 lsr b) <> 0 then acc := !acc lxor windows.(b)
          done;
          !acc))

let default_lut = lut_of_key default_key

let hash_tuple ?(lut = default_lut) ~src_ip ~dst_ip ~src_port ~dst_port () =
  let tab = lut in
  tab.(0).((src_ip lsr 24) land 0xFF)
  lxor tab.(1).((src_ip lsr 16) land 0xFF)
  lxor tab.(2).((src_ip lsr 8) land 0xFF)
  lxor tab.(3).(src_ip land 0xFF)
  lxor tab.(4).((dst_ip lsr 24) land 0xFF)
  lxor tab.(5).((dst_ip lsr 16) land 0xFF)
  lxor tab.(6).((dst_ip lsr 8) land 0xFF)
  lxor tab.(7).(dst_ip land 0xFF)
  lxor tab.(8).((src_port lsr 8) land 0xFF)
  lxor tab.(9).(src_port land 0xFF)
  lxor tab.(10).((dst_port lsr 8) land 0xFF)
  lxor tab.(11).(dst_port land 0xFF)
