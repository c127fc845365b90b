(** Toeplitz hashing for receive-side scaling (RSS), as computed by the
    Intel 82599 (§3, [43]).  Flow-consistent hashing of the TCP/IPv4
    4-tuple steers each flow to a single hardware queue; because the
    hash cannot be reversed, clients instead probe the ephemeral port
    range ([Port_alloc]) until the reply hashes where they want (§4.4). *)

val symmetric_key : string
(** A repeating 2-byte key making hash(src,dst) = hash(dst,src). *)

type lut
(** Per-byte lookup tables for the 12-byte TCPv4 tuple input,
    specialised to one key.  Immutable once built, hence safe to share
    across domains.  Whoever hashes owns its LUT — there is no
    process-global cache. *)

val lut_of_key : string -> lut
(** Build the table for an arbitrary 40-byte key. *)

val hash_tuple :
  ?lut:lut ->
  src_ip:Ixnet.Ip_addr.t ->
  dst_ip:Ixnet.Ip_addr.t ->
  src_port:int ->
  dst_port:int ->
  unit ->
  int
(** 32-bit Toeplitz hash of the TCPv4 12-byte input under [lut]
    (default: the table of the 40-byte Microsoft verification key, the
    key every {!Nic} hashes with). *)
