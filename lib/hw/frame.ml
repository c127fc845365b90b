module Mbuf = Ixmem.Mbuf

(* A frame on the wire is an mbuf: the NIC DMAs straight out of the
   sender's buffer, so nothing is built per transmitted frame.  Two
   ownership modes, told apart by [on_free]:

   - borrowed: the sender's mbuf itself — the zero-copy TX path.  The
     wire holds one mbuf reference taken at [borrow_mbuf]; every
     hand-off on the wire (link delivery, switch forwarding) transfers
     that reference, and the final consumer releases it, returning the
     buffer to its pool.
   - owned: a standalone snapshot whose [on_free] is the [owned]
     sentinel.  Retain/release skip it, so its refcount stays 1 and the
     GC reclaims it.

   Mutating helpers ([with_ce]/[corrupt]/[truncate]) are copy-on-write:
   they never write through a borrowed frame (the sender's buffer must
   stay pristine for retransmission); when they change anything they
   detach into an owned copy and consume the input reference.  Releasing
   a pool mbuf may recycle it at once, which moves its [off]/[len], so a
   mutator reads everything it needs from its input before detaching. *)
type t = Mbuf.t

(* Never called: an owned frame is never decremented to zero.  The body
   differs from every other [on_free] so the physical test below cannot
   match a shared closure. *)
let owned (_ : Mbuf.t) = invalid_arg "Frame: owned snapshot freed"

let is_owned (t : t) = t.Mbuf.on_free == owned

let of_bytes buf =
  let t = Mbuf.wrap buf in
  t.Mbuf.on_free <- owned;
  t

(* Inert placeholder for pooled storage slots (e.g. a link's pending
   delivery ring); never appears on the wire. *)
let empty = of_bytes Bytes.empty

let length (t : t) = t.Mbuf.len

(* Owned snapshot (the "DMA read" copy).  Cold/control paths and tests
   only — the per-packet TX path uses [borrow_mbuf]. *)
let of_mbuf (m : Mbuf.t) = of_bytes (Bytes.sub m.Mbuf.buf m.Mbuf.off m.Mbuf.len)

let borrow_mbuf m =
  Mbuf.incref m;
  m

let retain t = if not (is_owned t) then Mbuf.incref t
let release t = if not (is_owned t) then Mbuf.decref t

let wire_bytes t =
  Ixnet.Ethernet.wire_bytes ~payload_len:(length t - Ixnet.Ethernet.header_size)

let byte (t : t) i = Char.code (Bytes.get t.Mbuf.buf (t.Mbuf.off + i))

let read_u16 t off = (byte t off lsl 8) lor byte t (off + 1)

(* Three fixed 16-bit reads: the switch and the NIC read the
   destination MAC of every frame, so no per-call helper closure. *)
let read_mac t off =
  (read_u16 t off lsl 32) lor (read_u16 t (off + 2) lsl 16) lor read_u16 t (off + 4)

let dst_mac t = read_mac t 0
let src_mac t = read_mac t 6

let read_ip t off =
  (byte t off lsl 24)
  lor (byte t (off + 1) lsl 16)
  lor (byte t (off + 2) lsl 8)
  lor byte t (off + 3)

(* The RSS 4-tuple reads are split into a validity test plus four
   fixed-offset field reads so the NIC's per-frame classify and the
   switch's LAG hash allocate nothing (an option-of-tuple here costs
   seven minor words on every frame on the wire). *)
let has_rss_tuple t =
  length t >= 38
  && read_u16 t 12 = 0x0800
  && (let protocol = byte t 23 in
      protocol = 6 || protocol = 17)
  && byte t 14 = 0x45

let rss_src_ip t = read_ip t 26
let rss_dst_ip t = read_ip t 30
let rss_src_port t = read_u16 t 34
let rss_dst_port t = read_u16 t 36

(* A simple mixing step for the 4-tuple; real switches use a vendor
   hash, only uniformity matters here. *)
let mix h v = (h lxor v) * 0x01000193 land max_int

let l3l4_hash t =
  if not (has_rss_tuple t) then 0
  else begin
    let x = mix 0x9E3779B9 (rss_src_ip t) in
    let x = mix x (rss_dst_ip t) in
    let x = mix x ((rss_src_port t lsl 16) lor 1) in
    let x = mix x ((rss_dst_port t lsl 16) lor 1) in
    (* Murmur-style avalanche so the low bits (used for [mod n]
       member selection) depend on every input bit. *)
    let x = (x lxor (x lsr 16)) * 0x85EBCA6B land max_int in
    let x = (x lxor (x lsr 13)) * 0xC2B2AE35 land max_int in
    x lxor (x lsr 16)
  end

let is_ce t =
  length t >= 34 && read_u16 t 12 = 0x0800 && byte t 15 land 3 = 3

(* Detach into an owned copy of the first [keep] bytes, consuming the
   input reference — the copy-on-write step shared by the mutators.
   The copy starts at offset 0, so its bytes are written by frame
   offset. *)
let detach (t : t) ~keep =
  let copy = of_bytes (Bytes.sub t.Mbuf.buf t.Mbuf.off keep) in
  release t;
  copy

let with_ce t =
  if length t < 34 || read_u16 t 12 <> 0x0800 then t
  else begin
    let tos = byte t 15 in
    if tos land 3 = 3 then t
    else begin
      let m = (byte t 14 lsl 8) lor tos in
      let hc = read_u16 t 24 in
      let t' = detach t ~keep:(length t) in
      let tos' = tos lor 3 in
      Bytes.set_uint8 t'.Mbuf.buf 15 tos';
      (* RFC 1624 incremental checksum update for the changed 16-bit
         word (version/ihl . tos). *)
      let m' = (m land 0xFF00) lor tos' in
      let sum = (lnot hc land 0xFFFF) + (lnot m land 0xFFFF) + m' in
      let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s in
      Bytes.set_uint16_be t'.Mbuf.buf 24 (lnot (fold sum) land 0xFFFF);
      t'
    end
  end

(* Fault-injection helpers: what a bad cable or a flaky PHY does to a
   frame.  Checksums are deliberately NOT fixed up — the point is that
   the receiver's RX validation must catch the damage. *)

let corrupt t ~pos ~mask =
  let n = length t in
  if n = 0 then t
  else begin
    let pos = pos mod n and mask = if mask land 0xFF = 0 then 0x01 else mask land 0xFF in
    let prev = byte t pos in
    let t' = detach t ~keep:n in
    Bytes.set_uint8 t'.Mbuf.buf pos (prev lxor mask);
    t'
  end

let truncate t ~keep =
  let n = length t in
  if keep >= n then t else detach t ~keep:(Int.max 1 keep)

let to_mbuf (t : t) ~into = Mbuf.append_bytes into t.Mbuf.buf t.Mbuf.off t.Mbuf.len

(* Snapshot/construct pair for the hostile-peer fault injector: it
   copies a passing frame's bytes, rewrites the TCP header into a
   forged variant, and puts the result on the wire as an owned frame.
   Cold path only — one copy per *injected* frame, never per packet. *)
let copy_bytes (t : t) = Bytes.sub t.Mbuf.buf t.Mbuf.off t.Mbuf.len
