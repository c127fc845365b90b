module Mbuf = Ixmem.Mbuf

(* A frame is a view [buf.(off .. off+len-1)].  Two ownership modes:

   - [owner == no_owner]: the frame owns a private copy of the bytes
     (a snapshot).  Retain/release are no-ops; the GC reclaims it.
   - any other [owner]: a borrowed view straight over the sender's
     mbuf payload — the zero-copy TX path.  The frame holds one mbuf
     reference taken at [borrow_mbuf]; every hand-off on the wire
     (link delivery, switch forwarding) transfers that reference, and
     the final consumer releases it, returning the buffer to its pool.

   Mutating helpers ([with_ce]/[corrupt]/[truncate]) are copy-on-write:
   they never write through a borrowed view (the sender's buffer must
   stay pristine for retransmission); when they change anything they
   detach into an owned copy and consume the input reference.

   The owner is a sentinel mbuf rather than an option so that
   [borrow_mbuf], which runs once per transmitted frame, builds only
   the frame record itself.  The sentinel is never retained, released
   or written: every owner test is a physical comparison with it. *)
type t = {
  buf : Bytes.t;
  off : int;
  len : int;
  owner : Mbuf.t;
}

let no_owner = Mbuf.create ~size:0 ()

(* Inert placeholder for pooled storage slots (e.g. a link's pending
   delivery ring); never appears on the wire. *)
let empty = { buf = Bytes.empty; off = 0; len = 0; owner = no_owner }

let of_mbuf mbuf =
  (* Owned snapshot (the "DMA read" copy).  Cold/control paths and
     tests only — the per-packet TX path uses [borrow_mbuf]. *)
  {
    buf = Bytes.sub mbuf.Mbuf.buf mbuf.Mbuf.off mbuf.Mbuf.len;
    off = 0;
    len = mbuf.Mbuf.len;
    owner = no_owner;
  }

let borrow_mbuf mbuf =
  Mbuf.incref mbuf;
  { buf = mbuf.Mbuf.buf; off = mbuf.Mbuf.off; len = mbuf.Mbuf.len; owner = mbuf }

let retain t = if t.owner != no_owner then Mbuf.incref t.owner
let release t = if t.owner != no_owner then Mbuf.decref t.owner

let length t = t.len

let wire_bytes t =
  Ixnet.Ethernet.wire_bytes ~payload_len:(length t - Ixnet.Ethernet.header_size)

let byte t i = Char.code (Bytes.get t.buf (t.off + i))

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
   input reference — the copy-on-write step shared by the mutators. *)
let detach t ~keep =
  let buf = Bytes.sub t.buf t.off keep in
  release t;
  { buf; off = 0; len = keep; owner = no_owner }

let with_ce t =
  if length t < 34 || read_u16 t 12 <> 0x0800 then t
  else begin
    let tos = byte t 15 in
    if tos land 3 = 3 then t
    else begin
      let m = (byte t 14 lsl 8) lor tos in
      let hc = read_u16 t 24 in
      let t' = detach t ~keep:t.len in
      let tos' = tos lor 3 in
      Bytes.set_uint8 t'.buf 15 tos';
      (* RFC 1624 incremental checksum update for the changed 16-bit
         word (version/ihl . tos). *)
      let m' = (byte t 14 lsl 8) lor tos' in
      let sum = (lnot hc land 0xFFFF) + (lnot m land 0xFFFF) + m' in
      let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s in
      Bytes.set_uint16_be t'.buf 24 (lnot (fold sum) land 0xFFFF);
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
    Bytes.set_uint8 t'.buf pos (prev lxor mask);
    t'
  end

let truncate t ~keep =
  let n = length t in
  if keep >= n then t else detach t ~keep:(Int.max 1 keep)

let to_mbuf t ~into = Mbuf.append_bytes into t.buf t.off t.len

(* Snapshot/construct pair for the hostile-peer fault injector: it
   copies a passing frame's bytes, rewrites the TCP header into a
   forged variant, and puts the result on the wire as an owned frame.
   Cold path only — one copy per *injected* frame, never per packet. *)
let copy_bytes t = Bytes.sub t.buf t.off t.len

let of_bytes buf = { buf; off = 0; len = Bytes.length buf; owner = no_owner }
