module Mbuf = Ixmem.Mbuf

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable syn : bool;
  mutable ack_flag : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable psh : bool;
  mutable ece : bool;
  mutable cwr : bool;
  mutable window : int;
  mutable mss : int option;
  mutable wscale : int option;
  mutable sack : (int * int) option;
  mutable payload_off : int;
  mutable payload_len : int;
}

let header_size = 20

let scratch () =
  {
    src_port = 0;
    dst_port = 0;
    seq = 0;
    ack = 0;
    syn = false;
    ack_flag = false;
    fin = false;
    rst = false;
    psh = false;
    ece = false;
    cwr = false;
    window = 0;
    mss = None;
    wscale = None;
    sack = None;
    payload_off = 0;
    payload_len = 0;
  }

let options_size t =
  let mss = match t.mss with Some _ -> 4 | None -> 0 in
  let ws = match t.wscale with Some _ -> 3 | None -> 0 in
  (* One SACK block (kind 5, len 10) — the D-SACK report slot. *)
  let sack = match t.sack with Some _ -> 10 | None -> 0 in
  (* Round up to a 4-byte boundary with NOP/EOL padding. *)
  (mss + ws + sack + 3) land lnot 3

let flags_byte t =
  (if t.fin then 0x01 else 0)
  lor (if t.syn then 0x02 else 0)
  lor (if t.rst then 0x04 else 0)
  lor (if t.psh then 0x08 else 0)
  lor (if t.ack_flag then 0x10 else 0)
  lor (if t.ece then 0x40 else 0)
  lor if t.cwr then 0x80 else 0

let prepend mbuf ~src ~dst t =
  let opt_len = options_size t in
  let hdr_len = header_size + opt_len in
  let seg_len = mbuf.Mbuf.len + hdr_len in
  let off = Mbuf.prepend mbuf hdr_len in
  let buf = mbuf.Mbuf.buf in
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_int32_be buf (off + 4) (Int32.of_int (t.seq land 0xFFFFFFFF));
  Bytes.set_int32_be buf (off + 8) (Int32.of_int (t.ack land 0xFFFFFFFF));
  Bytes.set_uint8 buf (off + 12) ((hdr_len / 4) lsl 4);
  Bytes.set_uint8 buf (off + 13) (flags_byte t);
  Bytes.set_uint16_be buf (off + 14) (t.window land 0xFFFF);
  Bytes.set_uint16_be buf (off + 16) 0 (* checksum placeholder *);
  Bytes.set_uint16_be buf (off + 18) 0 (* urgent pointer *);
  (* Options. *)
  let pos = ref (off + header_size) in
  (match t.mss with
  | Some mss ->
      Bytes.set_uint8 buf !pos 2;
      Bytes.set_uint8 buf (!pos + 1) 4;
      Bytes.set_uint16_be buf (!pos + 2) mss;
      pos := !pos + 4
  | None -> ());
  (match t.wscale with
  | Some shift ->
      Bytes.set_uint8 buf !pos 3;
      Bytes.set_uint8 buf (!pos + 1) 3;
      Bytes.set_uint8 buf (!pos + 2) shift;
      pos := !pos + 3
  | None -> ());
  (match t.sack with
  | Some (left, right) ->
      Bytes.set_uint8 buf !pos 5;
      Bytes.set_uint8 buf (!pos + 1) 10;
      Bytes.set_int32_be buf (!pos + 2) (Int32.of_int (left land 0xFFFFFFFF));
      Bytes.set_int32_be buf (!pos + 6) (Int32.of_int (right land 0xFFFFFFFF));
      pos := !pos + 10
  | None -> ());
  while !pos < off + hdr_len do
    Bytes.set_uint8 buf !pos 1 (* NOP *);
    incr pos
  done;
  let init =
    Checksum.pseudo_header_sum ~src ~dst
      ~protocol:(Ipv4_packet.protocol_code Ipv4_packet.Tcp)
      ~length:seg_len
  in
  let csum = Checksum.finish (Checksum.ones_complement_sum buf ~off ~len:seg_len ~init) in
  Bytes.set_uint16_be buf (off + 16) csum

(* [Some shift] for every window-scale byte, built once: a decoded SYN
   takes its box from here instead of allocating one. *)
let wscale_boxes = Array.init 256 (fun shift -> Some shift)
let some_wscale shift = wscale_boxes.(shift)

let u32 buf pos = Int32.to_int (Bytes.get_int32_be buf pos) land 0xFFFFFFFF

(* Scan the options in [buf.[pos, limit)] into [t]'s [wscale] and
   [sack], which the caller has cleared, and return the last MSS seen
   or -1.  A top-level loop with every value a parameter, so a segment
   with options allocates no closure, ref or result tuple. *)
let rec scan_options buf t pos limit mss =
  if pos >= limit then mss
  else
    match Bytes.get_uint8 buf pos with
    | 0 -> mss (* end of options *)
    | 1 -> scan_options buf t (pos + 1) limit mss (* NOP *)
    | kind ->
        if pos + 1 >= limit then mss
        else begin
          let olen = Bytes.get_uint8 buf (pos + 1) in
          if olen < 2 || pos + olen > limit then mss
          else begin
            let mss =
              match kind with
              | 2 when olen = 4 -> Bytes.get_uint16_be buf (pos + 2)
              | 3 when olen = 3 ->
                  t.wscale <- wscale_boxes.(Bytes.get_uint8 buf (pos + 2));
                  mss
              | 5 when olen >= 10 ->
                  (* First SACK block only — the D-SACK slot. *)
                  t.sack <- Some (u32 buf (pos + 2), u32 buf (pos + 6));
                  mss
              | _ -> mss
            in
            scan_options buf t (pos + olen) limit mss
          end
        end

(* Allocation-free decode: fills a caller-owned scratch record.  The
   scratch is only valid until the next [decode_into] on it — nothing
   downstream may retain it across packets (see DESIGN.md, "receive
   fast path").  Returns [false] (scratch contents unspecified) on a
   malformed or corrupt segment. *)
let decode_into mbuf ~src ~dst t =
  mbuf.Mbuf.len >= header_size
  && begin
       let off = mbuf.Mbuf.off in
       let buf = mbuf.Mbuf.buf in
       let data_off = (Bytes.get_uint8 buf (off + 12) lsr 4) * 4 in
       data_off >= header_size
       && data_off <= mbuf.Mbuf.len
       &&
       let seg_len = mbuf.Mbuf.len in
       let init =
         Checksum.pseudo_header_sum ~src ~dst
           ~protocol:(Ipv4_packet.protocol_code Ipv4_packet.Tcp)
           ~length:seg_len
       in
       Checksum.verify buf ~off ~len:seg_len ~init
       && begin
            let flags = Bytes.get_uint8 buf (off + 13) in
            (* Options appear on SYNs only in practice, and parse
               straight into the scratch: a window scale takes a static
               box, and only an MSS that differs from the scratch's
               last one (or D-SACK edges) allocates. *)
            t.wscale <- None;
            t.sack <- None;
            let mss =
              if data_off > header_size then
                scan_options buf t (off + header_size) (off + data_off) (-1)
              else -1
            in
            (* A run of SYNs advertising one MSS shares the scratch's
               box. *)
            (match t.mss with
            | Some m when m = mss -> ()
            | _ -> t.mss <- (if mss < 0 then None else Some mss));
            t.src_port <- Bytes.get_uint16_be buf off;
            t.dst_port <- Bytes.get_uint16_be buf (off + 2);
            t.seq <- Int32.to_int (Bytes.get_int32_be buf (off + 4)) land 0xFFFFFFFF;
            t.ack <- Int32.to_int (Bytes.get_int32_be buf (off + 8)) land 0xFFFFFFFF;
            t.fin <- flags land 0x01 <> 0;
            t.syn <- flags land 0x02 <> 0;
            t.rst <- flags land 0x04 <> 0;
            t.psh <- flags land 0x08 <> 0;
            t.ack_flag <- flags land 0x10 <> 0;
            t.ece <- flags land 0x40 <> 0;
            t.cwr <- flags land 0x80 <> 0;
            t.window <- Bytes.get_uint16_be buf (off + 14);
            t.payload_off <- off + data_off;
            t.payload_len <- seg_len - data_off;
            true
          end
     end

let decode mbuf ~src ~dst =
  let t = scratch () in
  if decode_into mbuf ~src ~dst t then Ok t
  else if mbuf.Mbuf.len < header_size then Error "tcp: segment too short"
  else begin
    (* Cold path: re-derive which check failed for the error message. *)
    let off = mbuf.Mbuf.off in
    let data_off = (Bytes.get_uint8 mbuf.Mbuf.buf (off + 12) lsr 4) * 4 in
    if data_off < header_size || data_off > mbuf.Mbuf.len then
      Error "tcp: bad data offset"
    else Error "tcp: bad checksum"
  end
