(* A byte queue of slices: growable circular array, consumed from the
   front in byte granularity.  Each slice is a bytes column entry plus
   its (off, len) span packed into one int of a second column, so
   partial consumption (a TCP stack accepting a prefix, an ACK covering
   half a slice) rewrites the front span in place instead of allocating
   a sub-slice — the send queues this backs used to be O(n²)
   `queue @ iovs` lists, and later a ring of [Iovec.t] records. *)

type t = {
  mutable bufs : Bytes.t array; (* length 0 until the first push *)
  mutable spans : int array; (* slot i's span: off lsl 31 lor len *)
  mutable head : int;
  mutable count : int; (* live slices *)
  mutable bytes : int; (* unconsumed bytes across all live slices *)
}

let span_bits = 31
let span_mask = (1 lsl span_bits) - 1
let[@inline] span off len = (off lsl span_bits) lor len
let[@inline] span_off s = s lsr span_bits
let[@inline] span_len s = s land span_mask
let create () = { bufs = [||]; spans = [||]; head = 0; count = 0; bytes = 0 }
let is_empty t = t.count = 0
let bytes t = t.bytes

(* Most queues hold a slice or two, so the first push makes room for
   four. *)
let grow t =
  let cap = Array.length t.bufs in
  let cap' = Int.max 4 (2 * cap) in
  let bufs' = Array.make cap' Bytes.empty and spans' = Array.make cap' 0 in
  for i = 0 to t.count - 1 do
    let j = (t.head + i) mod cap in
    bufs'.(i) <- t.bufs.(j);
    spans'.(i) <- t.spans.(j)
  done;
  t.bufs <- bufs';
  t.spans <- spans';
  t.head <- 0

let push_slice t buf off len =
  if len > 0 then begin
    if off < 0 || off lor len > span_mask then invalid_arg "Iov_deque.push";
    if t.count = Array.length t.bufs then grow t;
    let slot = t.head + t.count in
    let cap = Array.length t.bufs in
    let slot = if slot >= cap then slot - cap else slot in
    t.bufs.(slot) <- buf;
    t.spans.(slot) <- span off len;
    t.count <- t.count + 1;
    t.bytes <- t.bytes + len
  end

let push t (iov : Iovec.t) = push_slice t iov.Iovec.buf iov.Iovec.off iov.Iovec.len

(* The coercion is sound for the reason [Iovec.of_string] gives: queued
   bytes are only ever read (blitted into TX mbufs). *)
let push_substring t s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Iov_deque.push_substring";
  push_slice t (Bytes.unsafe_of_string s) off len

let clear t =
  (* Drop the slice references too — a cleared queue must not pin the
     application buffers it used to point at. *)
  Array.fill t.bufs 0 (Array.length t.bufs) Bytes.empty;
  t.head <- 0;
  t.count <- 0;
  t.bytes <- 0

let advance_head t =
  t.bufs.(t.head) <- Bytes.empty;
  t.head <- (if t.head + 1 >= Array.length t.bufs then 0 else t.head + 1);
  t.count <- t.count - 1

(* Consume [n] bytes of the front slice, which holds more than [n]. *)
let trim_head t n =
  let s = t.spans.(t.head) in
  t.spans.(t.head) <- span (span_off s + n) (span_len s - n)

(* Drop [n] bytes from the front — the ACK path.  Whole slices pop; a
   partial tail of the drop rewrites the front span. *)
let drop_front t n =
  if n < 0 || n > t.bytes then invalid_arg "Iov_deque.drop_front";
  let remaining = ref n in
  while !remaining > 0 do
    let avail = span_len t.spans.(t.head) in
    if avail <= !remaining then begin
      remaining := !remaining - avail;
      advance_head t
    end
    else begin
      trim_head t !remaining;
      remaining := 0
    end
  done;
  t.bytes <- t.bytes - n

(* Copy [len] bytes starting [skip] bytes past the front into [dst] —
   the segment-gather path (the NIC's scatter DMA read). *)
let blit_to t ~skip ~dst ~dst_off ~len =
  if skip < 0 || len < 0 || skip + len > t.bytes then
    invalid_arg "Iov_deque.blit_to";
  let i = ref t.head
  and skip = ref skip
  and remaining = ref len
  and dst_off = ref dst_off in
  while !remaining > 0 do
    let s = t.spans.(!i) in
    let off = span_off s and slen = span_len s in
    if !skip >= slen then skip := !skip - slen
    else begin
      let n = Int.min (slen - !skip) !remaining in
      Bytes.blit t.bufs.(!i) (off + !skip) dst !dst_off n;
      remaining := !remaining - n;
      dst_off := !dst_off + n;
      skip := 0
    end;
    i := (if !i + 1 >= Array.length t.bufs then 0 else !i + 1)
  done

(* Move up to [max_bytes] from the front of [src] onto the back of
   [dst] (sendv acceptance: bytes leave the connection's write queue
   for the TCB's send queue).  Slices move by reference; a split at the
   acceptance boundary pushes the prefix's span and rewrites the
   source's front span. *)
let transfer ~src ~dst ~max_bytes =
  let moved = ref 0 in
  while !moved < max_bytes && src.count > 0 do
    let s = src.spans.(src.head) in
    let off = span_off s and avail = span_len s in
    let want = max_bytes - !moved in
    if avail <= want then begin
      push_slice dst src.bufs.(src.head) off avail;
      advance_head src;
      src.bytes <- src.bytes - avail;
      moved := !moved + avail
    end
    else begin
      push_slice dst src.bufs.(src.head) off want;
      trim_head src want;
      src.bytes <- src.bytes - want;
      moved := !moved + want
    end
  done;
  !moved
