(* A byte queue of iovec slices: growable circular array, consumed
   from the front in byte granularity.  [head_skip] is how far into
   the front slice consumption has progressed, so partial consumption
   (a TCP stack accepting a prefix, an ACK covering half an iovec)
   moves an index instead of rebuilding a list — the send queues this
   backs used to be O(n²) `queue @ iovs` lists. *)

type t = {
  mutable arr : Iovec.t array; (* length 0 until the first push *)
  mutable head : int;
  mutable count : int; (* live slices, including the partial front one *)
  mutable head_skip : int; (* bytes of [arr.(head)] already consumed *)
  mutable bytes : int; (* unconsumed bytes across all live slices *)
}

let empty_iov = { Iovec.buf = Bytes.empty; off = 0; len = 0 }
let create () = { arr = [||]; head = 0; count = 0; head_skip = 0; bytes = 0 }
let is_empty t = t.count = 0
let bytes t = t.bytes

let grow t =
  let cap = Array.length t.arr in
  let cap' = Int.max 8 (2 * cap) in
  let arr' = Array.make cap' empty_iov in
  for i = 0 to t.count - 1 do
    arr'.(i) <- t.arr.((t.head + i) mod cap)
  done;
  t.arr <- arr';
  t.head <- 0

let push t iov =
  if iov.Iovec.len > 0 then begin
    if t.count = Array.length t.arr then grow t;
    let slot = t.head + t.count in
    let cap = Array.length t.arr in
    t.arr.(if slot >= cap then slot - cap else slot) <- iov;
    t.count <- t.count + 1;
    t.bytes <- t.bytes + iov.Iovec.len
  end

let clear t =
  (* Drop the slice references too — a cleared queue must not pin the
     application buffers it used to point at. *)
  Array.fill t.arr 0 (Array.length t.arr) empty_iov;
  t.head <- 0;
  t.count <- 0;
  t.head_skip <- 0;
  t.bytes <- 0

let advance_head t =
  t.arr.(t.head) <- empty_iov;
  t.head <- (if t.head + 1 >= Array.length t.arr then 0 else t.head + 1);
  t.count <- t.count - 1;
  t.head_skip <- 0

(* Drop [n] bytes from the front — the ACK path.  Whole slices pop;
   a partial tail of the drop just advances [head_skip].  No
   allocation either way. *)
let drop_front t n =
  if n < 0 || n > t.bytes then invalid_arg "Iov_deque.drop_front";
  let remaining = ref n in
  while !remaining > 0 do
    let iov = t.arr.(t.head) in
    let avail = iov.Iovec.len - t.head_skip in
    if avail <= !remaining then begin
      remaining := !remaining - avail;
      advance_head t
    end
    else begin
      t.head_skip <- t.head_skip + !remaining;
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
  and skip = ref (t.head_skip + skip)
  and remaining = ref len
  and dst_off = ref dst_off in
  while !remaining > 0 do
    let iov = t.arr.(!i) in
    if !skip >= iov.Iovec.len then skip := !skip - iov.Iovec.len
    else begin
      let n = Int.min (iov.Iovec.len - !skip) !remaining in
      Iovec.blit iov ~src_off:!skip ~dst ~dst_off:!dst_off ~len:n;
      remaining := !remaining - n;
      dst_off := !dst_off + n;
      skip := 0
    end;
    i := (if !i + 1 >= Array.length t.arr then 0 else !i + 1)
  done

(* Move up to [max_bytes] from the front of [src] onto the back of
   [dst] (sendv acceptance: bytes leave the connection's write queue
   for the TCB's send queue).  Whole slices move by reference; only a
   split at the acceptance boundary allocates (one small Iovec). *)
let transfer ~src ~dst ~max_bytes =
  let moved = ref 0 in
  while !moved < max_bytes && src.count > 0 do
    let iov = src.arr.(src.head) in
    let avail = iov.Iovec.len - src.head_skip in
    let want = max_bytes - !moved in
    if avail <= want then begin
      push dst
        (if src.head_skip = 0 then iov else Iovec.sub iov src.head_skip avail);
      advance_head src;
      src.bytes <- src.bytes - avail;
      moved := !moved + avail
    end
    else begin
      push dst (Iovec.sub iov src.head_skip want);
      src.head_skip <- src.head_skip + want;
      src.bytes <- src.bytes - want;
      moved := !moved + want
    end
  done;
  !moved
