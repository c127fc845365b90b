module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Metrics = Ixtelemetry.Metrics

let indirection_entries = 128

(* The RX ring is a fixed circular array of descriptors, like the
   hardware's: [ring.(head .. head+count-1 mod ring_size)] are the
   DMA-ed frames awaiting the driver.  Push/pop are index arithmetic —
   no queue cells.  Since a frame only lands by consuming a posted
   descriptor ([avail_descs]) and replenishment is capped so that
   [avail_descs + count <= ring_size], the array can never overflow.
   The array is allocated lazily at the first received frame (it needs
   an mbuf to seed the slots; popped slots keep their last mbuf, which
   is harmless — pool mbufs are permanent). *)
type rx_queue = {
  index : int;
  mutable ring : Mbuf.t array; (* length 0 until the first frame *)
  mutable head : int;
  mutable count : int;
  mutable avail_descs : int;
  ring_size : int;
  pool : Mempool.t;
  mutable notify : unit -> unit;
  mutable replenish_gate : (unit -> bool) option;
  mutable deferred_descs : int;  (** descriptors swallowed by a stall *)
  mutable doorbell_defer : ((unit -> unit) -> unit) option;
  q_rx : Metrics.counter;
  q_doorbells : Metrics.counter;
}

type t = {
  mac_addr : Ixnet.Mac_addr.t;
  queues : rx_queue array;
  mutable indirection : int array;
  tx_link : Link.t;
  c_drops : Metrics.counter;
  c_filtered : Metrics.counter;
  c_rx : Metrics.counter;
  c_tx : Metrics.counter;
  c_retargets : Metrics.counter;
}

let create _sim ~mac ~queues ?(ring_size = 512) ?metrics ?(name = "nic") ~tx () =
  let registry =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let c fmt = Printf.ksprintf (Metrics.counter registry) fmt in
  let make_queue index =
    {
      index;
      ring = [||];
      head = 0;
      count = 0;
      avail_descs = ring_size;
      ring_size;
      pool =
        Mempool.create ~capacity:(4 * ring_size)
          ~name:(Printf.sprintf "nic-rxq%d" index)
          ();
      notify = ignore;
      replenish_gate = None;
      deferred_descs = 0;
      doorbell_defer = None;
      q_rx = c "%s.q%d.rx_frames" name index;
      q_doorbells = c "%s.q%d.doorbells" name index;
    }
  in
  {
    mac_addr = mac;
    queues = Array.init queues make_queue;
    indirection = Array.init indirection_entries (fun i -> i mod queues);
    tx_link = tx;
    c_drops = c "%s.rx_drops" name;
    c_filtered = c "%s.rx_filtered" name;
    c_rx = c "%s.rx_frames" name;
    c_tx = c "%s.tx_frames" name;
    c_retargets = c "%s.rss_retarget" name;
  }

let mac t = t.mac_addr
let queue_count t = Array.length t.queues
let queue t i = t.queues.(i)

(* Indirection rewrites take effect at classification time only: a
   frame already hashed into a ring stays where it landed (the
   descriptor write-back is done), so a mid-burst rewrite can never
   misdeliver or retract a frame.  Each changed entry is a counted
   [rss_retarget] event so migrations are observable in metrics. *)
let set_indirection t f =
  let next =
    Array.init indirection_entries (fun g ->
        let q = f g in
        assert (q >= 0 && q < Array.length t.queues);
        q)
  in
  for g = 0 to indirection_entries - 1 do
    if next.(g) <> t.indirection.(g) then Metrics.incr t.c_retargets
  done;
  t.indirection <- next

let set_indirection_entry t ~group ~queue =
  if group < 0 || group >= indirection_entries then
    invalid_arg "Nic.set_indirection_entry: group";
  if queue < 0 || queue >= Array.length t.queues then
    invalid_arg "Nic.set_indirection_entry: queue";
  if t.indirection.(group) <> queue then begin
    t.indirection.(group) <- queue;
    Metrics.incr t.c_retargets
  end

let indirection_entry t group = t.indirection.(group)

let rss_group_of_tuple _ ~src_ip ~dst_ip ~src_port ~dst_port =
  Toeplitz.hash_tuple ~src_ip ~dst_ip ~src_port ~dst_port ()
  land (indirection_entries - 1)

let rss_queue_of_tuple t ~src_ip ~dst_ip ~src_port ~dst_port =
  t.indirection.(rss_group_of_tuple t ~src_ip ~dst_ip ~src_port ~dst_port)

(* A plain recursion rather than [List.for_all] with a capturing
   closure, so an ephemeral-port probe allocates nothing. *)
let rec steers_to_queues queues ~src_ip ~dst_ip ~src_port ~dst_port =
  match queues with
  | [] -> true
  | (nic, q) :: rest ->
      rss_queue_of_tuple nic ~src_ip ~dst_ip ~src_port ~dst_port = q.index
      && steers_to_queues rest ~src_ip ~dst_ip ~src_port ~dst_port

(* Allocation-free: this runs once per received frame, so it reads the
   4-tuple fields directly rather than materializing the option. *)
let classify t frame =
  if not (Frame.has_rss_tuple frame) then 0
  else
    rss_queue_of_tuple t ~src_ip:(Frame.rss_src_ip frame)
      ~dst_ip:(Frame.rss_dst_ip frame)
      ~src_port:(Frame.rss_src_port frame)
      ~dst_port:(Frame.rss_dst_port frame)

(* Minimum frame the MAC will pass up: a complete Ethernet header.
   (Real hardware enforces 64 B with the FCS; the simulation carries no
   padding, so the header is the floor that matters.) *)
let runt_limit = 14

(* Consumes the frame's reference: whatever the outcome — filter,
   drop, or copy-in — the sender's buffer is done with once receive
   returns (the DMA write happened or never will). *)
let receive t frame =
  (if Frame.length frame < runt_limit then
     (* Runt (e.g. a wire fault truncated the frame mid-header): the MAC
        discards it before parsing; counted with the filter drops so
        frame conservation still closes. *)
     Metrics.incr t.c_filtered
   else
   let dst = Frame.dst_mac frame in
   if dst <> t.mac_addr && not (Ixnet.Mac_addr.is_broadcast dst) then
     (* MAC filter: counted so frame conservation audits close — a wire
        fault that flips a MAC byte ends up here, not in a black hole. *)
     Metrics.incr t.c_filtered
   else begin
     let q = t.queues.(classify t frame) in
     if q.avail_descs = 0 then Metrics.incr t.c_drops
     else begin
       match Mempool.alloc q.pool with
       | None -> Metrics.incr t.c_drops
       | Some mbuf ->
           q.avail_descs <- q.avail_descs - 1;
           Frame.to_mbuf frame ~into:mbuf;
           if Array.length q.ring = 0 then q.ring <- Array.make q.ring_size mbuf;
           let slot = q.head + q.count in
           let slot = if slot >= q.ring_size then slot - q.ring_size else slot in
           q.ring.(slot) <- mbuf;
           q.count <- q.count + 1;
           Metrics.incr t.c_rx;
           Metrics.incr q.q_rx;
           q.notify ()
     end
   end);
  Frame.release frame

let set_notify q f = q.notify <- f
let rx_pending q = q.count

let pop_exn q =
  let mbuf = q.ring.(q.head) in
  q.head <- (if q.head + 1 >= q.ring_size then 0 else q.head + 1);
  q.count <- q.count - 1;
  mbuf

let rx_burst_into q ~into ~off ~max:limit =
  let n = Int.min (Int.min limit q.count) (Array.length into - off) in
  for i = off to off + n - 1 do
    into.(i) <- pop_exn q
  done;
  n

(* Posting descriptors writes the queue's tail register — one doorbell
   per non-empty batch.  The clamp keeps [avail_descs + count <=
   ring_size] no matter when a deferred doorbell lands. *)
let post_descs q n =
  q.avail_descs <- Int.min (q.ring_size - q.count) (q.avail_descs + n);
  Metrics.incr q.q_doorbells

let replenish q n =
  if n > 0 then begin
    let stalled =
      match q.replenish_gate with Some gate -> gate () | None -> false
    in
    if stalled then
      (* RX-ring stall fault: the tail write is swallowed; the ring
         drains and the NIC takes counted drops.  The descriptors are
         remembered and posted with the first doorbell after recovery,
         so the ring refills to its full complement. *)
      q.deferred_descs <- q.deferred_descs + n
    else begin
      let n = n + q.deferred_descs in
      q.deferred_descs <- 0;
      match q.doorbell_defer with
      | None -> post_descs q n
      | Some defer -> defer (fun () -> post_descs q n)
    end
  end

let free_descriptors q = q.avail_descs

(* Zero-copy TX: the frame on the wire is the mbuf itself, and the
   caller's reference becomes the wire's; the buffer returns to its pool
   when the receiving NIC (or a drop) releases it. *)
let transmit_at t mbuf ~earliest =
  Metrics.incr t.c_tx;
  Link.send_at t.tx_link mbuf ~earliest

let rx_popped q = Metrics.value q.q_rx - q.count
let rss_retargets t = Metrics.value t.c_retargets
let rx_drops t = Metrics.value t.c_drops
let rx_filtered t = Metrics.value t.c_filtered
let rx_frames t = Metrics.value t.c_rx
let pool_of q = q.pool
let set_replenish_gate q gate = q.replenish_gate <- gate
let set_doorbell_defer q defer = q.doorbell_defer <- defer
let iter_queues t f = Array.iter f t.queues
