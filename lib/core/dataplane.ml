module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iov_deque = Ixmem.Iov_deque
module Wheel = Timerwheel.Timer_wheel
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Seg = Ixnet.Tcp_segment
module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint

let log = Logs.Src.create "ix.dataplane" ~doc:"IX dataplane"

module Log = (val Logs.src_log log)

(* Simulated CPU costs (ns), calibrated so that ~3 cores saturate
   10GbE on the 64 B echo benchmark, as in Fig. 3a. *)
let poll_ns = 60 (* fixed per cycle: polling the RX ring(s) *)
let rx_pkt_ns = 45 (* RX driver work per packet *)
let proto_rx_ns = 140 (* TCP/IP input per packet *)
let proto_tx_ns = 110 (* TCP/IP output per segment *)
let tx_pkt_ns = 35 (* TX driver work per frame *)
let event_ns = 15 (* generate + consume one event condition *)
let syscall_ns = 25 (* process one batched system call *)
let timer_ns = 20 (* fixed per-cycle timer pass *)
let copy_ns_per_kb = 120 (* charged only when zero-copy is disabled *)

(* Spans the cycle tracer's ring retains. *)
let tracer_capacity = 4096

type config = {
  batch_bound : int;
  batch_mode : Batch.mode;
  zero_copy : bool;
  polling : bool;
  pcie : Ixhw.Pcie_model.t;
}

let default_config =
  {
    batch_bound = 64;
    batch_mode = Batch.Fixed;
    zero_copy = true;
    polling = true;
    pcie = Ixhw.Pcie_model.create ();
  }

type state = Idle | Scheduled | Running

(* Batched syscalls are rows of a flat int array, like the event
   conditions ([Ix_api.events]): slot 0 is the call's code, slots 1-3
   its int arguments, with a queue column (Sys_sendv's write queue, or a
   datagram's payload for Sys_udp_sendv) and the completion column
   beside them.
     code  call            slot 1   slot 2        slot 3
     0     Sys_connect     cookie   dst_ip        dst_port
     1     Sys_accept      handle   cookie
     2     Sys_sendv       handle
     3     Sys_recv_done   handle   bytes_acked
     4     Sys_close       handle
     5     Sys_abort       handle
     6     Sys_udp_sendv   src_port dst_ip        dst_port
   Event rows and syscall rows are both double-buffered: the phase that
   consumes a batch first swaps the staging side with the empty batch
   side, so anything staged while the batch runs lands on the other side
   and waits for the next cycle; the consumed side is then cleared so
   the long-lived columns keep no mbuf, queue or closure alive. *)
let sc_stride = 4

type syscalls = {
  mutable rows : int array;
  mutable queues : Iov_deque.t array;
  mutable results : (int -> unit) array;
  mutable len : int;
  no_queue : Iov_deque.t; (* inert filler for the queue column *)
}

let syscalls () =
  { rows = [||]; queues = [||]; results = [||]; len = 0; no_queue = Iov_deque.create () }

let grow_syscalls s =
  let cap = Int.max 64 (2 * s.len) in
  let rows = Array.make (sc_stride * cap) 0
  and queues = Array.make cap s.no_queue
  and results = Array.make cap ignore in
  Array.blit s.rows 0 rows 0 (sc_stride * s.len);
  Array.blit s.queues 0 queues 0 s.len;
  Array.blit s.results 0 results 0 s.len;
  s.rows <- rows;
  s.queues <- queues;
  s.results <- results

let clear_syscalls s =
  Array.fill s.queues 0 s.len s.no_queue;
  Array.fill s.results 0 s.len ignore;
  s.len <- 0

type t = {
  sim : Sim.t;
  id : int;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  queues : (Nic.t * Nic.rx_queue) list;
  tx_nic : Nic.t;
  arp : Arp_cache.t;
  rcu : Rcu.manager;
  batcher : Batch.t;
  prot : Protection.t;
  pol : Policy.t;
  pcie : Ixhw.Pcie_model.t;
  cache : Ixhw.Cache_model.t option;
  conn_count : int ref;
  zero_copy : bool;
  polling : bool;
  interrupt_latency_ns : int;
  local_ip : Ixnet.Ip_addr.t;
  mutable ep : Tcp_endpoint.t option; (* set right after creation *)
  mutable app : Ix_api.events -> unit;
  mutable events : Ix_api.events; (* staging side *)
  mutable event_batch : Ix_api.events; (* the batch being delivered *)
  unaccepted : (int, unit) Hashtbl.t; (* handles awaiting Sys_accept *)
  parked : Ix_api.events;
      (* events of unaccepted connections, in arrival order, with the
         connection's handle in the cookie slot until Sys_accept *)
  mutable syscalls : syscalls; (* staging side *)
  mutable syscall_batch : syscalls; (* the batch being executed *)
  (* Flow-group migration state.  While a group is inbound-parked the
     destination thread holds arriving TCP frames of that group aside
     (in arrival order) instead of delivering them to a flow table that
     does not yet own the TCBs; [replay] carries them into the next
     cycle once the handover lands.  [watchers] are drain predicates
     polled at the end of every run-to-completion cycle (the source
     side of a migration).  All three are empty outside migrations, so
     the steady-state hot path pays one null check. *)
  mutable parked_inbound : (int * Mbuf.t list ref) list; (* group -> reversed *)
  mutable replay : Mbuf.t list; (* in order *)
  mutable watchers : (unit -> bool) list;
  (* RX batch scratch and staged-TX vector: reused cycle to cycle so the
     per-packet path builds no lists.  [scratch_seed] is an inert mbuf
     used only to fill empty array slots. *)
  scratch_seed : Mbuf.t;
  mutable rx_scratch : Mbuf.t array;
  mutable tx_buf : Mbuf.t array;
  mutable tx_len : int;
  (* Per-dataplane decoded-header scratch records, refilled by
     [decode_into] for every frame of the RX batch.  Ownership rule:
     valid only while the current frame is being processed — nothing
     may hold one across a yield or into the staged-event phase. *)
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Seg.t;
  mutable kernel_ns_acc : int;
  mutable user_ns_acc : int;
  (* Stage-span bookkeeping for [run_cycle]'s tracer marks: the cycle's
     start time and the end of the last span cut.  Plain mutable fields
     so the per-cycle hot path allocates no closure or ref for them. *)
  mutable cycle_start : int;
  mutable span_cursor : int;
  mutable state : state;
  mutable in_user_phase : bool;
  (* [run_cycle t] and [kick t], built once so the cycle loop and the
     idle path allocate no closure per wakeup. *)
  cycle_wakeup : Sim.wakeup;
  idle_wakeup : Sim.wakeup; (* at the wheel's next expiry *)
  udp_binds : (int, unit) Hashtbl.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  c_cycles : Metrics.counter;
  c_rx_pkts : Metrics.counter;
  c_tx_pkts : Metrics.counter;
  c_events : Metrics.counter;
  c_syscalls : Metrics.counter;
  c_nonresponsive : Metrics.counter;
  c_rx_csum_drops : Metrics.counter;
  c_rx_other : Metrics.counter;
  c_app_faults : Metrics.counter;
  user_timeout_ns : int;
  mutable ping_handler : src_ip:Ixnet.Ip_addr.t -> Ixnet.Icmp_packet.t -> unit;
  mutable background : (int * (unit -> unit)) option; (* slice_ns, work *)
  mutable background_slices : int;
}

let thread_id t = t.id
let core t = t.cpu
let endpoint t = Option.get t.ep
let batcher t = t.batcher
let protection t = t.prot
let policy t = t.pol
let now t = Sim.now t.sim
let charge_kernel t ns = t.kernel_ns_acc <- t.kernel_ns_acc + ns
let charge_user t ns = t.user_ns_acc <- t.user_ns_acc + ns

(* ------------------------------------------------------------------ *)
(* Outbound path: TCP segment -> IP -> ARP -> Ethernet -> staged TX    *)

let stage_tx t mbuf =
  if t.tx_len = Array.length t.tx_buf then begin
    let capacity' = Int.max 64 (2 * t.tx_len) in
    let buf' = Array.make capacity' mbuf in
    Array.blit t.tx_buf 0 buf' 0 t.tx_len;
    t.tx_buf <- buf'
  end;
  t.tx_buf.(t.tx_len) <- mbuf;
  t.tx_len <- t.tx_len + 1;
  Metrics.incr t.c_tx_pkts

let ethernet_to t ~dst_mac mbuf =
  Ixnet.Ethernet.prepend_fields mbuf ~dst:dst_mac ~src:(Nic.mac t.tx_nic)
    ~ethertype:Ixnet.Ethernet.Ipv4

let send_arp t ~op ~target_ip ~target_mac =
  match Mempool.alloc t.pool with
  | None -> ()
  | Some mbuf ->
      Ixnet.Arp_packet.write mbuf
        {
          Ixnet.Arp_packet.op;
          sender_mac = Nic.mac t.tx_nic;
          sender_ip = t.local_ip;
          target_mac;
          target_ip;
        };
      Ixnet.Ethernet.prepend mbuf
        {
          Ixnet.Ethernet.dst =
            (if op = Ixnet.Arp_packet.Request then Ixnet.Mac_addr.broadcast else target_mac);
          src = Nic.mac t.tx_nic;
          ethertype = Ixnet.Ethernet.Arp;
        };
      stage_tx t mbuf

(* [mbuf] holds an IP datagram for [remote_ip]; resolve and frame it. *)
let resolve_and_frame t ~remote_ip mbuf =
  match Arp_cache.find t.arp remote_ip with
  | mac ->
      ethernet_to t ~dst_mac:mac mbuf;
      stage_tx t mbuf
  | exception Not_found ->
      Arp_cache.park t.arp remote_ip mbuf;
      send_arp t ~op:Ixnet.Arp_packet.Request ~target_ip:remote_ip
        ~target_mac:Ixnet.Mac_addr.zero

let output_raw t ~remote_ip mbuf =
  charge_kernel t proto_tx_ns;
  if not t.zero_copy then
    charge_kernel t (copy_ns_per_kb * mbuf.Mbuf.len / 1024);
  Ixnet.Ipv4_packet.prepend_fields mbuf ~src:t.local_ip ~dst:remote_ip
    ~protocol:Ixnet.Ipv4_packet.Tcp ~ttl:64 ~ecn:0 ~payload_len:mbuf.Mbuf.len;
  resolve_and_frame t ~remote_ip mbuf

(* ------------------------------------------------------------------ *)
(* Event staging                                                       *)

(* A connection's events are parked, keyed by its handle, until
   [Sys_accept] assigns the user's cookie; afterwards they are staged
   under the cookie. *)
let[@inline] rows_for t tcb =
  if Hashtbl.length t.unaccepted > 0 && Hashtbl.mem t.unaccepted (Tcb.flow_handle tcb)
  then t.parked
  else t.events

let[@inline] key_for t tcb rows =
  if rows == t.parked then Tcb.flow_handle tcb else Tcb.cookie tcb

let install_callbacks t tcb =
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_connected <-
    (fun ok ->
      let rows = rows_for t tcb in
      Ix_api.stage_connected rows ~cookie:(key_for t tcb rows)
        ~handle:(Tcb.flow_handle tcb) ~ok);
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      let rows = rows_for t tcb in
      Ix_api.stage_recv rows ~cookie:(key_for t tcb rows) mbuf ~off ~len);
  cbs.Tcb.on_sent <-
    (fun n ->
      let rows = rows_for t tcb in
      Ix_api.stage_sent rows ~cookie:(key_for t tcb rows) ~bytes_sent:n
        ~window_size:(Tcb.rcv_window tcb));
  cbs.Tcb.on_closed <-
    (fun reason ->
      let rows = rows_for t tcb in
      Ix_api.stage_dead rows ~cookie:(key_for t tcb rows) reason)

(* Forget an unaccepted connection (rejected or torn down): its parked
   events are dropped with it. *)
let forget_unaccepted t handle =
  if Hashtbl.mem t.unaccepted handle then begin
    Hashtbl.remove t.unaccepted handle;
    Ix_api.discard t.parked ~key:handle
  end

(* ------------------------------------------------------------------ *)
(* Syscall execution (step 4)                                          *)

(* A handle is the connection's generation-checked flow handle in this
   thread's store.  An unknown or stale one (its connection closed or
   migrated away, even if the slot now holds another) resolves to the
   dead view. *)
let lookup_handle t handle = Tcb.deref (Tcp_endpoint.env (endpoint t)).Tcb.store handle

(* Count a connection into the host's [conn_count]; the teardown hook
   counts it out. *)
let count_in t tcb =
  Tcb.set_counted tcb true;
  incr t.conn_count

let exec_syscall t s i =
  Metrics.incr t.c_syscalls;
  charge_kernel t syscall_ns;
  let k = sc_stride * i and rows = s.rows and on_result = s.results.(i) in
  match rows.(k) with
  | 0 (* Sys_connect *) -> (
      match
        Tcp_endpoint.connect (endpoint t) ~remote_ip:rows.(k + 2)
          ~remote_port:rows.(k + 3) ~cookie:rows.(k + 1) ()
      with
      | None -> on_result (-1)
      | Some tcb ->
          install_callbacks t tcb;
          count_in t tcb;
          on_result (Tcb.flow_handle tcb))
  | 6 (* Sys_udp_sendv *) -> (
      match Mempool.alloc t.pool with
      | None -> on_result (-1)
      | Some mbuf ->
          let payload = s.queues.(i) in
          let total = Iov_deque.bytes payload in
          if total > Mbuf.tailroom mbuf then invalid_arg "Mbuf.append_bytes: no tailroom";
          Iov_deque.blit_to payload ~skip:0 ~dst:mbuf.Mbuf.buf
            ~dst_off:(mbuf.Mbuf.off + mbuf.Mbuf.len) ~len:total;
          mbuf.Mbuf.len <- mbuf.Mbuf.len + total;
          let dst_ip = rows.(k + 2) in
          Ixnet.Udp_packet.prepend mbuf ~src:t.local_ip ~dst:dst_ip ~src_port:rows.(k + 1)
            ~dst_port:rows.(k + 3);
          charge_kernel t proto_tx_ns;
          Ixnet.Ipv4_packet.prepend_fields mbuf ~src:t.local_ip ~dst:dst_ip
            ~protocol:Ixnet.Ipv4_packet.Udp ~ttl:64 ~ecn:0
            ~payload_len:mbuf.Mbuf.len;
          resolve_and_frame t ~remote_ip:dst_ip mbuf;
          on_result total)
  | code -> (
      let handle = rows.(k + 1) in
      match lookup_handle t handle with
      | tcb when Tcb.is_dead tcb -> on_result (-1)
      | tcb -> (
          match code with
          | 1 (* Sys_accept *) ->
              let cookie = rows.(k + 2) in
              Tcb.set_cookie tcb cookie;
              if Hashtbl.mem t.unaccepted handle then begin
                Hashtbl.remove t.unaccepted handle;
                (* Stage the events parked while unaccepted, oldest
                   first, under the cookie that now exists. *)
                Ix_api.unpark t.parked ~key:handle ~cookie ~into:t.events
              end;
              on_result 0
          | 2 (* Sys_sendv *) ->
              let accepted = Tcp_conn.send_from tcb s.queues.(i) in
              if not t.zero_copy then
                charge_kernel t (copy_ns_per_kb * accepted / 1024);
              on_result accepted
          | 3 (* Sys_recv_done *) ->
              Tcp_conn.consume tcb rows.(k + 2);
              on_result 0
          | 4 (* Sys_close *) ->
              if Hashtbl.mem t.unaccepted handle then begin
                (* Rejecting a knock. *)
                forget_unaccepted t handle;
                Tcp_conn.abort tcb
              end
              else Tcp_conn.close tcb;
              on_result 0
          | _ (* Sys_abort *) ->
              Tcp_conn.abort tcb;
              on_result 0))

(* ------------------------------------------------------------------ *)
(* Inbound packet processing (step 2)                                  *)

let process_arp t mbuf =
  match Ixnet.Arp_packet.decode mbuf with
  | Error _ -> ()
  | Ok arp ->
      Arp_cache.learn t.arp arp.Ixnet.Arp_packet.sender_ip arp.Ixnet.Arp_packet.sender_mac;
      (* Drain anything parked on this resolution. *)
      List.iter
        (fun parked ->
          ethernet_to t ~dst_mac:arp.Ixnet.Arp_packet.sender_mac parked;
          stage_tx t parked)
        (Arp_cache.take_parked t.arp arp.Ixnet.Arp_packet.sender_ip);
      if arp.Ixnet.Arp_packet.op = Ixnet.Arp_packet.Request
         && arp.Ixnet.Arp_packet.target_ip = t.local_ip
      then
        send_arp t ~op:Ixnet.Arp_packet.Reply ~target_ip:arp.Ixnet.Arp_packet.sender_ip
          ~target_mac:arp.Ixnet.Arp_packet.sender_mac

(* ICMP echo: answered in the dataplane kernel (the paper implemented
   RFC-compliant ICMP alongside UDP and ARP). *)
let process_icmp t ~src_ip mbuf =
  if Ixnet.Icmp_packet.is_echo_request mbuf then begin
    (* Hot path: answer without decoding — one blit into the reply
       mbuf, no record or payload string. *)
    match Mempool.alloc t.pool with
    | None -> ()
    | Some reply ->
        Ixnet.Icmp_packet.reply_into mbuf ~into:reply;
        Ixnet.Ipv4_packet.prepend_fields reply ~src:t.local_ip ~dst:src_ip
          ~protocol:Ixnet.Ipv4_packet.Icmp ~ttl:64 ~ecn:0
          ~payload_len:reply.Mbuf.len;
        resolve_and_frame t ~remote_ip:src_ip reply
  end
  else
    match Ixnet.Icmp_packet.decode mbuf with
    | Error _ -> ()
    | Ok reply -> t.ping_handler ~src_ip reply

(* Every IPv4 frame lands in exactly one accounting bucket: delivered
   to TCP (counted by the endpoint's [tcp.<i>.rx_segs]), dropped by
   validation ([rx_csum_drops] — the IPv4 header and TCP checksums are
   verified by [decode_into]; a frame corrupted on the wire dies here,
   counted, instead of being accepted), or handled/dropped in the
   kernel without a TCP delivery ([rx_other]: ARP, ICMP, UDP, firewall
   rejects, wrong destination).  The chaos audit's frame-conservation
   check ([Harness.Chaos]) relies on these buckets tiling [rx_pkts]. *)
(* A TCP frame belonging to a group that is mid-migration to this
   thread: hold it aside (in arrival order) until the TCBs arrive.  The
   frame keeps its reference across the park ([process_frame] decrefs on
   return; the replayed pass rebalances).  Bucket accounting is
   deferred to the replay pass, where the frame is processed for real. *)
let park_if_migrating t (ip : Ixnet.Ipv4_packet.t) (seg : Seg.t) mbuf =
  match t.queues with
  | [] -> false
  | (nic, _) :: _ -> (
      let group =
        Nic.rss_group_of_tuple nic ~src_ip:ip.Ixnet.Ipv4_packet.src
          ~dst_ip:ip.Ixnet.Ipv4_packet.dst ~src_port:seg.Seg.src_port
          ~dst_port:seg.Seg.dst_port
      in
      match List.assoc_opt group t.parked_inbound with
      | None -> false
      | Some frames ->
          Mbuf.incref mbuf;
          frames := mbuf :: !frames;
          true)

let process_ipv4 t mbuf =
  (* Scratch-record decode: [ip]/[seg] are the dataplane's reusable
     records, valid only for this frame (rx_segment and everything
     below it reads, never retains, them). *)
  let ip = t.ip_scratch in
  if not (Ixnet.Ipv4_packet.decode_into mbuf ip) then
    Metrics.incr t.c_rx_csum_drops
  else if ip.Ixnet.Ipv4_packet.dst <> t.local_ip then Metrics.incr t.c_rx_other
  else begin
    match ip.Ixnet.Ipv4_packet.protocol with
    | Ixnet.Ipv4_packet.Tcp ->
        let seg = t.seg_scratch in
        if
          not
            (Seg.decode_into mbuf ~src:ip.Ixnet.Ipv4_packet.src
               ~dst:ip.Ixnet.Ipv4_packet.dst seg)
        then Metrics.incr t.c_rx_csum_drops
        else if t.parked_inbound <> [] && park_if_migrating t ip seg mbuf then ()
        else if
          Policy.admit t.pol ~now:(now t) ~src_ip:ip.Ixnet.Ipv4_packet.src
            ~dst_port:seg.Seg.dst_port ~len:mbuf.Mbuf.len
        then
          Tcp_endpoint.rx_segment
            ?ce:(Tcp_endpoint.ce_of_ecn ip.Ixnet.Ipv4_packet.ecn)
            (endpoint t) ~src_ip:ip.Ixnet.Ipv4_packet.src seg mbuf
        else Metrics.incr t.c_rx_other
    | Ixnet.Ipv4_packet.Icmp ->
        Metrics.incr t.c_rx_other;
        process_icmp t ~src_ip:ip.Ixnet.Ipv4_packet.src mbuf
    | Ixnet.Ipv4_packet.Udp ->
        Metrics.incr t.c_rx_other;
        (match
           Ixnet.Udp_packet.decode mbuf ~src:ip.Ixnet.Ipv4_packet.src
             ~dst:ip.Ixnet.Ipv4_packet.dst
         with
        | Error _ -> ()
        | Ok udp ->
            if
              Hashtbl.mem t.udp_binds udp.Ixnet.Udp_packet.dst_port
              && Policy.admit t.pol ~now:(now t)
                   ~src_ip:ip.Ixnet.Ipv4_packet.src
                   ~dst_port:udp.Ixnet.Udp_packet.dst_port ~len:mbuf.Mbuf.len
            then begin
              Mbuf.incref mbuf;
              Ix_api.stage_udp_recv t.events ~port:udp.Ixnet.Udp_packet.dst_port
                ~src_ip:ip.Ixnet.Ipv4_packet.src ~src_port:udp.Ixnet.Udp_packet.src_port
                mbuf ~off:udp.Ixnet.Udp_packet.payload_off
                ~len:udp.Ixnet.Udp_packet.payload_len
            end)
    | Ixnet.Ipv4_packet.Other _ -> Metrics.incr t.c_rx_other
  end

let process_frame t mbuf =
  charge_kernel t proto_rx_ns;
  (match t.cache with
  | Some cm ->
      (* The model's figure is per message (~2 frames at the server). *)
      charge_kernel t
        (Ixhw.Cache_model.extra_ns_per_message cm ~conns:!(t.conn_count) / 2)
  | None -> ());
  if not (Ixnet.Ethernet.decode_into mbuf t.eth_scratch) then
    (* Runt frame (e.g. truncated below the Ethernet header). *)
    Metrics.incr t.c_rx_csum_drops
  else
    (match t.eth_scratch.Ixnet.Ethernet.ethertype with
    | Ixnet.Ethernet.Arp ->
        Metrics.incr t.c_rx_other;
        process_arp t mbuf
    | Ixnet.Ethernet.Ipv4 -> process_ipv4 t mbuf
    | Ixnet.Ethernet.Other _ -> Metrics.incr t.c_rx_other);
  Mbuf.decref mbuf

(* ------------------------------------------------------------------ *)
(* The run-to-completion cycle (Fig. 1b)                               *)

let rx_pending t =
  List.fold_left (fun acc (_, q) -> acc + Nic.rx_pending q) 0 t.queues

let has_work t =
  rx_pending t > 0 || Ix_api.count t.events > 0 || t.syscalls.len > 0
  || t.replay <> []

(* Pull a bounded batch off the RX rings, round-robin across queues,
   into [t.rx_scratch] starting at [filled]; replenish as we go. *)
let rec gather_rx t filled remaining = function
  | [] -> filled
  | (_, q) :: rest ->
      if remaining = 0 then filled
      else begin
        let taken =
          Nic.rx_burst_into q ~into:t.rx_scratch ~off:filled ~max:remaining
        in
        Nic.replenish q taken;
        gather_rx t (filled + taken) (remaining - taken) rest
      end

(* Cut a tracer stage span at the current charge watermark.  Spans tile
   [cycle_start, t_end] exactly — see the timeline note in [run_cycle]. *)
let mark t stage =
  let at = t.cycle_start + t.kernel_ns_acc + t.user_ns_acc in
  if at > t.span_cursor then
    Tracer.span t.tracer stage ~start:t.span_cursor ~stop:at;
  t.span_cursor <- at

let rec run_cycle t =
  t.state <- Running;
  Metrics.incr t.c_cycles;
  t.kernel_ns_acc <- 0;
  t.user_ns_acc <- 0;
  let start = Int.max (now t) (Cpu_core.free_at t.cpu) in
  (* Stage spans are cut wherever [mark] is called: charges land on the
     core as one kernel block then one user block, but attributing them
     in charge order gives a per-stage timeline whose spans tile
     [start, t_end] exactly — stage totals sum to the committed busy
     time by construction. *)
  t.cycle_start <- start;
  t.span_cursor <- start;
  (* --- (1) poll RX rings, take a bounded batch, replenish --- *)
  charge_kernel t poll_ns;
  let budget = Batch.next_batch t.batcher ~pending:(rx_pending t) in
  if Array.length t.rx_scratch < budget then begin
    let scratch = Array.make (Int.max 64 budget) t.scratch_seed in
    Array.blit t.rx_scratch 0 scratch 0 (Array.length t.rx_scratch);
    t.rx_scratch <- scratch
  end;
  let n_rx = gather_rx t 0 budget t.queues in
  (* Replenish doorbells are coalesced across queues: one charge for
     the burst's descriptor total, not one partial-batch write per
     queue (adaptive batching, §4.2 — doorbells are per burst). *)
  charge_kernel t (Ixhw.Pcie_model.replenish_cost_ns t.pcie ~descriptors:n_rx);
  Metrics.add t.c_rx_pkts n_rx;
  charge_kernel t (rx_pkt_ns * n_rx);
  mark t Tracer.Rx_driver;
  (* --- (2) protocol processing, generating event conditions --- *)
  (* Frames parked during a flow-group migration replay first: they
     arrived before anything polled this cycle, and their TCBs are home
     now.  (They were counted into [rx_pkts] when originally polled;
     this pass lands them in their accounting bucket.) *)
  if t.replay <> [] then begin
    let parked = t.replay in
    t.replay <- [];
    List.iter (process_frame t) parked
  end;
  for i = 0 to n_rx - 1 do
    process_frame t t.rx_scratch.(i)
  done;
  mark t Tracer.Tcp_in;
  (* --- (3) user phase: deliver event conditions to the app --- *)
  let n_events = Ix_api.count t.events in
  if n_events > 0 then begin
    let batch = t.events in
    t.events <- t.event_batch;
    t.event_batch <- batch;
    charge_kernel t (Protection.enter_user t.prot);
    mark t Tracer.Crossing;
    t.in_user_phase <- true;
    (* The staged rows ARE the event-condition array, in arrival
       order; nothing is materialized per event. *)
    Metrics.add t.c_events n_events;
    charge_user t (event_ns * n_events);
    mark t Tracer.Event_delivery;
    (* §4.5 protection backstop: an exception escaping the user phase
       must not take the elastic thread down — the kernel regains
       control, counts the fault and keeps serving other flows.  (Libix
       additionally contains handler faults per event, aborting only
       the offending connection; this outer guard is the dataplane's
       own guarantee for apps driving [set_app] directly.) *)
    (try t.app batch
     with exn ->
       Metrics.incr t.c_app_faults;
       Log.debug (fun m ->
           m "thread %d: user phase fault contained: %s" t.id
             (Printexc.to_string exn)));
    mark t Tracer.User_phase;
    t.in_user_phase <- false;
    charge_kernel t (Protection.enter_kernel t.prot);
    mark t Tracer.Crossing;
    (* §4.5: a timeout interrupt detects elastic threads that spend
       excessive time in user mode; we mark them non-responsive for the
       control plane. *)
    if t.user_ns_acc > t.user_timeout_ns then Metrics.incr t.c_nonresponsive;
    Ix_api.clear batch
  end;
  (* --- (4) batched system calls --- *)
  let calls = t.syscalls in
  t.syscalls <- t.syscall_batch;
  t.syscall_batch <- calls;
  for i = 0 to calls.len - 1 do
    exec_syscall t calls i
  done;
  clear_syscalls calls;
  mark t Tracer.Syscall;
  (* --- (5) kernel timers --- *)
  charge_kernel t timer_ns;
  Wheel.advance t.wheel ~now:(now t);
  mark t Tracer.Timer;
  (* --- (6) transmit --- *)
  let n_tx = t.tx_len in
  Batch.note_tx t.batcher n_tx;
  charge_kernel t (tx_pkt_ns * n_tx);
  (* One doorbell write per TX burst, regardless of how many segments
     the burst carries.  [Batch] owns the ring decision: in fixed mode
     every burst rings; in adaptive mode congested bursts coalesce
     until a bound's worth of segments has accumulated. *)
  if Batch.doorbell_due t.batcher ~burst:n_tx then
    charge_kernel t (Ixhw.Pcie_model.doorbell_cost_ns t.pcie);
  mark t Tracer.Tx_driver;
  (* Commit costs to the core; effects land at cycle end. *)
  let t_mid = Cpu_core.charge t.cpu ~now:start Cpu_core.Kernel t.kernel_ns_acc in
  let t_end = Cpu_core.charge t.cpu ~now:t_mid Cpu_core.User t.user_ns_acc in
  for i = 0 to n_tx - 1 do
    let mbuf = t.tx_buf.(i) in
    t.tx_buf.(i) <- t.scratch_seed;
    Nic.transmit_at t.tx_nic mbuf ~earliest:t_end
  done;
  (* Frames staged while transmitting (none today) slide to the front
     for the next cycle. *)
  if t.tx_len > n_tx then begin
    Array.blit t.tx_buf n_tx t.tx_buf 0 (t.tx_len - n_tx);
    Array.fill t.tx_buf (t.tx_len - n_tx) n_tx t.scratch_seed
  end;
  t.tx_len <- t.tx_len - n_tx;
  (* RCU quiescent point. *)
  Rcu.quiescent t.rcu ~thread:t.id;
  (* Migration drain watchers: the source side of a flow-group
     migration polls its drain predicate here, once per cycle, after
     the quiescent point (so an RCU grace period that ended in this
     cycle is visible).  A watcher returning true has completed its
     handover and is dropped. *)
  if t.watchers <> [] then
    t.watchers <- List.filter (fun w -> not (w ())) t.watchers;
  (* Loop or go idle. *)
  if has_work t then begin
    t.state <- Scheduled;
    Sim.arm t.cycle_wakeup t_end
  end
  else go_idle t t_end

(* §4.1: background threads timeshare a hardware thread with the
   elastic work.  A slice runs only while the dataplane is otherwise
   idle; packets arriving during a slice are picked up at the next
   slice boundary — the (bounded) latency cost of timesharing.  Going
   idle from [earliest] therefore either schedules the next slice or,
   with no background work, sleeps until the wheel's next expiry. *)
and go_idle t earliest =
  match t.background with
  | None ->
      t.state <- Idle;
      arm_idle_wakeup t earliest
  | Some _ -> schedule_slice t earliest

and schedule_slice t earliest =
  t.state <- Scheduled;
  Sim.at t.sim (Int.max (now t) earliest) (fun () ->
      t.state <- Idle;
      if has_work t || rx_pending t > 0 then kick t
      else
        (* Re-read: the task may have been cleared meanwhile. *)
        match t.background with
        | None -> arm_idle_wakeup t (now t)
        | Some (slice_ns, work) ->
            t.background_slices <- t.background_slices + 1;
            work ();
            let finished = Cpu_core.charge t.cpu ~now:(now t) Cpu_core.User slice_ns in
            Wheel.advance t.wheel ~now:(now t);
            if has_work t then kick t else go_idle t finished)

and arm_idle_wakeup t earliest =
  Wheel.arm_wakeup t.idle_wakeup ~earliest (Wheel.next_expiry t.wheel)

and kick t =
  match t.state with
  | Running | Scheduled -> ()
  | Idle ->
      t.state <- Scheduled;
      Sim.disarm t.idle_wakeup;
      let wakeup_cost = if t.polling then 0 else t.interrupt_latency_ns in
      let at = Int.max (now t) (Cpu_core.free_at t.cpu) + wakeup_cost in
      Sim.arm t.cycle_wakeup at

(* ------------------------------------------------------------------ *)

let set_app t f = t.app <- f

let udp_bind t ~port = Hashtbl.replace t.udp_binds port ()

let listen t ~port =
  Tcp_endpoint.listen (endpoint t) ~port ~on_accept:(fun tcb ->
      install_callbacks t tcb;
      Hashtbl.replace t.unaccepted (Tcb.flow_handle tcb) ();
      Ix_api.stage_knock t.events ~handle:(Tcb.flow_handle tcb) ~src_ip:(Tcb.remote_ip tcb)
        ~src_port:(Tcb.remote_port tcb) ~port:(Tcb.local_port tcb);
      count_in t tcb)

(* Append one syscall row to the staging side; [queue] is stored only
   for the two calls that carry one. *)
let stage_syscall t code a b c queue on_result =
  Protection.require t.prot Protection.User;
  let s = t.syscalls in
  let i = s.len in
  if i = Array.length s.results then grow_syscalls s;
  let k = sc_stride * i and rows = s.rows in
  rows.(k) <- code;
  rows.(k + 1) <- a;
  rows.(k + 2) <- b;
  rows.(k + 3) <- c;
  if queue != s.no_queue then s.queues.(i) <- queue;
  s.results.(i) <- on_result;
  s.len <- i + 1

let sys_connect t ~cookie ~dst_ip ~dst_port ~on_result =
  stage_syscall t 0 cookie dst_ip dst_port t.syscalls.no_queue on_result

let sys_accept t handle ~cookie ~on_result =
  stage_syscall t 1 handle cookie 0 t.syscalls.no_queue on_result

let sys_sendv t handle queue ~on_result = stage_syscall t 2 handle 0 0 queue on_result

let sys_recv_done t handle ~bytes_acked ~on_result =
  stage_syscall t 3 handle bytes_acked 0 t.syscalls.no_queue on_result

let sys_close t handle ~on_result = stage_syscall t 4 handle 0 0 t.syscalls.no_queue on_result
let sys_abort t handle ~on_result = stage_syscall t 5 handle 0 0 t.syscalls.no_queue on_result

let sys_udp_sendv t ~src_port ~dst_ip ~dst_port payload ~on_result =
  stage_syscall t 6 src_port dst_ip dst_port payload on_result

let flows t = Tcp_endpoint.connection_count (endpoint t)

(* Control-plane drain: forcibly reset every connection this thread
   still owns.  Collect first — [Tcp_conn.abort] unhooks the flow table
   through [on_teardown], which must not race the iteration.  The RSTs
   are staged TX frames, so kick a cycle to flush them. *)
let abort_all_connections t =
  let doomed = ref [] in
  Tcp_endpoint.iter_connections (endpoint t) (fun tcb -> doomed := tcb :: !doomed);
  List.iter Tcp_conn.abort !doomed;
  let n = List.length !doomed in
  if n > 0 then kick t;
  n

(* Hand one TCB to [dst]: flow-table eviction, env rebind (moves its
   row, and with it the [counted] bit, to the destination store, which
   gives it a new handle; cancels and re-arms its timers on the
   destination wheel), callback reinstall, adoption. *)
let hand_over_tcb t dst tcb =
  Tcp_endpoint.evict (endpoint t) tcb;
  Tcp_conn.rebind tcb (Tcp_endpoint.env (endpoint dst));
  install_callbacks dst tcb;
  Tcp_endpoint.adopt (endpoint dst) tcb

(* ------------------------------------------------------------------ *)
(* Flow-group migration (the control plane drives this; see
   [Control_plane.migrate_flow_group] for the full protocol).          *)

(* Whether a tuple's *receive* direction at this host falls in [group];
   all NICs share the RSS key, so the first one answers for all. *)
let in_group t ~group ~local_port ~remote_ip ~remote_port =
  match t.queues with
  | [] -> false
  | (nic, _) :: _ ->
      Nic.rss_group_of_tuple nic ~src_ip:remote_ip ~dst_ip:t.local_ip
        ~src_port:remote_port ~dst_port:local_port
      = group

(* The group's TIME_WAIT remnants move with its TCBs: RSS steers the
   tuple's frames to [dst] from now on, and a retransmitted FIN there
   must meet the remnant (a re-ACK), not the flow-miss RST. *)
let migrate_group_to t dst ~group =
  let moving = ref [] in
  Tcp_endpoint.iter_connections (endpoint t) (fun tcb ->
      if
        in_group t ~group ~local_port:(Tcb.local_port tcb)
          ~remote_ip:(Tcb.remote_ip tcb) ~remote_port:(Tcb.remote_port tcb)
      then moving := tcb :: !moving);
  let moved =
    List.rev_map
      (fun tcb ->
        hand_over_tcb t dst tcb;
        (Tcb.cookie tcb, Tcb.flow_handle tcb))
      !moving
  in
  Tcp_endpoint.adopt_time_wait (endpoint dst) ~from:(endpoint t)
    ~select:(in_group t ~group);
  Log.debug (fun m ->
      m "thread %d migrated group %d (%d flows) to thread %d" t.id group
        (List.length moved) dst.id);
  moved

let park_inbound t ~group =
  if not (List.mem_assoc group t.parked_inbound) then
    t.parked_inbound <- (group, ref []) :: t.parked_inbound

let unpark_inbound t ~group =
  match List.assoc_opt group t.parked_inbound with
  | None -> 0
  | Some frames ->
      t.parked_inbound <- List.remove_assoc group t.parked_inbound;
      let ordered = List.rev !frames in
      t.replay <- t.replay @ ordered;
      kick t;
      List.length ordered

let rx_watermarks t =
  List.map (fun (_, q) -> Nic.rx_popped q + Nic.rx_pending q) t.queues

let drained_past t marks =
  List.for_all2 (fun (_, q) m -> Nic.rx_popped q >= m) t.queues marks
  && Ix_api.count t.events = 0
  && t.syscalls.len = 0
  && Hashtbl.length t.unaccepted = 0

let add_cycle_watcher t w =
  t.watchers <- t.watchers @ [ w ];
  (* Run at least one cycle so an already-satisfied predicate fires
     even on an otherwise idle thread. *)
  kick t

let set_ping_handler t f = t.ping_handler <- f

let set_background_work t ~slice_ns work =
  t.background <- Some (slice_ns, work);
  if t.state = Idle then begin
    Sim.disarm t.idle_wakeup;
    schedule_slice t (now t)
  end

let clear_background_work t = t.background <- None
let background_slices t = t.background_slices

let ping t ~dst ~ident ~seq =
  match Mempool.alloc t.pool with
  | None -> ()
  | Some mbuf ->
      Ixnet.Icmp_packet.write mbuf
        { Ixnet.Icmp_packet.kind = Ixnet.Icmp_packet.Echo_request; ident; seq; data = "ix-ping" };
      Ixnet.Ipv4_packet.prepend mbuf
        {
          Ixnet.Ipv4_packet.src = t.local_ip;
          dst;
          protocol = Ixnet.Ipv4_packet.Icmp;
          ttl = 64;
          ecn = 0;
          payload_len = mbuf.Mbuf.len;
        };
      resolve_and_frame t ~remote_ip:dst mbuf;
      kick t

let in_app_context t = t.in_user_phase
let note_app_fault t = Metrics.incr t.c_app_faults
let app_faults t = Metrics.value t.c_app_faults
let pool t = t.pool
let cycles_run t = Metrics.value t.c_cycles
let syscalls_processed t = Metrics.value t.c_syscalls
let nonresponsive_marks t = Metrics.value t.c_nonresponsive
let tracer t = t.tracer

let create ~sim ~thread_id ~core ~local_ip ~queues ~tx_nic ~arp ~rcu ~config ~tcp
    ~cache ~conn_count ~metrics ~rng =
  let pool = Mempool.create ~capacity:65536 ~name:(Printf.sprintf "dp%d" thread_id) () in
  let wheel = Wheel.create ~now:(Sim.now sim) () in
  let scratch_seed = Mbuf.create ~size:1 () in
  let c name = Metrics.counter metrics (Printf.sprintf "dataplane.%d.%s" thread_id name) in
  (* The wakeups are built with [t], which they act on: [self] is set
     below, before [sim] can fire one. *)
  let self = ref None in
  let wakeup f = Sim.wakeup sim (fun () -> f (Option.get !self)) in
  let t =
    {
      sim;
      id = thread_id;
      cpu = core;
      wheel;
      pool;
      queues;
      tx_nic;
      arp;
      rcu;
      batcher = Batch.create ~bound:config.batch_bound ~mode:config.batch_mode ();
      prot = Protection.create ();
      pol = Policy.create ();
      pcie = config.pcie;
      cache;
      conn_count;
      zero_copy = config.zero_copy;
      polling = config.polling;
      interrupt_latency_ns = 3_000;
      local_ip;
      ep = None;
      app = ignore;
      events = Ix_api.create_events ~fill:scratch_seed;
      event_batch = Ix_api.create_events ~fill:scratch_seed;
      unaccepted = Hashtbl.create 64;
      parked = Ix_api.create_events ~fill:scratch_seed;
      syscalls = syscalls ();
      syscall_batch = syscalls ();
      parked_inbound = [];
      replay = [];
      watchers = [];
      scratch_seed;
      rx_scratch = [||];
      tx_buf = [||];
      tx_len = 0;
      eth_scratch = Ixnet.Ethernet.scratch ();
      ip_scratch = Ixnet.Ipv4_packet.scratch ();
      seg_scratch = Seg.scratch ();
      kernel_ns_acc = 0;
      user_ns_acc = 0;
      cycle_start = 0;
      span_cursor = 0;
      state = Idle;
      in_user_phase = false;
      cycle_wakeup = wakeup run_cycle;
      idle_wakeup = wakeup kick;
      udp_binds = Hashtbl.create 8;
      metrics;
      tracer = Tracer.create ~capacity:tracer_capacity ~thread:thread_id ();
      c_cycles = c "cycles";
      c_rx_pkts = c "rx_pkts";
      c_tx_pkts = c "tx_pkts";
      c_events = c "events";
      c_syscalls = c "syscalls";
      c_nonresponsive = c "nonresponsive";
      c_rx_csum_drops = c "rx_csum_drops";
      c_rx_other = c "rx_other";
      c_app_faults = c "app_faults";
      user_timeout_ns = 10_000_000;
      ping_handler = (fun ~src_ip:_ _ -> ());
      background = None;
      background_slices = 0;
    }
  in
  let ep =
    Tcp_endpoint.create
      ~now:(fun () -> Sim.now sim)
      ~wheel
      ~alloc:(fun () -> Mempool.alloc pool)
      ~output_raw:(fun ~remote_ip mbuf -> output_raw t ~remote_ip mbuf)
      ~rng ~local_ip ~config:tcp ~metrics
      ~metrics_prefix:(Printf.sprintf "tcp.%d" thread_id)
      ~port_suitable:(fun ~remote_ip ~remote_port port ->
        (* §4.4: probe ephemeral ports until the *reply* direction
           RSS-hashes to one of this thread's queues. *)
        Nic.steers_to_queues queues ~src_ip:remote_ip ~dst_ip:local_ip
          ~src_port:remote_port ~dst_port:port)
      ()
  in
  t.ep <- Some ep;
  self := Some t;
  (* Batch telemetry: sampled live at snapshot time so the gauges
     always reflect the bound in effect (which moves in adaptive
     mode) and the amortization actually achieved. *)
  let g name f = Metrics.probe metrics (Printf.sprintf "dataplane.%d.batch.%s" thread_id name) f in
  g "bound" (fun () -> float_of_int (Batch.bound t.batcher));
  g "mean" (fun () -> Batch.mean_batch t.batcher);
  g "mean_tx_burst" (fun () -> Batch.mean_tx_burst t.batcher);
  (* Chain teardown: the endpoint unhooks flow tables; we additionally
     drop a pending knock and count the connection out. *)
  let env = Tcp_endpoint.env ep in
  let endpoint_teardown = env.Tcb.on_teardown in
  env.Tcb.on_teardown <-
    (fun tcb ->
      endpoint_teardown tcb;
      if Tcb.counted tcb then begin
        Tcb.set_counted tcb false;
        forget_unaccepted t (Tcb.flow_handle tcb);
        decr t.conn_count
      end);
  (* Wire NIC queue notifications to kick the thread. *)
  List.iter (fun (_, q) -> Nic.set_notify q (fun () -> kick t)) t.queues;
  t

(* Userspace bootstrap: applications start life in ring 3 and issue
   their first batched syscalls (listen-side accepts excepted) before
   any packet has arrived.  This enters user mode, runs the setup
   closure, returns to the kernel and kicks the first cycle. *)
let bootstrap t f =
  ignore (Protection.enter_user t.prot);
  t.in_user_phase <- true;
  f ();
  t.in_user_phase <- false;
  ignore (Protection.enter_kernel t.prot);
  kick t
