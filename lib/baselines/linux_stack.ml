module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec
module Wheel = Timerwheel.Timer_wheel
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Seg = Ixnet.Tcp_segment
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics

let net_reason : Tcb.close_reason -> Net_api.close_reason = function
  | Tcb.Normal -> Net_api.Normal
  | Tcb.Reset -> Net_api.Reset
  | Tcb.Timeout -> Net_api.Timeout
  | Tcb.Refused -> Net_api.Refused

type costs = {
  irq_entry_ns : int;
  softirq_pkt_ns : int;
  wakeup_ns : int;
  epoll_ns : int;
  epoll_event_ns : int;
  syscall_ns : int;
  copy_ns_per_kb : int;
  proto_tx_ns : int;
  tx_pkt_ns : int;
  itr_interval_ns : int;
}

let default_costs =
  {
    irq_entry_ns = 1_500;
    softirq_pkt_ns = 2_300;
    wakeup_ns = 7_000;
    epoll_ns = 1_200;
    epoll_event_ns = 300;
    syscall_ns = 1_100;
    copy_ns_per_kb = 250;
    proto_tx_ns = 1_000;
    tx_pkt_ns = 700;
    itr_interval_ns = 20_000;
  }

(* Linux TCP parameters: 200 ms minimum RTO, 40 ms delayed ACK floor,
   4 MB buffers (autotuning endpoint), buffered POSIX send. *)
let linux_tcp_config =
  {
    Ixtcp.Tcb.default_config with
    Ixtcp.Tcb.rcv_buf = 4 * 1024 * 1024;
    snd_buf = 4 * 1024 * 1024;
    wscale = 9;
    min_rto_ns = 200_000_000;
    delack_ns = 40_000_000;
    buffered_send = true;
  }

type socket = {
  tcb : Tcb.t;
  conn : Net_api.conn;
  mutable handlers : Net_api.handlers;
  rx_buf : Buffer.t; (* socket receive queue, drained at read(2) time *)
  mutable rx_bytes : int;
  mutable backlog : Iovec.t list; (* bytes send() took beyond the TCP budget *)
  mutable in_ready : bool;
  mutable sent_pending : int; (* acked bytes not yet reported to the app *)
  mutable closed_reason : Net_api.close_reason option;
}

type core_ctx = {
  sim : Sim.t;
  idx : int;
  cache : Ixhw.Cache_model.t option;
  conn_count : int ref;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  mutable ep : Tcp_endpoint.t option;
  queues : (Nic.t * Nic.rx_queue) list;
  tx_nic : Nic.t;
  costs : costs;
  arp : (Ixnet.Ip_addr.t, Ixnet.Mac_addr.t) Hashtbl.t;
  (* Host-static ARP: the kernel resolves neighbours once; modelling
     the Linux neighbour cache in detail adds nothing here. *)
  arp_parked : (Ixnet.Ip_addr.t, Mbuf.t list) Hashtbl.t;
  mutable ready : socket list; (* reversed: sockets with pending app work *)
  mutable app_blocked : bool;
  mutable app_scheduled : bool;
  mutable irq_scheduled : bool;
  mutable last_irq : int;
  mutable timer_wakeup : Sim.handle; (* [Sim.no_handle] when none *)
  (* Cached wakeup thunks ([app_run ctx] / [do_irq ctx] / the timer
     advance), installed on first use — scheduling a wakeup is
     per-batch work and should not build a closure each time. *)
  mutable app_thunk : unit -> unit;
  mutable irq_thunk : unit -> unit;
  mutable timer_thunk : unit -> unit;
  sockets : (int, socket) Hashtbl.t; (* by tcb handle *)
  mutable jobs : (unit -> unit) list; (* deferred app closures *)
  mutable conn_seq : int;
  c_irqs : Metrics.counter;
  c_pkts : Metrics.counter;
  c_wakeups : Metrics.counter;
  c_syscalls : Metrics.counter;
  (* NAPI polls through this reusable array ([Nic.rx_burst_into]); the
     seed mbuf is inert filler for unclaimed slots. *)
  rx_scratch : Mbuf.t array;
  (* Per-core decoded-header scratch records (see lib/net decode_into):
     valid only while the current frame is inside [process_frame]. *)
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Seg.t;
}

(* ------------------------------------------------------------------ *)
(* Outbound path                                                       *)

let ethernet_frame ctx ~remote_ip mbuf =
  Ixnet.Ipv4_packet.prepend_fields mbuf
    ~src:(Tcp_endpoint.local_ip (Option.get ctx.ep))
    ~dst:remote_ip ~protocol:Ixnet.Ipv4_packet.Tcp ~ttl:64 ~ecn:0
    ~payload_len:mbuf.Mbuf.len;
  match Hashtbl.find ctx.arp remote_ip with
  | mac ->
      Ixnet.Ethernet.prepend_fields mbuf ~dst:mac ~src:(Nic.mac ctx.tx_nic)
        ~ethertype:Ixnet.Ethernet.Ipv4;
      Some mbuf
  | exception Not_found ->
      (* Kernel ARP: park the datagram, broadcast a request. *)
      let parked = Option.value ~default:[] (Hashtbl.find_opt ctx.arp_parked remote_ip) in
      Hashtbl.replace ctx.arp_parked remote_ip (mbuf :: parked);
      (match Mempool.alloc ctx.pool with
      | None -> ()
      | Some req ->
          Ixnet.Arp_packet.write req
            {
              Ixnet.Arp_packet.op = Ixnet.Arp_packet.Request;
              sender_mac = Nic.mac ctx.tx_nic;
              sender_ip = Tcp_endpoint.local_ip (Option.get ctx.ep);
              target_mac = Ixnet.Mac_addr.zero;
              target_ip = remote_ip;
            };
          Ixnet.Ethernet.prepend req
            {
              Ixnet.Ethernet.dst = Ixnet.Mac_addr.broadcast;
              src = Nic.mac ctx.tx_nic;
              ethertype = Ixnet.Ethernet.Arp;
            };
          Nic.transmit_at ctx.tx_nic req ~earliest:(Cpu_core.free_at ctx.cpu));
      None

let output_raw ctx ~remote_ip mbuf =
  (* TCP output runs in kernel context wherever it was triggered
     (syscall, softirq ACK, timer); charge and ship at core-free time. *)
  let now = Sim.now ctx.sim in
  ignore (Cpu_core.charge ctx.cpu ~now Cpu_core.Kernel ctx.costs.proto_tx_ns);
  match ethernet_frame ctx ~remote_ip mbuf with
  | None -> ()
  | Some frame ->
      ignore (Cpu_core.charge ctx.cpu ~now Cpu_core.Kernel ctx.costs.tx_pkt_ns);
      Nic.transmit_at ctx.tx_nic frame ~earliest:(Cpu_core.free_at ctx.cpu)

(* ------------------------------------------------------------------ *)
(* Application thread                                                  *)

let no_thunk () = ()

let mark_ready ctx socket =
  if not socket.in_ready then begin
    socket.in_ready <- true;
    ctx.ready <- socket :: ctx.ready
  end

let rec schedule_app ctx =
  if not ctx.app_scheduled then begin
    ctx.app_scheduled <- true;
    (* Wakeup: context switch into the blocked epoll thread. *)
    let now = Sim.now ctx.sim in
    let resume =
      if ctx.app_blocked then begin
        Metrics.incr ctx.c_wakeups;
        Cpu_core.charge ctx.cpu ~now Cpu_core.Kernel ctx.costs.wakeup_ns
      end
      else max now (Cpu_core.free_at ctx.cpu)
    in
    if ctx.app_thunk == no_thunk then ctx.app_thunk <- (fun () -> app_run ctx);
    ignore (Sim.at ctx.sim resume ctx.app_thunk)
  end

and charge_k ctx ns =
  ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now ctx.sim) Cpu_core.Kernel ns)

and charge_u ctx ns =
  ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now ctx.sim) Cpu_core.User ns)

(* Trim [k] accepted bytes off the front of a backlog iovec list. *)
and drop_accepted k = function
  | [] -> []
  | (iov : Iovec.t) :: rest ->
      if iov.Iovec.len <= k then drop_accepted (k - iov.Iovec.len) rest
      else Iovec.sub iov k (iov.Iovec.len - k) :: rest

and service_socket ctx socket =
  socket.in_ready <- false;
  charge_k ctx ctx.costs.epoll_event_ns;
  (* read(2): copy the receive queue out to user space. *)
  if socket.rx_bytes > 0 then begin
    let data = Buffer.contents socket.rx_buf in
    Buffer.clear socket.rx_buf;
    socket.rx_bytes <- 0;
    Metrics.incr ctx.c_syscalls;
    charge_k ctx ctx.costs.syscall_ns;
    charge_k ctx (ctx.costs.copy_ns_per_kb * String.length data / 1024);
    Tcp_conn.consume socket.tcb (String.length data);
    charge_u ctx 0;
    socket.handlers.Net_api.on_data socket.conn data
  end;
  if socket.sent_pending > 0 then begin
    let n = socket.sent_pending in
    socket.sent_pending <- 0;
    (* Flush backlog the TCP budget previously refused. *)
    if socket.backlog <> [] then begin
      let iovs = socket.backlog in
      socket.backlog <- [];
      let accepted = Tcp_conn.send socket.tcb iovs in
      socket.backlog <- drop_accepted accepted iovs
    end;
    socket.handlers.Net_api.on_sent socket.conn n
  end;
  match socket.closed_reason with
  | Some reason ->
      socket.closed_reason <- None;
      socket.handlers.Net_api.on_closed socket.conn reason
  | None -> ()

(* [jobs] and [ready] are kept newest first; these walk a list oldest
   first by recursing on the tail before handling the head, so a drain
   builds neither a reversed copy nor a partial application.  The
   recursion depth is one batch. *)
and run_jobs = function
  | [] -> ()
  | job :: older ->
      run_jobs older;
      job ()

and service_sockets ctx = function
  | [] -> ()
  | socket :: older ->
      service_sockets ctx older;
      service_socket ctx socket

and drain ctx =
  let ready = ctx.ready and jobs = ctx.jobs in
  ctx.ready <- [];
  ctx.jobs <- [];
  run_jobs jobs;
  service_sockets ctx ready;
  if ctx.ready <> [] || ctx.jobs <> [] then drain ctx

and app_run ctx =
  ctx.app_scheduled <- false;
  ctx.app_blocked <- false;
  (* epoll_wait returns a batch of ready descriptors. *)
  charge_k ctx ctx.costs.epoll_ns;
  drain ctx;
  ctx.app_blocked <- true

(* ------------------------------------------------------------------ *)
(* Interrupt / softirq path                                            *)

(* The GRO flow key is the 12 bytes (src ip, dst ip, ports) starting
   at the IPv4 source address; packed into two immediate ints so the
   per-packet comparison allocates nothing. *)
let gro_key_a mbuf =
  let b = mbuf.Mbuf.buf and o = mbuf.Mbuf.off in
  (Bytes.get_uint16_be b (o + 26) lsl 32)
  lor (Bytes.get_uint16_be b (o + 28) lsl 16)
  lor Bytes.get_uint16_be b (o + 30)

let gro_key_b mbuf =
  let b = mbuf.Mbuf.buf and o = mbuf.Mbuf.off in
  (Bytes.get_uint16_be b (o + 32) lsl 32)
  lor (Bytes.get_uint16_be b (o + 34) lsl 16)
  lor Bytes.get_uint16_be b (o + 36)

let rec do_irq ctx =
  ctx.irq_scheduled <- false;
  ctx.last_irq <- Sim.now ctx.sim;
  Metrics.incr ctx.c_irqs;
  charge_k ctx ctx.costs.irq_entry_ns;
  (* NAPI poll: drain the rings (64-packet budget per queue per pass).
     GRO: consecutive in-order segments of the same flow aggregate, so
     follow-up packets of a bulk stream cost a fraction of the first
     (this is what lets 2014-era Linux stream at several Gbit/s). *)
  napi ctx;
  (* Kernel timers piggyback on the softirq pass. *)
  Wheel.advance ctx.wheel ~now:(Sim.now ctx.sim);
  arm_timer_wakeup ctx;
  if ctx.ready <> [] then schedule_app ctx

and napi ctx =
  let processed = napi_queues ctx 0 ctx.queues in
  if processed > 0 then napi ctx

and napi_queues ctx processed = function
  | [] -> processed
  | (_, q) :: rest ->
      let n = Nic.rx_burst_into q ~into:ctx.rx_scratch ~off:0 ~max:64 in
      Nic.replenish q n;
      (* GRO state threads through as plain int arguments; -1 means no
         previous flow (real keys are non-negative 48-bit packs). *)
      napi_burst ctx n 0 (-1) (-1);
      napi_queues ctx (processed + n) rest

and napi_burst ctx n i prev_a prev_b =
  if i < n then begin
    let mbuf = ctx.rx_scratch.(i) in
    Metrics.incr ctx.c_pkts;
    if mbuf.Mbuf.len >= 38 then begin
      let a = gro_key_a mbuf and b = gro_key_b mbuf in
      if a = prev_a && b = prev_b then
        charge_k ctx (ctx.costs.softirq_pkt_ns / 3)
      else charge_k ctx ctx.costs.softirq_pkt_ns;
      napi_charge_cache ctx;
      process_frame ctx mbuf;
      napi_burst ctx n (i + 1) a b
    end
    else begin
      charge_k ctx ctx.costs.softirq_pkt_ns;
      napi_charge_cache ctx;
      process_frame ctx mbuf;
      napi_burst ctx n (i + 1) (-1) (-1)
    end
  end

and napi_charge_cache ctx =
  match ctx.cache with
  | Some cm ->
      charge_k ctx
        (Ixhw.Cache_model.extra_ns_per_message cm ~conns:!(ctx.conn_count) / 2)
  | None -> ()

and process_frame ctx mbuf =
  (* Scratch-record decode: the records are per-core and only valid
     until the next frame; rx_segment reads, never retains, them. *)
  (if Ixnet.Ethernet.decode_into mbuf ctx.eth_scratch then
     match ctx.eth_scratch.Ixnet.Ethernet.ethertype with
     | Ixnet.Ethernet.Arp -> process_arp ctx mbuf
     | Ixnet.Ethernet.Ipv4 ->
         let ip = ctx.ip_scratch in
         if Ixnet.Ipv4_packet.decode_into mbuf ip then begin
           match ip.Ixnet.Ipv4_packet.protocol with
           | Ixnet.Ipv4_packet.Tcp ->
               if
                 Seg.decode_into mbuf ~src:ip.Ixnet.Ipv4_packet.src
                   ~dst:ip.Ixnet.Ipv4_packet.dst ctx.seg_scratch
               then
                 Tcp_endpoint.rx_segment
                   ?ce:(Tcp_endpoint.ce_of_ecn ip.Ixnet.Ipv4_packet.ecn)
                   (Option.get ctx.ep) ~src_ip:ip.Ixnet.Ipv4_packet.src
                   ctx.seg_scratch mbuf
           | Ixnet.Ipv4_packet.Udp | Ixnet.Ipv4_packet.Icmp
           | Ixnet.Ipv4_packet.Other _ ->
               ()
         end
     | Ixnet.Ethernet.Other _ -> ());
  Mbuf.decref mbuf

and process_arp ctx mbuf =
  match Ixnet.Arp_packet.decode mbuf with
  | Error _ -> ()
  | Ok arp ->
      let sender_ip = arp.Ixnet.Arp_packet.sender_ip in
      let sender_mac = arp.Ixnet.Arp_packet.sender_mac in
      Hashtbl.replace ctx.arp sender_ip sender_mac;
      (match Hashtbl.find_opt ctx.arp_parked sender_ip with
      | Some parked ->
          Hashtbl.remove ctx.arp_parked sender_ip;
          List.iter
            (fun datagram ->
              Ixnet.Ethernet.prepend datagram
                {
                  Ixnet.Ethernet.dst = sender_mac;
                  src = Nic.mac ctx.tx_nic;
                  ethertype = Ixnet.Ethernet.Ipv4;
                };
              Nic.transmit_at ctx.tx_nic datagram ~earliest:(Cpu_core.free_at ctx.cpu))
            (List.rev parked)
      | None -> ());
      if arp.Ixnet.Arp_packet.op = Ixnet.Arp_packet.Request
         && arp.Ixnet.Arp_packet.target_ip = Tcp_endpoint.local_ip (Option.get ctx.ep)
      then begin
        match Mempool.alloc ctx.pool with
        | None -> ()
        | Some reply ->
            Ixnet.Arp_packet.write reply
              {
                Ixnet.Arp_packet.op = Ixnet.Arp_packet.Reply;
                sender_mac = Nic.mac ctx.tx_nic;
                sender_ip = Tcp_endpoint.local_ip (Option.get ctx.ep);
                target_mac = sender_mac;
                target_ip = sender_ip;
              };
            Ixnet.Ethernet.prepend reply
              {
                Ixnet.Ethernet.dst = sender_mac;
                src = Nic.mac ctx.tx_nic;
                ethertype = Ixnet.Ethernet.Arp;
              };
            Nic.transmit_at ctx.tx_nic reply ~earliest:(Cpu_core.free_at ctx.cpu)
      end

and arm_timer_wakeup ctx =
  Sim.cancel ctx.sim ctx.timer_wakeup;
  ctx.timer_wakeup <- Sim.no_handle;
  let deadline = Wheel.next_expiry ctx.wheel in
  if deadline <> Wheel.no_expiry then begin
    let at = max deadline (Sim.now ctx.sim) in
    if ctx.timer_thunk == no_thunk then
      ctx.timer_thunk <-
        (fun () ->
          Wheel.advance ctx.wheel ~now:(Sim.now ctx.sim);
          arm_timer_wakeup ctx;
          if ctx.ready <> [] then schedule_app ctx);
    ctx.timer_wakeup <- Sim.at ctx.sim at ctx.timer_thunk
  end

(* Interrupt moderation: fire now if the line has been quiet, else
   defer to the adaptive interval boundary. *)
let on_nic_notify ctx =
  if not ctx.irq_scheduled then begin
    ctx.irq_scheduled <- true;
    let now = Sim.now ctx.sim in
    let at = max now (ctx.last_irq + ctx.costs.itr_interval_ns) in
    if ctx.irq_thunk == no_thunk then ctx.irq_thunk <- (fun () -> do_irq ctx);
    ignore (Sim.at ctx.sim at ctx.irq_thunk)
  end

(* ------------------------------------------------------------------ *)
(* Socket layer                                                        *)

let make_socket ctx tcb =
  ctx.conn_seq <- ctx.conn_seq + 1;
  let charge_k ns = ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now ctx.sim) Cpu_core.Kernel ns) in
  let charge_syscall () =
    Metrics.incr ctx.c_syscalls;
    charge_k ctx.costs.syscall_ns
  in
  let rec socket =
    lazy
      (let conn =
         {
           Net_api.id = (ctx.idx * 1_000_000) + ctx.conn_seq;
           send =
             (fun data ->
               let s = Lazy.force socket in
               (* write(2): syscall + copy into the socket buffer. *)
               charge_syscall ();
               charge_k (ctx.costs.copy_ns_per_kb * String.length data / 1024);
               let iov = Iovec.of_string data in
               let accepted = Tcp_conn.send_iov s.tcb iov in
               if accepted < iov.Iovec.len then
                 s.backlog <-
                   s.backlog @ [ Iovec.sub iov accepted (iov.Iovec.len - accepted) ];
               true)
           ;
           close =
             (fun () ->
               charge_syscall ();
               Tcp_conn.close (Lazy.force socket).tcb);
           abort =
             (fun () ->
               charge_syscall ();
               Tcp_conn.abort (Lazy.force socket).tcb);
           peer = (Tcb.remote_ip tcb, Tcb.remote_port tcb);
           (* Linux sockets never migrate: home is the owning thread. *)
           home = (fun () -> ctx.idx);
         }
       in
       {
         tcb;
         conn;
         handlers = Net_api.null_handlers;
         rx_buf = Buffer.create 64;
         rx_bytes = 0;
         backlog = [];
         in_ready = false;
         sent_pending = 0;
         closed_reason = None;
       })
  in
  let s = Lazy.force socket in
  Hashtbl.replace ctx.sockets (Tcb.handle tcb) s;
  incr ctx.conn_count;
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      (* skb chain appended to the socket receive queue (no user copy
         yet — that happens at read(2) time). *)
      Buffer.add_subbytes s.rx_buf mbuf.Mbuf.buf off len;
      s.rx_bytes <- s.rx_bytes + len;
      Mbuf.decref mbuf;
      mark_ready ctx s;
      schedule_app ctx);
  cbs.Tcb.on_sent <-
    (fun n ->
      s.sent_pending <- s.sent_pending + n;
      mark_ready ctx s;
      schedule_app ctx);
  cbs.Tcb.on_closed <-
    (fun reason ->
      s.closed_reason <- Some (net_reason reason);
      decr ctx.conn_count;
      Hashtbl.remove ctx.sockets (Tcb.handle tcb);
      mark_ready ctx s;
      schedule_app ctx);
  s

(* ------------------------------------------------------------------ *)

let create ~sim ~host_id ~ip ~nics ~threads ?(costs = default_costs)
    ?(config = linux_tcp_config) ?cache ?metrics ~seed () =
  let registry =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let conn_count_ref = ref 0 in
  let arp = Hashtbl.create 64 in
  let arp_parked = Hashtbl.create 16 in
  let rng = Engine.Rng.create ~seed:(seed + (host_id * 104729)) in
  let contexts =
    Array.init threads (fun i ->
        let queues = Array.to_list (Array.map (fun nic -> (nic, Nic.queue nic i)) nics) in
        let c name =
          Metrics.counter registry (Printf.sprintf "linux.%d.%s" i name)
        in
        {
          sim;
          idx = i;
          cache;
          conn_count = conn_count_ref;
          cpu = Cpu_core.create ~id:((host_id * 100) + i);
          wheel = Wheel.create ~now:(Sim.now sim) ();
          pool = Mempool.create ~capacity:65536 ~name:(Printf.sprintf "linux%d" i) ();
          ep = None;
          queues;
          tx_nic = nics.(i mod Array.length nics);
          costs;
          arp;
          arp_parked;
          ready = [];
          app_blocked = true;
          app_scheduled = false;
          irq_scheduled = false;
          app_thunk = no_thunk;
          irq_thunk = no_thunk;
          timer_thunk = no_thunk;
          last_irq = min_int / 2;
          timer_wakeup = Sim.no_handle;
          sockets = Hashtbl.create 1024;
          jobs = [];
          conn_seq = 0;
          c_irqs = c "irqs";
          c_pkts = c "pkts";
          c_wakeups = c "wakeups";
          c_syscalls = c "syscalls";
          rx_scratch = Array.make 64 (Mbuf.create ~size:1 ());
          eth_scratch = Ixnet.Ethernet.scratch ();
          ip_scratch = Ixnet.Ipv4_packet.scratch ();
          seg_scratch = Seg.scratch ();
        })
  in
  (* One flow-handle allocator per stack, shared across its contexts,
     owned by this sim. *)
  let handle_alloc = ref 0 in
  Array.iter
    (fun ctx ->
      let ep =
        Tcp_endpoint.create
          ~now:(fun () -> Sim.now sim)
          ~wheel:ctx.wheel
          ~alloc:(fun () -> Mempool.alloc ctx.pool)
          ~output_raw:(fun ~remote_ip mbuf -> output_raw ctx ~remote_ip mbuf)
          ~rng:(Engine.Rng.split rng) ~local_ip:ip ~config ~metrics:registry
          ~metrics_prefix:(Printf.sprintf "tcp.%d" ctx.idx) ~handle_alloc ()
      in
      ctx.ep <- Some ep;
      List.iter (fun (_, q) -> Nic.set_notify q (fun () -> on_nic_notify ctx)) ctx.queues)
    contexts;
  Array.iter (fun nic -> Nic.set_indirection nic (fun group -> group mod threads)) nics;
  let acceptors : (int, thread:int -> Net_api.conn -> Net_api.handlers) Hashtbl.t =
    Hashtbl.create 8
  in
  let listen ~port acceptor =
    Hashtbl.replace acceptors port acceptor;
    Array.iter
      (fun ctx ->
        Tcp_endpoint.listen (Option.get ctx.ep) ~port ~on_accept:(fun tcb ->
            let s = make_socket ctx tcb in
            Metrics.incr ctx.c_syscalls;
            ignore
              (Cpu_core.charge ctx.cpu ~now:(Sim.now sim) Cpu_core.Kernel
                 costs.syscall_ns (* accept(2) *));
            s.handlers <- acceptor ~thread:ctx.idx s.conn))
      contexts
  in
  let connect ~thread ~ip:dst_ip ~port handlers =
    let ctx = contexts.(thread) in
    let job () =
      let port_suitable p =
        (* RFS-perfect tuning: the reply lands on this core's queue. *)
        List.for_all
          (fun (nic, q) ->
            Nic.rss_queue_of_tuple nic ~src_ip:dst_ip ~dst_ip:ip ~src_port:port
              ~dst_port:p
            = Nic.queue_index q)
          ctx.queues
      in
      Metrics.incr ctx.c_syscalls;
      ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now sim) Cpu_core.Kernel costs.syscall_ns);
      match
        Tcp_endpoint.connect (Option.get ctx.ep) ~remote_ip:dst_ip ~remote_port:port
          ~port_suitable ~cookie:0 ()
      with
      | None ->
          (* Ephemeral ports exhausted: surface as a failed connect. *)
          let dead_conn =
            {
              Net_api.id = -1;
              send = (fun _ -> false);
              close = ignore;
              abort = ignore;
              peer = (dst_ip, port);
              home = (fun () -> thread);
            }
          in
          handlers.Net_api.on_connected dead_conn ~ok:false
      | Some tcb ->
          let s = make_socket ctx tcb in
          s.handlers <- handlers;
          tcb.Tcb.callbacks.Tcb.on_connected <-
            (fun ok ->
              ctx.jobs <- (fun () -> s.handlers.Net_api.on_connected s.conn ~ok) :: ctx.jobs;
              mark_ready ctx s;
              schedule_app ctx)
    in
    ctx.jobs <- job :: ctx.jobs;
    schedule_app ctx
  in
  let run_app ~thread f =
    let ctx = contexts.(thread) in
    ctx.jobs <- f :: ctx.jobs;
    schedule_app ctx
  in
  let charge_app ~thread ns =
    let ctx = contexts.(thread) in
    ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now sim) Cpu_core.User ns)
  in
  Metrics.probe registry "kernel_share" (fun () ->
      let k = Array.fold_left (fun acc c -> acc + Cpu_core.kernel_ns c.cpu) 0 contexts in
      let u = Array.fold_left (fun acc c -> acc + Cpu_core.user_ns c.cpu) 0 contexts in
      if k + u = 0 then 0. else float_of_int k /. float_of_int (k + u));
  Metrics.probe registry "busy_ns" (fun () ->
      float_of_int
        (Array.fold_left (fun acc c -> acc + Cpu_core.busy_ns_total c.cpu) 0 contexts));
  let conn_count () =
    Array.fold_left
      (fun acc c -> acc + Tcp_endpoint.connection_count (Option.get c.ep))
      0 contexts
  in
  {
    Net_api.name = "linux";
    threads = Net_api.static_census threads;
    connect;
    listen;
    run_app;
    charge_app;
    metrics = (fun () -> Metrics.snapshot registry);
    conn_count;
  }
