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
  stack_pkt_ns : int;
  proto_tx_ns : int;
  tx_pkt_ns : int;
  api_call_ns : int;
  copy_ns_per_kb : int;
  app_event_ns : int;
  batch_interval_ns : int;
}

let default_costs =
  {
    stack_pkt_ns = 550;
    proto_tx_ns = 400;
    tx_pkt_ns = 150;
    api_call_ns = 120;
    copy_ns_per_kb = 200;
    app_event_ns = 60;
    batch_interval_ns = 40_000;
  }

(* mTCP keeps its own timers; its RTO floor is coarser than IX's but it
   bypasses the kernel's 200 ms floor. *)
let mtcp_tcp_config =
  {
    Ixtcp.Tcb.default_config with
    Ixtcp.Tcb.rcv_buf = 1 lsl 20;
    snd_buf = 1 lsl 20;
    min_rto_ns = 10_000_000;
    delack_ns = 1_000_000;
    buffered_send = true;
  }

type socket = {
  tcb : Tcb.t;
  conn : Net_api.conn;
  mutable handlers : Net_api.handlers;
  rx_buf : Buffer.t; (* receive queue, drained at mtcp_read time *)
  mutable rx_bytes : int;
  mutable backlog : Iovec.t list;
  mutable in_ready : bool;
  mutable sent_pending : int;
  mutable connected_pending : bool option;
  mutable closed_reason : Net_api.close_reason option;
}

type core_ctx = {
  sim : Sim.t;
  idx : int;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  mutable ep : Tcp_endpoint.t option;
  queues : (Nic.t * Nic.rx_queue) list;
  tx_nic : Nic.t;
  costs : costs;
  arp : (Ixnet.Ip_addr.t, Ixnet.Mac_addr.t) Hashtbl.t;
  arp_parked : (Ixnet.Ip_addr.t, Mbuf.t list) Hashtbl.t;
  mutable ready : socket list;
  mutable jobs : (unit -> unit) list;
  mutable round_scheduled : bool;
  mutable stack_scheduled : bool;
  mutable timer_wakeup : Sim.handle; (* [Sim.no_handle] when none *)
  mutable conn_seq : int;
  c_rounds : Metrics.counter;
  c_pkts : Metrics.counter;
  c_api_calls : Metrics.counter;
  (* Stack-thread poll fills this reusable array ([Nic.rx_burst_into]);
     the seed mbuf is inert filler for unclaimed slots. *)
  rx_scratch : Mbuf.t array;
  (* Per-core decoded-header scratch records (see lib/net decode_into):
     valid only while the current frame is inside [process_frame]. *)
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Seg.t;
}

let charge_k ctx ns = ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now ctx.sim) Cpu_core.Kernel ns)
let charge_u ctx ns = ignore (Cpu_core.charge ctx.cpu ~now:(Sim.now ctx.sim) Cpu_core.User ns)

(* Frames leave at core-free time plus half a batching interval: the
   stack thread picks up the app's command queue on its next pass. *)
let tx_frame ctx frame =
  charge_k ctx ctx.costs.tx_pkt_ns;
  let earliest = Cpu_core.free_at ctx.cpu + (ctx.costs.batch_interval_ns / 2) in
  Nic.transmit_at ctx.tx_nic frame ~earliest

let output_raw ctx ~remote_ip mbuf =
  charge_k ctx ctx.costs.proto_tx_ns;
  Ixnet.Ipv4_packet.prepend_fields mbuf
    ~src:(Tcp_endpoint.local_ip (Option.get ctx.ep))
    ~dst:remote_ip ~protocol:Ixnet.Ipv4_packet.Tcp ~ttl:64 ~ecn:0
    ~payload_len:mbuf.Mbuf.len;
  match Hashtbl.find ctx.arp remote_ip with
  | mac ->
      Ixnet.Ethernet.prepend_fields mbuf ~dst:mac ~src:(Nic.mac ctx.tx_nic)
        ~ethertype:Ixnet.Ethernet.Ipv4;
      tx_frame ctx mbuf
  | exception Not_found ->
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
          tx_frame ctx req)

let mark_ready ctx socket =
  if not socket.in_ready then begin
    socket.in_ready <- true;
    ctx.ready <- socket :: ctx.ready
  end

(* ---- app rounds: batch exchange every interval ---- *)

let rec schedule_round ctx =
  if not ctx.round_scheduled then begin
    ctx.round_scheduled <- true;
    let at = Sim.now ctx.sim + ctx.costs.batch_interval_ns in
    ignore (Sim.at ctx.sim at (fun () -> app_round ctx))
  end

and app_round ctx =
  ctx.round_scheduled <- false;
  Metrics.incr ctx.c_rounds;
  let ready = List.rev ctx.ready in
  ctx.ready <- [];
  let jobs = List.rev ctx.jobs in
  ctx.jobs <- [];
  List.iter (fun job -> job ()) jobs;
  List.iter
    (fun s ->
      s.in_ready <- false;
      charge_u ctx ctx.costs.app_event_ns;
      (match s.connected_pending with
      | Some ok ->
          s.connected_pending <- None;
          s.handlers.Net_api.on_connected s.conn ~ok
      | None -> ());
      if s.rx_bytes > 0 then begin
        let data = Buffer.contents s.rx_buf in
        Buffer.clear s.rx_buf;
        s.rx_bytes <- 0;
        Metrics.incr ctx.c_api_calls;
               charge_u ctx ctx.costs.api_call_ns;
        charge_u ctx (ctx.costs.copy_ns_per_kb * String.length data / 1024);
        Tcp_conn.consume s.tcb (String.length data);
        s.handlers.Net_api.on_data s.conn data
      end;
      if s.sent_pending > 0 then begin
        let n = s.sent_pending in
        s.sent_pending <- 0;
        if s.backlog <> [] then begin
          let iovs = s.backlog in
          s.backlog <- [];
          let accepted = Tcp_conn.send s.tcb iovs in
          let rec drop k = function
            | [] -> []
            | (iov : Iovec.t) :: rest ->
                if iov.Iovec.len <= k then drop (k - iov.Iovec.len) rest
                else Iovec.sub iov k (iov.Iovec.len - k) :: rest
          in
          s.backlog <- drop accepted iovs
        end;
        s.handlers.Net_api.on_sent s.conn n
      end;
      match s.closed_reason with
      | Some reason ->
          s.closed_reason <- None;
          s.handlers.Net_api.on_closed s.conn reason
      | None -> ())
    ready;
  if ctx.ready <> [] || ctx.jobs <> [] then schedule_round ctx

(* ---- stack thread: polls queues, processes immediately ---- *)

let rec process_frame ctx mbuf =
  Metrics.incr ctx.c_pkts;
  charge_k ctx ctx.costs.stack_pkt_ns;
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
              tx_frame ctx datagram)
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
            tx_frame ctx reply
      end

and stack_poll ctx =
  ctx.stack_scheduled <- false;
  List.iter
    (fun (_, q) ->
      let n = Nic.rx_burst_into q ~into:ctx.rx_scratch ~off:0 ~max:256 in
      Nic.replenish q n;
      for i = 0 to n - 1 do
        process_frame ctx ctx.rx_scratch.(i)
      done)
    ctx.queues;
  Wheel.advance ctx.wheel ~now:(Sim.now ctx.sim);
  arm_timer_wakeup ctx;
  if ctx.ready <> [] then schedule_round ctx

and arm_timer_wakeup ctx =
  Sim.cancel ctx.sim ctx.timer_wakeup;
  ctx.timer_wakeup <- Sim.no_handle;
  let deadline = Wheel.next_expiry ctx.wheel in
  if deadline <> Wheel.no_expiry then begin
    let at = max deadline (Sim.now ctx.sim) in
    ctx.timer_wakeup <-
      Sim.at ctx.sim at (fun () ->
          Wheel.advance ctx.wheel ~now:(Sim.now ctx.sim);
          arm_timer_wakeup ctx;
          if ctx.ready <> [] then schedule_round ctx)
  end

let on_nic_notify ctx =
  (* The dedicated stack thread polls; it notices new frames almost
     immediately. *)
  if not ctx.stack_scheduled then begin
    ctx.stack_scheduled <- true;
    ignore (Sim.after ctx.sim 500 (fun () -> stack_poll ctx))
  end

(* ---- sockets ---- *)

let make_socket ctx tcb =
  ctx.conn_seq <- ctx.conn_seq + 1;
  let rec socket =
    lazy
      (let conn =
         {
           Net_api.id = (ctx.idx * 1_000_000) + ctx.conn_seq;
           send =
             (fun data ->
               let s = Lazy.force socket in
               Metrics.incr ctx.c_api_calls;
               charge_u ctx ctx.costs.api_call_ns;
               charge_u ctx (ctx.costs.copy_ns_per_kb * String.length data / 1024);
               let iov = Iovec.of_string data in
               let accepted = Tcp_conn.send s.tcb [ iov ] in
               if accepted < iov.Iovec.len then
                 s.backlog <-
                   s.backlog @ [ Iovec.sub iov accepted (iov.Iovec.len - accepted) ];
               true);
           close =
             (fun () ->
               Metrics.incr ctx.c_api_calls;
               charge_u ctx ctx.costs.api_call_ns;
               Tcp_conn.close (Lazy.force socket).tcb);
           abort =
             (fun () ->
               Metrics.incr ctx.c_api_calls;
               charge_u ctx ctx.costs.api_call_ns;
               Tcp_conn.abort (Lazy.force socket).tcb);
           peer = (Tcb.remote_ip tcb, Tcb.remote_port tcb);
           (* mTCP pins flows to their accepting core: home never moves. *)
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
         connected_pending = None;
         closed_reason = None;
       })
  in
  let s = Lazy.force socket in
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      Buffer.add_subbytes s.rx_buf mbuf.Mbuf.buf off len;
      s.rx_bytes <- s.rx_bytes + len;
      Mbuf.decref mbuf;
      mark_ready ctx s;
      schedule_round ctx);
  cbs.Tcb.on_sent <-
    (fun n ->
      s.sent_pending <- s.sent_pending + n;
      mark_ready ctx s;
      schedule_round ctx);
  cbs.Tcb.on_closed <-
    (fun reason ->
      s.closed_reason <- Some (net_reason reason);
      mark_ready ctx s;
      schedule_round ctx);
  s

let create ~sim ~host_id ~ip ~nics ~threads ?(costs = default_costs)
    ?(config = mtcp_tcp_config) ?metrics ~seed () =
  if Array.length nics > 1 then
    invalid_arg "Mtcp_stack.create: mTCP does not support NIC bonding";
  let registry =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let arp = Hashtbl.create 64 in
  let arp_parked = Hashtbl.create 16 in
  let rng = Engine.Rng.create ~seed:(seed + (host_id * 13007)) in
  let contexts =
    Array.init threads (fun i ->
        let c name =
          Metrics.counter registry (Printf.sprintf "mtcp.%d.%s" i name)
        in
        {
          sim;
          idx = i;
          cpu = Cpu_core.create ~id:((host_id * 100) + i);
          wheel = Wheel.create ~now:(Sim.now sim) ();
          pool = Mempool.create ~capacity:65536 ~name:(Printf.sprintf "mtcp%d" i) ();
          ep = None;
          queues = Array.to_list (Array.map (fun nic -> (nic, Nic.queue nic i)) nics);
          tx_nic = nics.(0);
          costs;
          arp;
          arp_parked;
          ready = [];
          jobs = [];
          round_scheduled = false;
          stack_scheduled = false;
          timer_wakeup = Sim.no_handle;
          conn_seq = 0;
          c_rounds = c "rounds";
          c_pkts = c "pkts";
          c_api_calls = c "api_calls";
          rx_scratch = Array.make 256 (Mbuf.create ~size:1 ());
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
  let listen ~port acceptor =
    Array.iter
      (fun ctx ->
        Tcp_endpoint.listen (Option.get ctx.ep) ~port ~on_accept:(fun tcb ->
            let s = make_socket ctx tcb in
            s.handlers <- acceptor ~thread:ctx.idx s.conn))
      contexts
  in
  let connect ~thread ~ip:dst_ip ~port handlers =
    let ctx = contexts.(thread) in
    let job () =
      let port_suitable p =
        List.for_all
          (fun (nic, q) ->
            Nic.rss_queue_of_tuple nic ~src_ip:dst_ip ~dst_ip:ip ~src_port:port
              ~dst_port:p
            = Nic.queue_index q)
          ctx.queues
      in
      Metrics.incr ctx.c_api_calls;
               charge_u ctx ctx.costs.api_call_ns;
      match
        Tcp_endpoint.connect (Option.get ctx.ep) ~remote_ip:dst_ip ~remote_port:port
          ~port_suitable ~cookie:0 ()
      with
      | None ->
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
              s.connected_pending <- Some ok;
              mark_ready ctx s;
              schedule_round ctx)
    in
    ctx.jobs <- job :: ctx.jobs;
    schedule_round ctx
  in
  let run_app ~thread f =
    let ctx = contexts.(thread) in
    ctx.jobs <- f :: ctx.jobs;
    schedule_round ctx
  in
  let charge_app ~thread ns = charge_u contexts.(thread) ns in
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
    Net_api.name = "mtcp";
    threads = Net_api.static_census threads;
    connect;
    listen;
    run_app;
    charge_app;
    metrics = (fun () -> Metrics.snapshot registry);
    conn_count;
  }
