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

type profile = {
  name : string;
  domain : Cpu_core.domain;
  call_ns : int;
  call_counter : string;
  copy_ns_per_kb : int;
  event_ns : int;
  proto_tx_ns : int;
  accept_is_call : bool;
  burst : int;
}

type socket = {
  tcb : Tcb.t;
  conn : Net_api.conn;
  mutable handlers : Net_api.handlers;
  rx_buf : Buffer.t; (* receive queue, drained when the app reads *)
  mutable rx_bytes : int;
  mutable backlog : Iovec.t list; (* bytes send() took beyond the TCP budget *)
  mutable in_ready : bool;
  mutable sent_pending : int; (* acked bytes not yet reported to the app *)
  mutable connected_pending : bool option;
  mutable closed_reason : Net_api.close_reason option;
}

type 's t = {
  sim : Sim.t;
  idx : int;
  registry : Metrics.t;
  cpu : Cpu_core.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  mutable ep : Tcp_endpoint.t option;
  queues : (Nic.t * Nic.rx_queue) list;
  tx_nic : Nic.t;
  arp : (Ixnet.Ip_addr.t, Ixnet.Mac_addr.t) Hashtbl.t;
  arp_parked : (Ixnet.Ip_addr.t, Mbuf.t list) Hashtbl.t;
  conn_count : int ref;
  sockets : (int, socket) Hashtbl.t;
  mutable ready : socket list;
  mutable jobs : (unit -> unit) list;
  mutable timer_wakeup : Sim.handle;
  mutable timer_thunk : unit -> unit;
  mutable conn_seq : int;
  c_pkts : Metrics.counter;
  c_calls : Metrics.counter;
  rx_scratch : Mbuf.t array;
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Seg.t;
  profile : profile;
  hooks : 's hooks;
  st : 's;
}

and 's hooks = {
  notify : 's t -> unit;
  wake : 's t -> unit;
  connected : 's t -> socket -> bool -> unit;
  transmit : 's t -> Mbuf.t -> unit;
  transmit_ctrl : 's t -> Mbuf.t -> unit;
}

let no_thunk () = ()

let charge c domain ns = ignore (Cpu_core.charge c.cpu ~now:(Sim.now c.sim) domain ns)
let charge_k c ns = charge c Cpu_core.Kernel ns
let charge_u c ns = charge c Cpu_core.User ns

(* One socket call (read, write, close, abort, connect): a syscall on
   Linux, a library call on mTCP. *)
let call c =
  Metrics.incr c.c_calls;
  charge c c.profile.domain c.profile.call_ns

let copy c len = charge c c.profile.domain (c.profile.copy_ns_per_kb * len / 1024)
let local_ip c = Tcp_endpoint.local_ip (Option.get c.ep)

(* ------------------------------------------------------------------ *)
(* Outbound path and ARP                                               *)

(* Host-static ARP: the kernel resolves neighbours once; modelling the
   neighbour cache in detail adds nothing here. *)
let arp_frame c mbuf op ~dst ~target_mac ~target_ip =
  Ixnet.Arp_packet.write mbuf
    {
      Ixnet.Arp_packet.op;
      sender_mac = Nic.mac c.tx_nic;
      sender_ip = local_ip c;
      target_mac;
      target_ip;
    };
  Ixnet.Ethernet.prepend mbuf
    { Ixnet.Ethernet.dst; src = Nic.mac c.tx_nic; ethertype = Ixnet.Ethernet.Arp }

(* TCP output runs in kernel context wherever it was triggered (socket
   call, RX, timer). *)
let output_raw c ~remote_ip mbuf =
  charge_k c c.profile.proto_tx_ns;
  Ixnet.Ipv4_packet.prepend_fields mbuf ~src:(local_ip c) ~dst:remote_ip
    ~protocol:Ixnet.Ipv4_packet.Tcp ~ttl:64 ~ecn:0 ~payload_len:mbuf.Mbuf.len;
  match Hashtbl.find c.arp remote_ip with
  | mac ->
      Ixnet.Ethernet.prepend_fields mbuf ~dst:mac ~src:(Nic.mac c.tx_nic)
        ~ethertype:Ixnet.Ethernet.Ipv4;
      c.hooks.transmit c mbuf
  | exception Not_found -> (
      (* Park the datagram, broadcast a request. *)
      let parked = Option.value ~default:[] (Hashtbl.find_opt c.arp_parked remote_ip) in
      Hashtbl.replace c.arp_parked remote_ip (mbuf :: parked);
      match Mempool.alloc c.pool with
      | None -> ()
      | Some req ->
          arp_frame c req Ixnet.Arp_packet.Request ~dst:Ixnet.Mac_addr.broadcast
            ~target_mac:Ixnet.Mac_addr.zero ~target_ip:remote_ip;
          c.hooks.transmit_ctrl c req)

let process_arp c mbuf =
  match Ixnet.Arp_packet.decode mbuf with
  | Error _ -> ()
  | Ok arp ->
      let sender_ip = arp.Ixnet.Arp_packet.sender_ip in
      let sender_mac = arp.Ixnet.Arp_packet.sender_mac in
      Hashtbl.replace c.arp sender_ip sender_mac;
      (match Hashtbl.find_opt c.arp_parked sender_ip with
      | Some parked ->
          Hashtbl.remove c.arp_parked sender_ip;
          List.iter
            (fun datagram ->
              Ixnet.Ethernet.prepend_fields datagram ~dst:sender_mac
                ~src:(Nic.mac c.tx_nic) ~ethertype:Ixnet.Ethernet.Ipv4;
              c.hooks.transmit_ctrl c datagram)
            (List.rev parked)
      | None -> ());
      if arp.Ixnet.Arp_packet.op = Ixnet.Arp_packet.Request
         && arp.Ixnet.Arp_packet.target_ip = local_ip c
      then
        match Mempool.alloc c.pool with
        | None -> ()
        | Some reply ->
            arp_frame c reply Ixnet.Arp_packet.Reply ~dst:sender_mac ~target_mac:sender_mac
              ~target_ip:sender_ip;
            c.hooks.transmit_ctrl c reply

(* ------------------------------------------------------------------ *)
(* Inbound path and timers                                             *)

let process_frame c mbuf =
  (* Scratch-record decode: the records are per-core and only valid
     until the next frame; rx_segment reads, never retains, them. *)
  (if Ixnet.Ethernet.decode_into mbuf c.eth_scratch then
     match c.eth_scratch.Ixnet.Ethernet.ethertype with
     | Ixnet.Ethernet.Arp -> process_arp c mbuf
     | Ixnet.Ethernet.Ipv4 ->
         let ip = c.ip_scratch in
         if Ixnet.Ipv4_packet.decode_into mbuf ip then begin
           match ip.Ixnet.Ipv4_packet.protocol with
           | Ixnet.Ipv4_packet.Tcp ->
               if
                 Seg.decode_into mbuf ~src:ip.Ixnet.Ipv4_packet.src
                   ~dst:ip.Ixnet.Ipv4_packet.dst c.seg_scratch
               then
                 Tcp_endpoint.rx_segment
                   ?ce:(Tcp_endpoint.ce_of_ecn ip.Ixnet.Ipv4_packet.ecn)
                   (Option.get c.ep) ~src_ip:ip.Ixnet.Ipv4_packet.src c.seg_scratch
                   mbuf
           | Ixnet.Ipv4_packet.Udp | Ixnet.Ipv4_packet.Icmp | Ixnet.Ipv4_packet.Other _ -> ()
         end
     | Ixnet.Ethernet.Other _ -> ());
  Mbuf.decref mbuf

let rec arm_timer_wakeup c =
  Sim.cancel c.sim c.timer_wakeup;
  c.timer_wakeup <- Sim.no_handle;
  let deadline = Wheel.next_expiry c.wheel in
  if deadline <> Wheel.no_expiry then
    c.timer_wakeup <- Sim.at c.sim (max deadline (Sim.now c.sim)) c.timer_thunk

(* Kernel timers piggyback on every RX pass, and wake the core on their
   own when no traffic arrives. *)
and run_timers c =
  Wheel.advance c.wheel ~now:(Sim.now c.sim);
  arm_timer_wakeup c;
  if c.ready <> [] then c.hooks.wake c

(* ------------------------------------------------------------------ *)
(* Application side                                                    *)

let mark_ready c socket =
  if not socket.in_ready then begin
    socket.in_ready <- true;
    c.ready <- socket :: c.ready
  end

(* Trim [k] accepted bytes off the front of a backlog iovec list. *)
let rec drop_accepted k = function
  | [] -> []
  | (iov : Iovec.t) :: rest ->
      if iov.Iovec.len <= k then drop_accepted (k - iov.Iovec.len) rest
      else Iovec.sub iov k (iov.Iovec.len - k) :: rest

let service_socket c s =
  s.in_ready <- false;
  charge c c.profile.domain c.profile.event_ns;
  (match s.connected_pending with
  | Some ok ->
      s.connected_pending <- None;
      s.handlers.Net_api.on_connected s.conn ~ok
  | None -> ());
  (* read: copy the receive queue out to the application. *)
  if s.rx_bytes > 0 then begin
    let data = Buffer.contents s.rx_buf in
    Buffer.clear s.rx_buf;
    s.rx_bytes <- 0;
    call c;
    copy c (String.length data);
    Tcp_conn.consume s.tcb (String.length data);
    s.handlers.Net_api.on_data s.conn data
  end;
  if s.sent_pending > 0 then begin
    let n = s.sent_pending in
    s.sent_pending <- 0;
    (* Flush backlog the TCP budget previously refused. *)
    if s.backlog <> [] then begin
      let iovs = s.backlog in
      s.backlog <- [];
      let accepted = Tcp_conn.send s.tcb iovs in
      s.backlog <- drop_accepted accepted iovs
    end;
    s.handlers.Net_api.on_sent s.conn n
  end;
  match s.closed_reason with
  | Some reason ->
      s.closed_reason <- None;
      s.handlers.Net_api.on_closed s.conn reason
  | None -> ()

(* [jobs] and [ready] are kept newest first; these walk a list oldest
   first by recursing on the tail before handling the head, so a pass
   builds neither a reversed copy nor a partial application.  The
   recursion depth is one batch. *)
let rec run_jobs = function
  | [] -> ()
  | job :: older ->
      run_jobs older;
      job ()

let rec service_sockets c = function
  | [] -> ()
  | socket :: older ->
      service_sockets c older;
      service_socket c socket

let run_batch c =
  let ready = c.ready and jobs = c.jobs in
  c.ready <- [];
  c.jobs <- [];
  run_jobs jobs;
  service_sockets c ready

let pending c = c.ready <> [] || c.jobs <> []

(* ------------------------------------------------------------------ *)
(* Socket layer                                                        *)

let make_socket c tcb =
  c.conn_seq <- c.conn_seq + 1;
  let rec s =
    {
      tcb;
      conn =
        {
          Net_api.id = (c.idx * 1_000_000) + c.conn_seq;
          send =
            (fun data ->
              call c;
              copy c (String.length data);
              let iov = Iovec.of_string data in
              let accepted = Tcp_conn.send_iov tcb iov in
              if accepted < iov.Iovec.len then
                s.backlog <- s.backlog @ [ Iovec.sub iov accepted (iov.Iovec.len - accepted) ];
              true);
          close =
            (fun () ->
              call c;
              Tcp_conn.close tcb);
          abort =
            (fun () ->
              call c;
              Tcp_conn.abort tcb);
          peer = (Tcb.remote_ip tcb, Tcb.remote_port tcb);
          (* Flows are pinned to the accepting core: home never moves. *)
          home = (fun () -> c.idx);
        };
      handlers = Net_api.null_handlers;
      rx_buf = Buffer.create 64;
      rx_bytes = 0;
      backlog = [];
      in_ready = false;
      sent_pending = 0;
      connected_pending = None;
      closed_reason = None;
    }
  in
  Hashtbl.replace c.sockets (Tcb.handle tcb) s;
  incr c.conn_count;
  let cbs = tcb.Tcb.callbacks in
  cbs.Tcb.on_recv <-
    (fun mbuf off len ->
      (* Appended to the socket receive queue; the copy to the app
         happens at read time. *)
      Buffer.add_subbytes s.rx_buf mbuf.Mbuf.buf off len;
      s.rx_bytes <- s.rx_bytes + len;
      Mbuf.decref mbuf;
      mark_ready c s;
      c.hooks.wake c);
  cbs.Tcb.on_sent <-
    (fun n ->
      s.sent_pending <- s.sent_pending + n;
      mark_ready c s;
      c.hooks.wake c);
  cbs.Tcb.on_closed <-
    (fun reason ->
      s.closed_reason <- Some (net_reason reason);
      decr c.conn_count;
      Hashtbl.remove c.sockets (Tcb.handle tcb);
      mark_ready c s;
      c.hooks.wake c);
  s

(* ------------------------------------------------------------------ *)

let create ~sim ~host_id ~ip ~nics ~threads ~config ?metrics ~seed ~profile ~hooks
    ~state () =
  let registry = match metrics with Some m -> m | None -> Metrics.create () in
  let conn_count = ref 0 in
  let arp = Hashtbl.create 64 in
  let arp_parked = Hashtbl.create 16 in
  let rng = Engine.Rng.create ~seed in
  let cores =
    Array.init threads (fun i ->
        let counter name =
          Metrics.counter registry (Printf.sprintf "%s.%d.%s" profile.name i name)
        in
        {
          sim;
          idx = i;
          registry;
          cpu = Cpu_core.create ~id:((host_id * 100) + i);
          wheel = Wheel.create ~now:(Sim.now sim) ();
          pool = Mempool.create ~capacity:65536 ~name:(Printf.sprintf "%s%d" profile.name i) ();
          ep = None;
          queues = Array.to_list (Array.map (fun nic -> (nic, Nic.queue nic i)) nics);
          tx_nic = nics.(i mod Array.length nics);
          arp;
          arp_parked;
          conn_count;
          sockets = Hashtbl.create 1024;
          ready = [];
          jobs = [];
          timer_wakeup = Sim.no_handle;
          timer_thunk = no_thunk;
          conn_seq = 0;
          c_pkts = counter "pkts";
          c_calls = counter profile.call_counter;
          (* The seed mbuf is inert filler for unclaimed slots. *)
          rx_scratch = Array.make profile.burst (Mbuf.create ~size:1 ());
          eth_scratch = Ixnet.Ethernet.scratch ();
          ip_scratch = Ixnet.Ipv4_packet.scratch ();
          seg_scratch = Seg.scratch ();
          profile;
          hooks;
          st = state counter;
        })
  in
  (* One flow-handle allocator per stack, shared across its cores,
     owned by this sim. *)
  let handle_alloc = ref 0 in
  Array.iter
    (fun c ->
      c.timer_thunk <- (fun () -> run_timers c);
      c.ep <-
        Some
          (Tcp_endpoint.create
             ~now:(fun () -> Sim.now sim)
             ~wheel:c.wheel
             ~alloc:(fun () -> Mempool.alloc c.pool)
             ~output_raw:(fun ~remote_ip mbuf -> output_raw c ~remote_ip mbuf)
             ~rng:(Engine.Rng.split rng) ~local_ip:ip ~config ~metrics:registry
             ~metrics_prefix:(Printf.sprintf "tcp.%d" c.idx) ~handle_alloc ());
      List.iter (fun (_, q) -> Nic.set_notify q (fun () -> c.hooks.notify c)) c.queues)
    cores;
  Array.iter (fun nic -> Nic.set_indirection nic (fun group -> group mod threads)) nics;
  cores

let stack cores =
  let c0 = cores.(0) in
  let registry = c0.registry in
  let listen ~port acceptor =
    Array.iter
      (fun c ->
        Tcp_endpoint.listen (Option.get c.ep) ~port ~on_accept:(fun tcb ->
            let s = make_socket c tcb in
            if c.profile.accept_is_call then call c;
            s.handlers <- acceptor ~thread:c.idx s.conn))
      cores
  in
  let connect ~thread ~ip:dst_ip ~port handlers =
    let c = cores.(thread) in
    let job () =
      let port_suitable p =
        (* RFS-perfect tuning: the reply lands on this core's queue. *)
        List.for_all
          (fun (nic, q) ->
            Nic.rss_queue_of_tuple nic ~src_ip:dst_ip ~dst_ip:(local_ip c) ~src_port:port
              ~dst_port:p
            = Nic.queue_index q)
          c.queues
      in
      call c;
      match
        Tcp_endpoint.connect (Option.get c.ep) ~remote_ip:dst_ip ~remote_port:port
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
          let s = make_socket c tcb in
          s.handlers <- handlers;
          tcb.Tcb.callbacks.Tcb.on_connected <-
            (fun ok ->
              c.hooks.connected c s ok;
              mark_ready c s;
              c.hooks.wake c)
    in
    c.jobs <- job :: c.jobs;
    c.hooks.wake c
  in
  let run_app ~thread f =
    let c = cores.(thread) in
    c.jobs <- f :: c.jobs;
    c.hooks.wake c
  in
  let charge_app ~thread ns = charge_u cores.(thread) ns in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cores in
  Metrics.probe registry "kernel_share" (fun () ->
      let k = sum (fun c -> Cpu_core.kernel_ns c.cpu) in
      let u = sum (fun c -> Cpu_core.user_ns c.cpu) in
      if k + u = 0 then 0. else float_of_int k /. float_of_int (k + u));
  Metrics.probe registry "busy_ns" (fun () ->
      float_of_int (sum (fun c -> Cpu_core.busy_ns_total c.cpu)));
  {
    Net_api.name = c0.profile.name;
    threads = Net_api.static_census (Array.length cores);
    connect;
    listen;
    run_app;
    charge_app;
    metrics = (fun () -> Metrics.snapshot registry);
    conn_count = (fun () -> sum (fun c -> Tcp_endpoint.connection_count (Option.get c.ep)));
  }
