module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iov_deque = Ixmem.Iov_deque
module Wheel = Timerwheel.Timer_wheel
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Seg = Ixnet.Tcp_segment
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics

(* A socket's pending close reason, one static [Some] per reason, so a
   closing socket boxes nothing. *)
let some_reason : Tcb.close_reason -> Tcb.close_reason option = function
  | Tcb.Normal -> Some Tcb.Normal
  | Tcb.Reset -> Some Tcb.Reset
  | Tcb.Timeout -> Some Tcb.Timeout
  | Tcb.Refused -> Some Tcb.Refused

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
  backlog : Iov_deque.t; (* bytes send() took beyond the TCP budget *)
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
  mutable ready : socket array;
  mutable n_ready : int;
  mutable ready_spare : socket array;
  mutable jobs : (unit -> unit) array;
  mutable n_jobs : int;
  mutable jobs_spare : (unit -> unit) array;
  mutable no_socket : socket option;
  timer_wakeup : Sim.wakeup;
  mutable conn_seq : int;
  home : unit -> int;
  c_pkts : Metrics.counter;
  c_calls : Metrics.counter;
  rx_scratch : Mbuf.t array;
  eth_scratch : Ixnet.Ethernet.t;
  ip_scratch : Ixnet.Ipv4_packet.t;
  seg_scratch : Seg.t;
  send_scratch : Iov_deque.t;
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

(* Kernel timers piggyback on every RX pass, and wake the core on their
   own when no traffic arrives. *)
let run_timers c =
  let now = Sim.now c.sim in
  Wheel.advance c.wheel ~now;
  Wheel.arm_wakeup c.timer_wakeup ~earliest:now (Wheel.next_expiry c.wheel);
  if c.n_ready > 0 then c.hooks.wake c

(* ------------------------------------------------------------------ *)
(* Application side                                                    *)

(* [ready] and [jobs] hold their entries oldest first, in
   [0 .. n-1]; [run_batch] swaps each with its spare, so entries added
   while a pass runs wait for the next one.  Unused slots hold the
   core's filler socket (set once its endpoint exists, before any
   socket can be readied) or [ignore]. *)
let grown a n fill =
  let a' = Array.make (Int.max 16 (2 * n)) fill in
  Array.blit a 0 a' 0 n;
  a'

let mark_ready c socket =
  if not socket.in_ready then begin
    socket.in_ready <- true;
    if c.n_ready = Array.length c.ready then
      c.ready <- grown c.ready c.n_ready (Option.get c.no_socket);
    c.ready.(c.n_ready) <- socket;
    c.n_ready <- c.n_ready + 1
  end

let add_job c job =
  if c.n_jobs = Array.length c.jobs then c.jobs <- grown c.jobs c.n_jobs ignore;
  c.jobs.(c.n_jobs) <- job;
  c.n_jobs <- c.n_jobs + 1

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
    if not (Iov_deque.is_empty s.backlog) then ignore (Tcp_conn.send_from s.tcb s.backlog);
    s.handlers.Net_api.on_sent s.conn n
  end;
  match s.closed_reason with
  | Some reason ->
      s.closed_reason <- None;
      s.handlers.Net_api.on_closed s.conn reason
  | None -> ()

let run_batch c =
  let ready = c.ready and n_ready = c.n_ready and jobs = c.jobs and n_jobs = c.n_jobs in
  c.ready <- c.ready_spare;
  c.ready_spare <- ready;
  c.n_ready <- 0;
  c.jobs <- c.jobs_spare;
  c.jobs_spare <- jobs;
  c.n_jobs <- 0;
  for i = 0 to n_jobs - 1 do
    let job = jobs.(i) in
    jobs.(i) <- ignore;
    job ()
  done;
  if n_ready > 0 then begin
    let fill = Option.get c.no_socket in
    for i = 0 to n_ready - 1 do
      let socket = ready.(i) in
      ready.(i) <- fill;
      service_socket c socket
    done
  end

let pending c = c.n_ready > 0 || c.n_jobs > 0

(* ------------------------------------------------------------------ *)
(* Socket layer                                                        *)

(* A socket that is never readied: the filler for [ready]'s unused
   slots. *)
let filler_socket c =
  let tcb = Tcb.deref (Tcp_endpoint.env (Option.get c.ep)).Tcb.store 0 in
  {
    tcb;
    conn = Net_api.inert_conn ~peer:(0, 0) ~home:c.home;
    handlers = Net_api.null_handlers;
    rx_buf = Buffer.create 1;
    rx_bytes = 0;
    backlog = Iov_deque.create ();
    in_ready = false;
    sent_pending = 0;
    connected_pending = None;
    closed_reason = None;
  }

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
              let len = String.length data in
              call c;
              copy c len;
              (* The string itself goes onto the send queue, by way of
                 the core's empty scratch queue; what the TCP budget
                 refuses joins the backlog. *)
              let q = c.send_scratch in
              Iov_deque.push_substring q data 0 len;
              ignore (Tcp_conn.send_from tcb q);
              if not (Iov_deque.is_empty q) then
                ignore (Iov_deque.transfer ~src:q ~dst:s.backlog ~max_bytes:len);
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
          home = c.home;
        };
      handlers = Net_api.null_handlers;
      rx_buf = Buffer.create 64;
      rx_bytes = 0;
      backlog = Iov_deque.create ();
      in_ready = false;
      sent_pending = 0;
      connected_pending = None;
      closed_reason = None;
    }
  in
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
      s.closed_reason <- some_reason reason;
      decr c.conn_count;
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
  (* Wakeups are built with their core, which they act on: [all] is
     filled below, before [sim] can fire one. *)
  let all = ref [||] in
  let cores =
    Array.init threads (fun i ->
        let counter name =
          Metrics.counter registry (Printf.sprintf "%s.%d.%s" profile.name i name)
        in
        let wakeup f = Sim.wakeup sim (fun () -> f !all.(i)) in
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
          ready = [||];
          n_ready = 0;
          ready_spare = [||];
          jobs = [||];
          n_jobs = 0;
          jobs_spare = [||];
          no_socket = None;
          timer_wakeup = wakeup run_timers;
          conn_seq = 0;
          (* Flows are pinned to the accepting core: home never moves. *)
          home = (fun () -> i);
          c_pkts = counter "pkts";
          c_calls = counter profile.call_counter;
          (* The seed mbuf is inert filler for unclaimed slots. *)
          rx_scratch = Array.make profile.burst (Mbuf.create ~size:1 ());
          eth_scratch = Ixnet.Ethernet.scratch ();
          ip_scratch = Ixnet.Ipv4_packet.scratch ();
          seg_scratch = Seg.scratch ();
          send_scratch = Iov_deque.create ();
          profile;
          hooks;
          st = state counter wakeup;
        })
  in
  all := cores;
  Array.iter
    (fun c ->
      c.ep <-
        Some
          (Tcp_endpoint.create
             ~now:(fun () -> Sim.now sim)
             ~wheel:c.wheel
             ~alloc:(fun () -> Mempool.alloc c.pool)
             ~output_raw:(fun ~remote_ip mbuf -> output_raw c ~remote_ip mbuf)
             ~rng:(Engine.Rng.split rng) ~local_ip:ip ~config ~metrics:registry
             ~metrics_prefix:(Printf.sprintf "tcp.%d" c.idx)
             ~port_suitable:(fun ~remote_ip ~remote_port port ->
               (* RFS-perfect tuning: the reply lands on this core's queue. *)
               Nic.steers_to_queues c.queues ~src_ip:remote_ip ~dst_ip:ip
                 ~src_port:remote_port ~dst_port:port)
             ());
      c.no_socket <- Some (filler_socket c);
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
      call c;
      match
        Tcp_endpoint.connect (Option.get c.ep) ~remote_ip:dst_ip ~remote_port:port
          ~cookie:0 ()
      with
      | None ->
          (* Ephemeral ports exhausted: surface as a failed connect. *)
          handlers.Net_api.on_connected
            (Net_api.inert_conn ~peer:(dst_ip, port) ~home:c.home)
            ~ok:false
      | Some tcb ->
          let s = make_socket c tcb in
          s.handlers <- handlers;
          tcb.Tcb.callbacks.Tcb.on_connected <-
            (fun ok ->
              c.hooks.connected c s ok;
              mark_ready c s;
              c.hooks.wake c)
    in
    add_job c job;
    c.hooks.wake c
  in
  let run_app ~thread f =
    let c = cores.(thread) in
    add_job c f;
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
