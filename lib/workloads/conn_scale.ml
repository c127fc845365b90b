(* Million-connection churn workload (DESIGN.md §8b).

   One [Tcp_endpoint] plays the server; the million clients are
   synthetic — raw TCP segments crafted straight into mbufs and fed to
   [rx_segment], with all per-client state held in unboxed int arrays
   (a byte of state machine, two sequence numbers).  A real client
   stack per connection would cost more memory than the server under
   test and would swamp the measurement.

   The driver is single-threaded and clocked manually: crafting a
   segment, feeding it, and draining the server's replies is one
   synchronous step, so a fixed seed reproduces every counter exactly.
   Server replies are queued by [output_raw] and drained only after
   [rx_segment] returns — processing them inline would re-enter the
   endpoint while its scratch decode records are still live.

   Phases:
   1. establish [conns] connections (SYN-cookie handshake when
      [syn_cookies], classic SYN/SYN-ACK/ACK otherwise), then measure
      resident bytes per connection (217.5 B at 1 M connections) —
      each resident reading is one [Gc.stat], whose own full
      collection makes the count exact;
   2. churn: [events] iterations — Zipf-hot connections send 64 B
      messages; every [churn_every]-th event the server closes a
      uniformly random victim (FIN handshake, its flow-table entry
      becomes a TIME_WAIT remnant) and the client reconnects on the
      *same* 4-tuple, either immediately (exercising the
      remnant-supersede path) or after the remnant expires (exercising
      the sweep path).

   [syn_flood] is the stateless-listen leg: SYNs that never complete
   the handshake must allocate no TCBs. *)

module Wheel = Timerwheel.Timer_wheel
module Seg = Ixnet.Tcp_segment
module Ip_addr = Ixnet.Ip_addr
module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Tcp_endpoint = Ixtcp.Tcp_endpoint

let server_port = 80
let client_port_lo = 2_000
let ports_per_ip = 60_000
let msg_size = 64
let event_ns = 2_000 (* simulated time per churn event *)

(* Client state-machine values (one byte per connection). *)
let st_closed = '\000'
let st_syn_sent = '\001'
let st_established = '\002'
let st_closing = '\003' (* our FIN sent, waiting for the final ACK *)

let server_ip = Ip_addr.of_octets 10 0 0 1

(* Connection [i] owns the 4-tuple (10.1.b_hi.b_lo : 2000 + i mod
   60000) -> (server : 80), with b = i / 60000. *)
let client_ip i =
  let block = i / ports_per_ip in
  Ip_addr.of_octets 10 1 (block lsr 8) (block land 0xFF)

let client_port i = client_port_lo + (i mod ports_per_ip)

let index_of ~remote_ip ~remote_port =
  let block = remote_ip land 0xFFFF in
  (block * ports_per_ip) + (remote_port - client_port_lo)

(* Server replies awaiting the drain: a FIFO ring of (remote ip, mbuf)
   in two flat arrays, like a link's in-flight ring, so queueing a
   reply allocates no tuple and no queue cell.  Popped mbuf slots hold
   [hole], so the ring keeps no drained reply alive. *)
type outq = {
  mutable ips : Ip_addr.t array;
  mutable mbufs : Mbuf.t array;
  mutable head : int;
  mutable count : int;
  hole : Mbuf.t;
}

let outq_create () =
  { ips = [||]; mbufs = [||]; head = 0; count = 0; hole = Mbuf.create ~size:0 () }

let outq_push q ip mbuf =
  let cap = Array.length q.mbufs in
  if q.count = cap then begin
    let cap' = Int.max 16 (2 * cap) in
    let ips' = Array.make cap' 0 and mbufs' = Array.make cap' q.hole in
    for k = 0 to q.count - 1 do
      let i = (q.head + k) land (cap - 1) in
      ips'.(k) <- q.ips.(i);
      mbufs'.(k) <- q.mbufs.(i)
    done;
    q.ips <- ips';
    q.mbufs <- mbufs';
    q.head <- 0
  end;
  let i = (q.head + q.count) land (Array.length q.mbufs - 1) in
  q.ips.(i) <- ip;
  q.mbufs.(i) <- mbuf;
  q.count <- q.count + 1

let outq_pop q =
  let i = q.head in
  let mbuf = q.mbufs.(i) in
  q.mbufs.(i) <- q.hole;
  q.head <- (i + 1) land (Array.length q.mbufs - 1);
  q.count <- q.count - 1;
  mbuf

type t = {
  ep : Tcp_endpoint.t;
  wheel : Wheel.t;
  pool : Mempool.t;
  rng : Engine.Rng.t;
  zipf : Zipf.t;
  now : int ref;
  conns : int;
  tx_scratch : Seg.t; (* crafted client headers *)
  rx_scratch : Seg.t; (* decoded server replies *)
  payload : string;
  outq : outq;
  (* per-connection client columns *)
  st : Bytes.t;
  c_snd_nxt : int array;
  c_rcv_nxt : int array;
  server_tcb : Tcb.t array;
      (* the server's view of each connection, or the store's dead
         view while it has none — a bare view, so a connection costs
         the driver no option box *)
  (* delayed reopens: a FIFO ring of (index, due-time) *)
  pend_idx : int array;
  pend_due : int array;
  mutable pend_head : int;
  mutable pend_tail : int;
  mutable cur : int; (* connection being serviced (for shared callbacks) *)
  (* counters *)
  mutable established : int;
  mutable closes : int;
  mutable reconnects : int;
  mutable data_segs : int;
  mutable client_segs : int;
  mutable server_segs : int;
}

let time_wait_ns cfg = cfg.Tcb.time_wait_ns

(* ------------------------------------------------------------------ *)
(* Client segment crafting                                             *)

let craft t ~src_ip ~src_port ~seq ~ack ~syn ~fin ~ack_flag ~payload =
  match Mempool.alloc t.pool with
  | None -> failwith "conn_scale: mbuf pool exhausted"
  | Some mbuf ->
      if payload > 0 then Mbuf.append mbuf t.payload;
      let s = t.tx_scratch in
      s.Seg.src_port <- src_port;
      s.Seg.dst_port <- server_port;
      s.Seg.seq <- seq land 0xFFFF_FFFF;
      s.Seg.ack <- ack land 0xFFFF_FFFF;
      s.Seg.syn <- syn;
      s.Seg.ack_flag <- ack_flag;
      s.Seg.fin <- fin;
      s.Seg.rst <- false;
      s.Seg.psh <- payload > 0;
      s.Seg.ece <- false;
      s.Seg.cwr <- false;
      s.Seg.window <- 0xFFFF;
      s.Seg.mss <- (if syn then Some 1460 else None);
      s.Seg.wscale <- None;
      s.Seg.payload_off <- mbuf.Mbuf.off;
      s.Seg.payload_len <- payload;
      t.client_segs <- t.client_segs + 1;
      Tcp_endpoint.rx_segment t.ep ~src_ip s mbuf;
      Mbuf.decref mbuf

(* ------------------------------------------------------------------ *)
(* Client reactions to server replies                                  *)

let handle_reply t remote_ip mbuf =
  t.server_segs <- t.server_segs + 1;
  if Seg.decode_into mbuf ~src:server_ip ~dst:remote_ip t.rx_scratch then begin
    let s = t.rx_scratch in
    let i = index_of ~remote_ip ~remote_port:s.Seg.dst_port in
    if i >= 0 && i < t.conns then begin
      (* Everything needed is in locals before the next [craft] call
         reuses the scratch records. *)
      let seq = s.Seg.seq
      and syn = s.Seg.syn
      and fin = s.Seg.fin
      and rst = s.Seg.rst
      and plen = s.Seg.payload_len in
      let src_ip = client_ip i and src_port = client_port i in
      t.cur <- i;
      match Bytes.get t.st i with
      | _ when rst -> Bytes.set t.st i st_closed
      | c when c = st_syn_sent && syn ->
          (* SYN-ACK (stateless cookie or SYN_RCVD): complete. *)
          t.c_rcv_nxt.(i) <- seq + 1;
          craft t ~src_ip ~src_port ~seq:t.c_snd_nxt.(i)
            ~ack:t.c_rcv_nxt.(i) ~syn:false ~fin:false ~ack_flag:true
            ~payload:0
      | c when c = st_established && fin ->
          (* Server-initiated close: ACK the FIN and send ours. *)
          t.c_rcv_nxt.(i) <- seq + plen + 1;
          Bytes.set t.st i st_closing;
          craft t ~src_ip ~src_port ~seq:t.c_snd_nxt.(i)
            ~ack:t.c_rcv_nxt.(i) ~syn:false ~fin:true ~ack_flag:true
            ~payload:0;
          t.c_snd_nxt.(i) <- t.c_snd_nxt.(i) + 1
      | c when c = st_closing ->
          (* The final ACK of our FIN; the server is now in TIME_WAIT
             (already recycled into the remnant table). *)
          Bytes.set t.st i st_closed
      | c when c = st_established && plen > 0 ->
          (* Server payload (none in this workload, but stay correct). *)
          t.c_rcv_nxt.(i) <- seq + plen;
          craft t ~src_ip ~src_port ~seq:t.c_snd_nxt.(i)
            ~ack:t.c_rcv_nxt.(i) ~syn:false ~fin:false ~ack_flag:true
            ~payload:0
      | _ -> () (* pure ACK / window update: nothing to do *)
    end
  end

let pump t =
  let q = t.outq in
  while q.count > 0 do
    let remote_ip = q.ips.(q.head) in
    let mbuf = outq_pop q in
    handle_reply t remote_ip mbuf;
    Mbuf.decref mbuf
  done

(* ------------------------------------------------------------------ *)
(* Driver construction                                                 *)

let make ~conns ~syn_cookies ~fast_path ~seed =
  let config =
    { Tcb.default_config with Tcb.syn_cookies; fast_path }
  in
  let now = ref 0 in
  let wheel = Wheel.create ~now:0 () in
  let pool = Mempool.create ~capacity:32_768 ~name:"conn-scale" () in
  let store = Tcb.store_create ~initial:(conns + 16) () in
  let outq = outq_create () in
  let ep =
    Tcp_endpoint.create
      ~now:(fun () -> !now)
      ~wheel
      ~alloc:(fun () -> Mempool.alloc pool)
      ~output_raw:(fun ~remote_ip mbuf -> outq_push outq remote_ip mbuf)
      ~rng:(Engine.Rng.create ~seed)
      ~local_ip:server_ip ~config ~store ()
  in
  let t =
    {
      ep;
      wheel;
      pool;
      rng = Engine.Rng.create ~seed:(seed + 1);
      zipf = Zipf.create ~n:conns ~theta:0.99;
      now;
      conns;
      tx_scratch = Seg.scratch ();
      rx_scratch = Seg.scratch ();
      payload = String.make msg_size 'd';
      outq;
      st = Bytes.make conns st_closed;
      c_snd_nxt = Array.make conns 0;
      c_rcv_nxt = Array.make conns 0;
      server_tcb = Array.make conns (Tcb.dead_view store);
      pend_idx = Array.make (max 16 conns) 0;
      pend_due = Array.make (max 16 conns) 0;
      pend_head = 0;
      pend_tail = 0;
      cur = -1;
      established = 0;
      closes = 0;
      reconnects = 0;
      data_segs = 0;
      client_segs = 0;
      server_segs = 0;
    }
  in
  (* Shared application callbacks — one closure set for every
     connection, dispatching on [t.cur] (payload delivery only happens
     synchronously inside the rx calls of the drain loop, so [cur] is
     always the connection being serviced).  Per-connection closures
     at a million connections would be real memory. *)
  let on_recv mbuf _off len =
    Mbuf.decref mbuf;
    let tcb = t.server_tcb.(t.cur) in
    if not (Tcb.is_dead tcb) then Tcp_conn.consume tcb len
  in
  Tcp_endpoint.listen ep ~port:server_port ~on_accept:(fun tcb ->
      let i =
        index_of ~remote_ip:(Tcb.remote_ip tcb)
          ~remote_port:(Tcb.remote_port tcb)
      in
      Tcb.set_cookie tcb i;
      t.established <- t.established + 1;
      t.server_tcb.(i) <- tcb;
      Bytes.set t.st i st_established;
      let cb = tcb.Tcb.callbacks in
      cb.Tcb.on_recv <- on_recv;
      cb.Tcb.on_closed <- ignore);
  t

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)

let send_syn t i =
  let iss = t.c_snd_nxt.(i) + 4_096 in
  (* Strictly above the remnant's recorded edge, so an immediate
     reconnect supersedes a live TIME_WAIT remnant (RFC 6191 style). *)
  t.c_snd_nxt.(i) <- iss + 1;
  Bytes.set t.st i st_syn_sent;
  craft t ~src_ip:(client_ip i) ~src_port:(client_port i) ~seq:iss ~ack:0
    ~syn:true ~fin:false ~ack_flag:false ~payload:0;
  pump t

let send_data t i =
  t.cur <- i;
  t.data_segs <- t.data_segs + 1;
  craft t ~src_ip:(client_ip i) ~src_port:(client_port i)
    ~seq:t.c_snd_nxt.(i) ~ack:t.c_rcv_nxt.(i) ~syn:false ~fin:false
    ~ack_flag:true ~payload:msg_size;
  t.c_snd_nxt.(i) <- t.c_snd_nxt.(i) + msg_size;
  pump t

let close_conn t i ~delay_reopen =
  match t.server_tcb.(i) with
  | tcb when Tcb.is_dead tcb -> ()
  | tcb ->
      t.closes <- t.closes + 1;
      t.cur <- i;
      Tcp_conn.close tcb;
      (* FIN -> client ACK+FIN -> server final ACK; the server TCB is
         released into the TIME_WAIT remnant table inside this drain. *)
      pump t;
      t.server_tcb.(i) <- Tcb.dead_view tcb.Tcb.store;
      if delay_reopen then begin
        (* Reopen after the remnant's quiet period, exercising sweep
           expiry rather than SYN supersession. *)
        t.pend_idx.(t.pend_tail mod Array.length t.pend_idx) <- i;
        t.pend_due.(t.pend_tail mod Array.length t.pend_due) <-
          !(t.now) + (2 * time_wait_ns (Tcp_endpoint.config t.ep));
        t.pend_tail <- t.pend_tail + 1
      end
      else begin
        t.reconnects <- t.reconnects + 1;
        send_syn t i
      end

let service_reopens t =
  while
    t.pend_head < t.pend_tail
    && t.pend_due.(t.pend_head mod Array.length t.pend_due) <= !(t.now)
  do
    let i = t.pend_idx.(t.pend_head mod Array.length t.pend_idx) in
    t.pend_head <- t.pend_head + 1;
    t.reconnects <- t.reconnects + 1;
    send_syn t i
  done

(* ------------------------------------------------------------------ *)
(* The measured run                                                    *)

type result = {
  r_conns : int;
  r_events : int;
  r_established : int;
  r_closes : int;
  r_reconnects : int;
  r_client_segs : int;
  r_server_segs : int;
  r_connection_count : int;
  r_store_live : int;
  r_store_capacity : int;
  r_time_wait_live : int;
  r_cookies_sent : int;
  r_cookies_validated : int;
  r_cookies_rejected : int;
  r_rsts : int;
  r_fast_hits : int;
  r_slow_hits : int;
  r_wheel : Wheel.stats;
  r_bytes_per_conn : float;  (** resident heap per connection, read by [Gc.stat] *)
  r_store_bytes_per_conn : float;  (** the TCB store's own arrays per connection *)
  r_establish_minor_words_per_conn : float;
  r_churn_minor_words_per_event : float;
  r_snapshot : string;  (** deterministic counters only — no memory/wall *)
}

(* [Gc.stat] runs a full major collection of its own before it counts
   (OCaml 5), so one reading costs one collection; a [Gc.full_major]
   in front of it would only double the cost and read the same words. *)
let live_words () = (Gc.stat ()).Gc.live_words

let snapshot_of t =
  let ws = Wheel.stats t.wheel in
  Printf.sprintf
    "est=%d closes=%d reconnects=%d data=%d csegs=%d ssegs=%d live=%d \
     store=%d/%d tw=%d cookies=%d/%d/%d rsts=%d fast=%d slow=%d \
     wheel=%d/%d/%d"
    t.established t.closes t.reconnects t.data_segs t.client_segs
    t.server_segs
    (Tcp_endpoint.connection_count t.ep)
    (Tcb.store_live (Tcp_endpoint.env t.ep).Tcb.store)
    (Tcb.store_capacity (Tcp_endpoint.env t.ep).Tcb.store)
    (Tcp_endpoint.time_wait_count t.ep)
    (Tcp_endpoint.syn_cookies_sent t.ep)
    (Tcp_endpoint.syn_cookies_validated t.ep)
    (Tcp_endpoint.syn_cookies_rejected t.ep)
    (Tcp_endpoint.rsts_sent t.ep)
    (Tcp_endpoint.fast_path_hits t.ep)
    (Tcp_endpoint.slow_path_hits t.ep)
    (ws.Wheel.armed + ws.Wheel.fired + ws.Wheel.cancelled)
    ws.Wheel.fired ws.Wheel.cancelled

let run ?(syn_cookies = true) ?(fast_path = true) ?(conns = 100_000)
    ?(events = 50_000) ?(churn_every = 16) ?(seed = 42) () =
  let t = make ~conns ~syn_cookies ~fast_path ~seed in
  (* Baseline after the driver's own arrays exist, so the resident
     measurement isolates the stack's per-connection cost. *)
  let live0 = live_words () in
  (* [Gc.minor_words ()] reads the allocation pointer directly;
     [quick_stat]'s counter only updates at minor collections, which a
     32 MB nursery may never trigger across a whole smoke run. *)
  let m0 = Gc.minor_words () in
  for i = 0 to conns - 1 do
    t.now := !(t.now) + 200;
    if i land 1023 = 0 then Wheel.advance t.wheel ~now:!(t.now);
    send_syn t i
  done;
  Wheel.advance t.wheel ~now:!(t.now);
  let establish_minor = (Gc.minor_words () -. m0) /. float_of_int conns in
  let live1 = live_words () in
  let bytes_per_conn =
    float_of_int ((live1 - live0) * 8) /. float_of_int conns
  in
  (* [make] presizes the store before [live0], so the reading above
     leaves it out; count it from its arrays. *)
  let store_bytes_per_conn =
    float_of_int (Tcb.store_words (Tcp_endpoint.env t.ep).Tcb.store * 8)
    /. float_of_int conns
  in
  (* Churn phase. *)
  let m2 = Gc.minor_words () in
  for k = 1 to events do
    t.now := !(t.now) + event_ns;
    Wheel.advance t.wheel ~now:!(t.now);
    service_reopens t;
    if churn_every > 0 && k mod churn_every = 0 then begin
      let i = Engine.Rng.int t.rng conns in
      if Bytes.get t.st i = st_established then
        close_conn t i ~delay_reopen:(k mod (4 * churn_every) = 0)
    end
    else begin
      let i = Zipf.sample t.zipf t.rng - 1 in
      if Bytes.get t.st i = st_established then send_data t i
    end
  done;
  (* Let delayed reopens and remnant sweeps finish. *)
  let drain_until = !(t.now) + (4 * time_wait_ns (Tcp_endpoint.config t.ep)) in
  while t.pend_head < t.pend_tail || !(t.now) < drain_until do
    t.now := !(t.now) + (16 * event_ns);
    Wheel.advance t.wheel ~now:!(t.now);
    service_reopens t
  done;
  let churn_minor =
    if events = 0 then 0.
    else (Gc.minor_words () -. m2) /. float_of_int events
  in
  {
    r_conns = conns;
    r_events = events;
    r_established = t.established;
    r_closes = t.closes;
    r_reconnects = t.reconnects;
    r_client_segs = t.client_segs;
    r_server_segs = t.server_segs;
    r_connection_count = Tcp_endpoint.connection_count t.ep;
    r_store_live = Tcb.store_live (Tcp_endpoint.env t.ep).Tcb.store;
    r_store_capacity = Tcb.store_capacity (Tcp_endpoint.env t.ep).Tcb.store;
    r_time_wait_live = Tcp_endpoint.time_wait_count t.ep;
    r_cookies_sent = Tcp_endpoint.syn_cookies_sent t.ep;
    r_cookies_validated = Tcp_endpoint.syn_cookies_validated t.ep;
    r_cookies_rejected = Tcp_endpoint.syn_cookies_rejected t.ep;
    r_rsts = Tcp_endpoint.rsts_sent t.ep;
    r_fast_hits = Tcp_endpoint.fast_path_hits t.ep;
    r_slow_hits = Tcp_endpoint.slow_path_hits t.ep;
    r_wheel = Wheel.stats t.wheel;
    r_bytes_per_conn = bytes_per_conn;
    r_store_bytes_per_conn = store_bytes_per_conn;
    r_establish_minor_words_per_conn = establish_minor;
    r_churn_minor_words_per_event = churn_minor;
    r_snapshot = snapshot_of t;
  }

(* ------------------------------------------------------------------ *)
(* SYN-flood leg                                                       *)

type flood = {
  f_syns : int;
  f_cookies_sent : int;
  f_tcbs_allocated : int;  (** store-live delta — must be zero *)
  f_connections : int;
  f_minor_words_per_syn : float;
  f_snapshot : string;
}

let syn_flood ?(syns = 100_000) ~seed () =
  let t = make ~conns:1 ~syn_cookies:true ~fast_path:true ~seed in
  let store = (Tcp_endpoint.env t.ep).Tcb.store in
  let live0 = Tcb.store_live store in
  let m0 = Gc.minor_words () in
  (* Distinct 4-tuples, handshake never completed; replies are drained
     and dropped without reacting (the flood "clients" are liars). *)
  for k = 0 to syns - 1 do
    (match Mempool.alloc t.pool with
    | None -> failwith "conn_scale: mbuf pool exhausted"
    | Some mbuf ->
        let s = t.tx_scratch in
        s.Seg.src_port <- client_port_lo + (k mod ports_per_ip);
        s.Seg.dst_port <- server_port;
        s.Seg.seq <- (k * 7) land 0xFFFF_FFFF;
        s.Seg.ack <- 0;
        s.Seg.syn <- true;
        s.Seg.ack_flag <- false;
        s.Seg.fin <- false;
        s.Seg.rst <- false;
        s.Seg.psh <- false;
        s.Seg.ece <- false;
        s.Seg.cwr <- false;
        s.Seg.window <- 0xFFFF;
        s.Seg.mss <- Some 1460;
        s.Seg.wscale <- None;
        s.Seg.payload_off <- mbuf.Mbuf.off;
        s.Seg.payload_len <- 0;
        let src_ip = Ip_addr.of_octets 10 2 ((k / ports_per_ip) land 0xFF) 1 in
        Tcp_endpoint.rx_segment t.ep ~src_ip s mbuf;
        Mbuf.decref mbuf);
    while t.outq.count > 0 do
      Mbuf.decref (outq_pop t.outq)
    done
  done;
  let flood_minor = Gc.minor_words () -. m0 in
  {
    f_syns = syns;
    f_cookies_sent = Tcp_endpoint.syn_cookies_sent t.ep;
    f_tcbs_allocated = Tcb.store_live store - live0;
    f_connections = Tcp_endpoint.connection_count t.ep;
    f_minor_words_per_syn = flood_minor /. float_of_int (max 1 syns);
    f_snapshot =
      Printf.sprintf "syns=%d cookies_sent=%d tcbs=%d conns=%d" syns
        (Tcp_endpoint.syn_cookies_sent t.ep)
        (Tcb.store_live store - live0)
        (Tcp_endpoint.connection_count t.ep);
  }
