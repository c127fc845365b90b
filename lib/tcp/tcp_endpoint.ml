module Mbuf = Ixmem.Mbuf
module Seg = Ixnet.Tcp_segment
module Wheel = Timerwheel.Timer_wheel
module Metrics = Ixtelemetry.Metrics

type listener = { on_accept : Tcb.t -> unit }

type t = {
  tcb_env : Tcb.env;
  cfg : Tcb.config;
  ip : Ixnet.Ip_addr.t;
  flows : Flow_table.t;  (** connections and TIME_WAIT remnants *)
  mutable tw_sweep : bool;  (** a remnant sweep is armed *)
  mutable tw_sweep_tick : unit -> unit;  (** the sweep, built once in [create] *)
  listeners : (int, listener) Hashtbl.t;
  ports : Port_alloc.t;
  mutable probe_ip : Ixnet.Ip_addr.t;
  mutable probe_port : int;
      (** the remote of the [connect] in progress, read by [probe] *)
  mutable probe : int -> bool;
      (** the ephemeral-port test, built once in [create] so a connect
          allocates no predicate *)
  output_raw : remote_ip:Ixnet.Ip_addr.t -> Mbuf.t -> unit;
  alloc : unit -> Mbuf.t option;
  reply_scratch : Seg.t;
      (** reused header record for stateless replies (RST, cookie
          SYN-ACK, TIME_WAIT re-ACK): every field is rewritten by each
          sender and consumed by [Seg.prepend] before return — under a
          SYN flood this is the difference between a constant-space
          listen path and a record per attack segment *)
  c_rx_segs : Metrics.counter;
  c_connects : Metrics.counter;
  c_accepts : Metrics.counter;
  c_rsts : Metrics.counter;
  c_fast_hits : Metrics.counter;
  c_slow_hits : Metrics.counter;
  c_closed_normal : Metrics.counter;
  c_closed_reset : Metrics.counter;
  c_closed_timeout : Metrics.counter;
  c_closed_refused : Metrics.counter;
  c_syn_cookies_sent : Metrics.counter;
  c_syn_cookies_validated : Metrics.counter;
  c_syn_cookies_rejected : Metrics.counter;
  c_tw_reacks : Metrics.counter;
  c_port_exhausted : Metrics.counter;
  c_challenge_acks_sent : Metrics.counter;
  c_challenge_acks_limited : Metrics.counter;
  c_rsts_accepted : Metrics.counter;
  c_local_aborts : Metrics.counter;
  c_tw_rst_dropped : Metrics.counter;
  c_dsack_sent : Metrics.counter;
  c_dsack_dupacks_ignored : Metrics.counter;
}

(* ------------------------------------------------------------------ *)
(* SYN cookies (§RFC 4987 style, simulation-grade).

   The cookie is the ISS of the stateless SYN-ACK: a keyed hash of the
   4-tuple in the upper 30 bits, the encoded peer-MSS class in the low
   2.  The key derives deterministically from the local IP — not from
   the simulation RNG — so cookie traffic never perturbs the RNG
   stream and same-seed runs stay bit-identical with cookies on or
   off-path.  Both cookie functions return plain ints (the ISS; the
   MSS or -1) and the listener checks use [Hashtbl.mem]/[find], so
   answering a SYN allocates nothing but the reply mbuf, which comes
   from the pool. *)

let cookie_mss_table = [| 536; 1460; 8960; 65495 |]

let cookie_hash t ~remote_ip ~remote_port ~local_port =
  let secret =
    0x3779B97F4A7C15 lxor ((t.ip land 0xFFFF_FFFF) * 0x2545F4914F6CDD1D)
  in
  let h = secret lxor (((remote_ip land 0xFFFF_FFFF) lsl 16) lor remote_port) in
  let h = h lxor (local_port * 0x3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 27)

(* The largest table class not exceeding [mss] at or below [i] (class
   0 when none does); the table is ascending. *)
let rec mss_class mss i =
  if i > 0 && cookie_mss_table.(i) > mss then mss_class mss (i - 1) else i

(* The cookie (the SYN-ACK's ISS) for a SYN advertising [mss]; its low
   bits carry the peer's MSS class. *)
let syn_cookie t ~remote_ip ~remote_port ~local_port ~mss =
  let h = cookie_hash t ~remote_ip ~remote_port ~local_port in
  let cls = mss_class mss (Array.length cookie_mss_table - 1) in
  ((h land 0xFFFF_FFFC) lor cls) land 0xFFFF_FFFF

(* [iss] is ack-1 from a handshake ACK: the ISS our SYN-ACK would have
   carried.  Returns the peer MSS the cookie encodes, or -1 if it does
   not check out. *)
let validate_cookie t ~remote_ip ~remote_port ~local_port ~iss =
  let h = cookie_hash t ~remote_ip ~remote_port ~local_port in
  if iss land 0xFFFF_FFFC = h land 0xFFFF_FFFC then cookie_mss_table.(iss land 3)
  else -1

(* The periodic sweep drains the remnants even without traffic, so
   [time_wait_count] returns to 0 on idle endpoints. *)
let ensure_sweep t =
  if (not t.tw_sweep) && Flow_table.remnant_count t.flows > 0 then begin
    t.tw_sweep <- true;
    ignore
      (Wheel.schedule t.tcb_env.Tcb.wheel
         ~deadline:(t.tcb_env.Tcb.now () + t.cfg.Tcb.time_wait_ns)
         t.tw_sweep_tick)
  end

(* Whether [slot] holds a remnant still in its quiet period.  One past
   its deadline is dropped here (lazy expiry). *)
let live_remnant t slot =
  Flow_table.is_remnant t.flows slot
  && not (Flow_table.expire_remnant t.flows slot ~now:(t.tcb_env.Tcb.now ()))

(* ------------------------------------------------------------------ *)

let create ~now ~wheel ~alloc ~output_raw ~rng ~local_ip ~config ?metrics
    ?(metrics_prefix = "tcp") ?store
    ?(port_suitable = fun ~remote_ip:_ ~remote_port:_ _ -> true) () =
  let tcb_env =
    Tcp_conn.make_env ~now ~wheel ~alloc
      ~output:(fun tcb mbuf -> output_raw ~remote_ip:(Tcb.remote_ip tcb) mbuf)
      ~rng ?store ()
  in
  let registry =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let c name = Metrics.counter registry (metrics_prefix ^ "." ^ name) in
  let t =
    {
      tcb_env;
      cfg = config;
      ip = local_ip;
      flows = Flow_table.create ~store:tcb_env.Tcb.store;
      tw_sweep = false;
      tw_sweep_tick = ignore;
      listeners = Hashtbl.create 8;
      ports = Port_alloc.create ();
      probe_ip = 0;
      probe_port = 0;
      probe = (fun _ -> true);
      output_raw;
      alloc;
      reply_scratch = Seg.scratch ();
      c_rx_segs = c "rx_segs";
      c_connects = c "connects";
      c_accepts = c "accepts";
      c_rsts = c "rsts";
      c_fast_hits = c "fast_path_hits";
      c_slow_hits = c "slow_path_hits";
      c_closed_normal = c "closed_normal";
      c_closed_reset = c "closed_reset";
      c_closed_timeout = c "closed_timeout";
      c_closed_refused = c "closed_refused";
      c_syn_cookies_sent = c "syn_cookies_sent";
      c_syn_cookies_validated = c "syn_cookies_validated";
      c_syn_cookies_rejected = c "syn_cookies_rejected";
      c_tw_reacks = c "tw_reacks";
      c_port_exhausted = c "port_exhausted";
      c_challenge_acks_sent = c "challenge_acks_sent";
      c_challenge_acks_limited = c "challenge_acks_limited";
      c_rsts_accepted = c "rsts_accepted";
      c_local_aborts = c "local_aborts";
      c_tw_rst_dropped = c "tw_rst_dropped";
      c_dsack_sent = c "dsack_sent";
      c_dsack_dupacks_ignored = c "dsack_dupacks_ignored";
    }
  in
  t.probe <-
    (fun port ->
      let remote_ip = t.probe_ip and remote_port = t.probe_port in
      port_suitable ~remote_ip ~remote_port port
      &&
      let slot = Flow_table.lookup t.flows ~local_port:port ~remote_ip ~remote_port in
      Tcb.is_dead (Flow_table.conn t.flows slot) && not (live_remnant t slot));
  t.tw_sweep_tick <-
    (fun () ->
      t.tw_sweep <- false;
      ignore (Flow_table.sweep t.flows ~now:(t.tcb_env.Tcb.now ()));
      ensure_sweep t);
  tcb_env.Tcb.on_teardown <-
    (fun tcb ->
      (* Every connection leaves with an explicit close reason; the
         chaos audit balances these against [connects + accepts]. *)
      (match Tcb.last_close tcb with
      | Some Tcb.Normal -> Metrics.incr t.c_closed_normal
      | Some Tcb.Reset -> Metrics.incr t.c_closed_reset
      | Some Tcb.Timeout -> Metrics.incr t.c_closed_timeout
      | Some Tcb.Refused -> Metrics.incr t.c_closed_refused
      | None -> ());
      Flow_table.remove t.flows ~local_port:(Tcb.local_port tcb)
        ~remote_ip:(Tcb.remote_ip tcb) ~remote_port:(Tcb.remote_port tcb);
      (* The port returns to the allocator exactly once, and only if
         this connection checked it out ([connect] below).  Accepted
         connections share the listener's port: freeing it here used to
         clear an *active* outgoing connection's reservation whenever a
         listener occupied an ephemeral-range port — the double-free
         the [Port_alloc.double_frees] guard now counts. *)
      if Tcb.port_owned tcb then begin
        Tcb.set_port_owned tcb false;
        Port_alloc.free t.ports (Tcb.local_port tcb)
      end);
  tcb_env.Tcb.on_protocol_event <-
    (function
      | Tcb.Challenge_ack_sent -> Metrics.incr t.c_challenge_acks_sent
      | Tcb.Challenge_ack_limited -> Metrics.incr t.c_challenge_acks_limited
      | Tcb.Rst_accepted -> Metrics.incr t.c_rsts_accepted
      | Tcb.Local_abort -> Metrics.incr t.c_local_aborts
      | Tcb.Tw_rst_dropped -> Metrics.incr t.c_tw_rst_dropped
      | Tcb.Dsack_sent -> Metrics.incr t.c_dsack_sent
      | Tcb.Dsack_dupack_ignored -> Metrics.incr t.c_dsack_dupacks_ignored);
  tcb_env.Tcb.on_established <-
    (fun tcb ->
      match Hashtbl.find t.listeners (Tcb.local_port tcb) with
      | listener -> listener.on_accept tcb
      | exception Not_found -> Tcp_conn.abort tcb);
  (* TIME_WAIT: the connection's entry becomes a compact remnant;
     [Tcp_conn.enter_time_wait] then releases the TCB. *)
  tcb_env.Tcb.on_time_wait <-
    (fun tcb ->
      Flow_table.add_remnant t.flows ~local_port:(Tcb.local_port tcb)
        ~remote_ip:(Tcb.remote_ip tcb) ~remote_port:(Tcb.remote_port tcb)
        ~snd_nxt:(Tcb.snd_nxt tcb) ~rcv_nxt:(Tcb.rcv_nxt tcb)
        ~deadline:(t.tcb_env.Tcb.now () + config.Tcb.time_wait_ns);
      ensure_sweep t);
  t

let local_ip t = t.ip
let config t = t.cfg
let env t = t.tcb_env
let listen t ~port ~on_accept = Hashtbl.replace t.listeners port { on_accept }
let unlisten t ~port = Hashtbl.remove t.listeners port

let connect t ~remote_ip ~remote_port ~cookie () =
  t.probe_ip <- remote_ip;
  t.probe_port <- remote_port;
  match Port_alloc.alloc t.ports ~suitable:t.probe with
  | -1 ->
      Metrics.incr t.c_port_exhausted;
      None
  | local_port ->
      let tcb =
        Tcp_conn.connect t.tcb_env t.cfg ~local_ip:t.ip ~local_port ~remote_ip
          ~remote_port ~cookie
      in
      (* This connection owns the allocator reservation; teardown
         returns it (exactly once — see [on_teardown]). *)
      Tcb.set_port_owned tcb true;
      Metrics.incr t.c_connects;
      Flow_table.add t.flows ~local_port ~remote_ip ~remote_port tcb;
      Some tcb

(* Stateless reply segment (RST, cookie SYN-ACK, TIME_WAIT re-ACK):
   crafted without any connection state. *)
let send_stateless t ~src_ip ~(reply : Seg.t) =
  match t.alloc () with
  | None -> ()
  | Some mbuf ->
      Seg.prepend mbuf ~src:t.ip ~dst:src_ip reply;
      t.output_raw ~remote_ip:src_ip mbuf

(* Fill the reply scratch's invariant fields; the caller sets the rest.
   Reading [seg] completes before the caller can feed another segment,
   so the scratch may not be retained past [send_stateless]. *)
let reply_base t (seg : Seg.t) =
  let s = t.reply_scratch in
  s.Seg.src_port <- seg.Seg.dst_port;
  s.Seg.dst_port <- seg.Seg.src_port;
  s.Seg.syn <- false;
  s.Seg.fin <- false;
  s.Seg.rst <- false;
  s.Seg.psh <- false;
  s.Seg.ece <- false;
  s.Seg.cwr <- false;
  s.Seg.window <- 0;
  s.Seg.mss <- None;
  s.Seg.wscale <- None;
  s.Seg.sack <- None;
  s.Seg.payload_off <- 0;
  s.Seg.payload_len <- 0;
  s

(* RST in reply to a segment that matches no connection (RFC 793 p.36). *)
let send_rst t ~src_ip (seg : Seg.t) =
  if not seg.Seg.rst then begin
    Metrics.incr t.c_rsts;
    let reply = reply_base t seg in
    reply.Seg.rst <- true;
    if seg.Seg.ack_flag then begin
      reply.Seg.seq <- seg.Seg.ack;
      reply.Seg.ack <- 0;
      reply.Seg.ack_flag <- false
    end
    else begin
      reply.Seg.seq <- 0;
      reply.Seg.ack <-
        Seqno.add seg.Seg.seq
          (seg.Seg.payload_len + (if seg.Seg.syn then 1 else 0));
      reply.Seg.ack_flag <- true
    end;
    send_stateless t ~src_ip ~reply
  end

(* Stateless SYN-ACK whose ISS is the cookie; no TCB, no timer, no
   flow-table entry — a SYN flood costs this endpoint nothing but the
   reply itself. *)
let send_cookie_syn_ack t ~src_ip (seg : Seg.t) ~cookie_iss =
  Metrics.incr t.c_syn_cookies_sent;
  let reply = reply_base t seg in
  reply.Seg.seq <- cookie_iss;
  reply.Seg.ack <- Seqno.add seg.Seg.seq 1;
  reply.Seg.syn <- true;
  reply.Seg.ack_flag <- true;
  reply.Seg.window <- Int.min t.cfg.Tcb.rcv_buf 0xFFFF;
  (* The one option on this path, in the env's box, so a flood segment
     costs zero heap words here.  No window scaling: the cookie has no
     bits left to remember the peer's offer, so the SYN-ACK must not
     negotiate it. *)
  reply.Seg.mss <- Tcp_conn.syn_mss t.tcb_env t.cfg;
  send_stateless t ~src_ip ~reply

(* Re-ACK for a segment that hit a TIME_WAIT remnant (normally the
   peer retransmitting its FIN because our final ACK was lost). *)
let send_tw_ack t ~src_ip (seg : Seg.t) ~seq ~ack =
  Metrics.incr t.c_tw_reacks;
  let reply = reply_base t seg in
  reply.Seg.seq <- seq;
  reply.Seg.ack <- ack;
  reply.Seg.ack_flag <- true;
  send_stateless t ~src_ip ~reply

(* A segment for a tuple parked in TIME_WAIT.  Returns [true] if fully
   handled here; [false] lets the segment fall through to the normal
   demux (the remnant was recycled by a legitimate new SYN). *)
let rx_time_wait t ~src_ip (seg : Seg.t) slot =
  if seg.Seg.rst then begin
    (* RFC 1337: a stray or forged RST must not assassinate the
       TIME_WAIT remnant — losing it would let old duplicates from the
       closed incarnation reach a successor connection. *)
    t.tcb_env.Tcb.on_protocol_event Tcb.Tw_rst_dropped;
    true
  end
  else if
    seg.Seg.syn
    && (not seg.Seg.ack_flag)
    && Seqno.gt seg.Seg.seq (Flow_table.remnant_rcv_nxt t.flows slot)
  then begin
    (* New connection on the recycled tuple: the SYN's sequence is
       beyond the old connection's final edge, so no old segment can
       be confused with it (RFC 6191-style recycle). *)
    Flow_table.remove_remnant t.flows slot;
    false
  end
  else begin
    send_tw_ack t ~src_ip seg
      ~seq:(Flow_table.remnant_snd_nxt t.flows slot)
      ~ack:(Flow_table.remnant_rcv_nxt t.flows slot);
    Flow_table.refresh_remnant t.flows slot
      ~deadline:(t.tcb_env.Tcb.now () + t.cfg.Tcb.time_wait_ns);
    true
  end

let ce_marked = Some true
let ce_of_ecn ecn = if ecn = Ixnet.Ipv4_packet.ce then ce_marked else None

let rx_segment ?ce t ~src_ip (seg : Seg.t) mbuf =
  Metrics.incr t.c_rx_segs;
  (* One probe tells a connection, a TIME_WAIT remnant and a miss
     apart.  A remnant superseded by a new SYN, or expired, falls
     through to the flow-miss path. *)
  let slot =
    Flow_table.lookup t.flows ~local_port:seg.Seg.dst_port ~remote_ip:src_ip
      ~remote_port:seg.Seg.src_port
  in
  match Flow_table.conn t.flows slot with
  | tcb when not (Tcb.is_dead tcb) ->
      (* Header prediction first; the full state machine is the
         fallback.  The hit counters feed the Table-2-style breakdowns
         and the benchmark's tcp.fast_path_ratio row. *)
      if Tcp_conn.input_fast tcb seg mbuf then Metrics.incr t.c_fast_hits
      else begin
        Metrics.incr t.c_slow_hits;
        Tcp_conn.input ?ce tcb seg mbuf
      end
  | _ when live_remnant t slot && rx_time_wait t ~src_ip seg slot -> ()
  | _ ->
      if seg.Seg.syn && not seg.Seg.ack_flag then begin
        if not (Hashtbl.mem t.listeners seg.Seg.dst_port) then send_rst t ~src_ip seg
        else if t.cfg.Tcb.syn_cookies then begin
          (* Listen path under cookies: answer statelessly; the TCB
             materializes only on the cookie-validated ACK. *)
          let peer_mss = match seg.Seg.mss with Some m -> m | None -> 536 in
          let cookie_iss =
            syn_cookie t ~remote_ip:src_ip ~remote_port:seg.Seg.src_port
              ~local_port:seg.Seg.dst_port ~mss:peer_mss
          in
          send_cookie_syn_ack t ~src_ip seg ~cookie_iss
        end
        else begin
          let tcb =
            Tcp_conn.accept_syn t.tcb_env t.cfg ~local_ip:t.ip ~remote_ip:src_ip
              ~segment:seg ~cookie:0
          in
          Metrics.incr t.c_accepts;
          Flow_table.add t.flows ~local_port:seg.Seg.dst_port ~remote_ip:src_ip
            ~remote_port:seg.Seg.src_port tcb
        end
      end
      else if
        t.cfg.Tcb.syn_cookies && seg.Seg.ack_flag && (not seg.Seg.syn)
        && (not seg.Seg.rst)
        && Hashtbl.mem t.listeners seg.Seg.dst_port
      then begin
        (* Flow-miss ACK on a listening port: possibly the completing
           leg of a cookie handshake. *)
        let iss = Seqno.sub seg.Seg.ack 1 in
        let mss =
          validate_cookie t ~remote_ip:src_ip ~remote_port:seg.Seg.src_port
            ~local_port:seg.Seg.dst_port ~iss
        in
        if mss < 0 then begin
          Metrics.incr t.c_syn_cookies_rejected;
          send_rst t ~src_ip seg
        end
        else begin
          Metrics.incr t.c_syn_cookies_validated;
          let tcb =
            Tcp_conn.accept_cookie t.tcb_env t.cfg ~local_ip:t.ip
              ~remote_ip:src_ip ~segment:seg ~iss ~mss ~cookie:0
          in
          Metrics.incr t.c_accepts;
          Flow_table.add t.flows ~local_port:seg.Seg.dst_port
            ~remote_ip:src_ip ~remote_port:seg.Seg.src_port tcb;
          (* Deliver any payload/window info riding the ACK. *)
          Tcp_conn.input ?ce tcb seg mbuf
        end
      end
      else send_rst t ~src_ip seg

let adopt t tcb =
  (* [Tcp_conn.rebind] has already landed the connection's row in this
     endpoint's store, so the table learns its new handle. *)
  Flow_table.add t.flows ~local_port:(Tcb.local_port tcb)
    ~remote_ip:(Tcb.remote_ip tcb) ~remote_port:(Tcb.remote_port tcb) tcb

let adopt_time_wait t ~from ~select =
  Flow_table.transfer_remnants from.flows ~dst:t.flows ~now:(t.tcb_env.Tcb.now ()) ~select;
  ensure_sweep t

let evict t tcb =
  Flow_table.remove t.flows ~local_port:(Tcb.local_port tcb)
    ~remote_ip:(Tcb.remote_ip tcb) ~remote_port:(Tcb.remote_port tcb)

let connection_count t = Flow_table.count t.flows
let iter_connections t f = Flow_table.iter t.flows f
let rsts_sent t = Metrics.value t.c_rsts
let fast_path_hits t = Metrics.value t.c_fast_hits
let slow_path_hits t = Metrics.value t.c_slow_hits
let syn_cookies_sent t = Metrics.value t.c_syn_cookies_sent
let syn_cookies_validated t = Metrics.value t.c_syn_cookies_validated
let syn_cookies_rejected t = Metrics.value t.c_syn_cookies_rejected
let time_wait_count t = Flow_table.remnant_count t.flows
let challenge_acks_sent t = Metrics.value t.c_challenge_acks_sent
let challenge_acks_limited t = Metrics.value t.c_challenge_acks_limited
let rsts_accepted t = Metrics.value t.c_rsts_accepted
let tw_rst_dropped t = Metrics.value t.c_tw_rst_dropped
let port_double_frees t = Port_alloc.double_frees t.ports
let ports_in_use t = Port_alloc.in_use t.ports
