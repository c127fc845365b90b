(* The TCP control block, stored structure-of-arrays.

   All protocol logic lives in [Tcp_conn]; this module owns the state
   *layout*.  A connection's hot fields live in unboxed int columns of
   a per-endpoint [store] (the same trick that rebuilt [Event_queue]):
   at million-connection population the boxed-record TCB was ~60 words
   of pointer-chased heap per flow, and every field was a GC-scanned
   root.  Columns cost one word per field per connection, are invisible
   to the GC scanner, and keep the slots of neighbouring connections
   adjacent in memory.

   The boxed [t] record survives only as a *view*: (store, slot) plus
   the fields that are genuinely pointers (env, config, callbacks, the
   send queue and out-of-order list, armed timers).  [Tcp_conn] reads
   and writes exclusively through the accessors below, so the protocol
   logic reads as before.

   Slots are recycled through a free list with a generation counter per
   slot; [flow_handle] = generation lsl 24 lor slot is the value the
   flow table stores, and [deref] refuses a handle whose generation has
   moved on — a freed-and-reused slot can never be confused with the
   connection that used to live there.  Slot 0 is a reserved dead row
   (state = CLOSED, all zeros): [release] repoints the view at it, so a
   post-teardown read through a stale view sees a closed connection
   instead of another flow's state. *)

(* [t] (the view) and [env] both carry a [store] field — same meaning,
   deliberately the same name. *)
[@@@warning "-30"]

module Mbuf = Ixmem.Mbuf
module Seg = Ixnet.Tcp_segment

type close_reason = Normal | Reset | Timeout | Refused

(* Cold-path protocol incidents the owning endpoint counts; reported
   through [env.on_protocol_event] so [Tcp_conn] stays metrics-free. *)
type protocol_event =
  | Challenge_ack_sent  (** RFC 5961: suspicious RST/SYN answered with an ACK *)
  | Challenge_ack_limited  (** challenge suppressed by the rate limiter *)
  | Rst_accepted  (** a peer RST actually tore the connection down *)
  | Local_abort  (** we RST the peer ([Tcp_conn.abort]) *)
  | Tw_rst_dropped  (** RFC 1337: RST ignored in TIME_WAIT *)
  | Dsack_sent  (** duplicate segment reported via a D-SACK block *)
  | Dsack_dupack_ignored
      (** dup-ACK carried a D-SACK for already-acked data — not loss *)

type config = {
  mss : int;
  rcv_buf : int;  (** receive window ceiling, bytes *)
  snd_buf : int;  (** bytes the stack will queue for transmit *)
  wscale : int;  (** advertised window-scale shift *)
  min_rto_ns : int;
  max_rto_ns : int;
  delack_ns : int;  (** delayed-ACK timeout *)
  delack_segs : int;  (** ACK at least every n-th segment *)
  initial_cwnd_segs : int;
  time_wait_ns : int;
  buffered_send : bool;
      (** [true]: POSIX socket semantics — [send] accepts anything that
          fits the kernel send buffer.  [false]: IX semantics — [send]
          accepts only what the sliding window can cover, and the
          application controls transmit buffering. *)
  dctcp : bool;
      (** ECN/DCTCP mode: echo CE marks and reduce the window in
          proportion to the marked fraction (the §6 extension) *)
  fast_path : bool;
      (** header-prediction receive fast path (Van Jacobson gate); a
          pure optimisation — behaviour is bit-identical either way.
          [false] forces every segment through the full state machine
          (the [--fast-path=off] A/B escape hatch). *)
  syn_cookies : bool;
      (** listen path answers SYNs statelessly: the SYN-ACK's ISS
          encodes a keyed hash of the 4-tuple plus the peer's MSS
          class, and the TCB is materialized only when the
          cookie-validated handshake ACK arrives — a SYN flood
          allocates nothing *)
  tw_recycle : bool;
      (** release the full TCB at the TIME_WAIT transition; the
          remnant (4-tuple, final sequence numbers, deadline) moves to
          the endpoint's compact [Tw_table] *)
  rfc5961 : bool;
      (** blind-injection hardening: in-window (but not exact-match)
          RSTs and SYNs in synchronized states elicit a rate-limited
          challenge ACK instead of acting on the segment *)
  rfc1337 : bool;
      (** TIME-WAIT assassination protection: RSTs never terminate
          TIME_WAIT (neither the in-TCB timer nor a [Tw_table] remnant) *)
  dsack : bool;
      (** report fully-duplicate segments back to the sender in a
          D-SACK block (RFC 2883), and discount dup-ACKs that carry
          one — SACK-recovery groundwork *)
  challenge_ack_limit : int;
      (** max challenge ACKs per [challenge_ack_window_ns] (per env) *)
  challenge_ack_window_ns : int;
}

(* Defaults follow a modern datacenter profile; stacks override the
   pieces that define their architecture (RTO floor, buffers). *)
let default_config =
  {
    mss = 1460;
    rcv_buf = 1 lsl 20;
    snd_buf = 1 lsl 20;
    wscale = 7;
    min_rto_ns = 2_000_000 (* 2 ms *);
    max_rto_ns = 1_000_000_000;
    delack_ns = 200_000 (* 200 us *);
    delack_segs = 2;
    initial_cwnd_segs = 10;
    time_wait_ns = 1_000_000 (* scaled-down MSL for simulation *);
    buffered_send = false;
    dctcp = false;
    fast_path = true;
    syn_cookies = false;
    tw_recycle = true;
    rfc5961 = true;
    rfc1337 = true;
    dsack = true;
    challenge_ack_limit = 8;
    challenge_ack_window_ns = 1_000_000 (* 1 ms, matching the scaled MSL *);
  }

(* Sentinel for [rexmit_action]/[delack_action] before [Tcp_conn]
   installs the real callback; compared with [==]. *)
let no_timer_action () = ()

type callbacks = {
  mutable on_connected : bool -> unit;
      (** active open finished; [true] = established *)
  mutable on_recv : Mbuf.t -> int -> int -> unit;
      (** in-order payload slice (mbuf, absolute offset, length); the
          callee borrows a reference and must [Mbuf.decref] when done *)
  mutable on_sent : int -> unit;  (** bytes newly acknowledged by the peer *)
  mutable on_closed : close_reason -> unit;
}

let null_callbacks () =
  {
    on_connected = ignore;
    on_recv = (fun mbuf _ _ -> Mbuf.decref mbuf);
    on_sent = ignore;
    on_closed = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Column layout

   Full-word columns hold 32-bit sequence numbers, addresses and
   timestamps.  Two kinds of packing cover the rest:

   - 31|31 pairs: two values each provably < 2^31 share a word
     (low bits 0..30, high bits 31..61);
   - [c_flags]: the state machine, booleans and small saturating
     counters bit-packed into one word (layout below);
   - [c_ports]: local port | remote port | negotiated MSS, 16 bits
     each.

   Per-connection column cost: 17 full + 9 packed + 1 float =
   27 words = 216 bytes. *)

let half_mask = 0x7FFF_FFFF
let[@inline] pair_lo v = v land half_mask
let[@inline] pair_hi v = (v lsr 31) land half_mask
let[@inline] with_lo word v = word land lnot half_mask lor (v land half_mask)
let[@inline] with_hi word v = word land half_mask lor ((v land half_mask) lsl 31)

(* [c_flags] bit layout:
     0..3   state (Tcp_state.to_int)
     4..6   last_close (0 = none, 1 + close_reason otherwise)
     7      ws_enabled        8   fin_queued       9   fin_sent
     10     close_notified    11  ce_to_echo       12  rtt_have_sample
     13     cong_recovery
     14..18 snd_wscale
     19..26 delack_count (saturating)
     27..34 dupacks (saturating — only ever compared against the
            dup-ack threshold, far below the cap)
     35..40 rexmit_shots
     41..48 backoff_mult (1..64)
     49     port_owned (this connection checked its local port out of
            the endpoint's [Port_alloc]; teardown returns it exactly
            once) *)

let b_ws_enabled = 7
let b_fin_queued = 8
let b_fin_sent = 9
let b_close_notified = 10
let b_ce_to_echo = 11
let b_rtt_have_sample = 12
let b_cong_recovery = 13
let b_port_owned = 49

type store = {
  mutable cap : int;
  mutable live : int;
  mutable generation : int array;
  mutable free_list : int array;  (* LIFO stack of free slots *)
  mutable free_top : int;
  mutable views : t option array;
      (* the [Some view] built at [create] time, returned as-is by
         [deref] so a flow-table hit allocates nothing *)
  (* full-word columns *)
  mutable c_iss : int array;
  mutable c_irs : int array;
  mutable c_snd_una : int array;
  mutable c_snd_nxt : int array;
  mutable c_snd_max : int array;
  mutable c_recover : int array;
  mutable c_snd_queue_seq : int array;
  mutable c_rcv_nxt : int array;
  mutable c_rtt_start : int array;  (* -1 when no sample is in flight *)
  mutable c_cookie : int array;
  mutable c_handle : int array;
  mutable c_local_ip : int array;
  mutable c_remote_ip : int array;
  mutable c_rto : int array;
  mutable c_avoid_acc : int array;
  mutable c_bytes_in : int array;
  mutable c_bytes_out : int array;
  (* packed columns *)
  mutable c_flags : int array;
  mutable c_ports : int array;  (* local | remote lsl 16 | mss lsl 32 *)
  mutable c_wnds : int array;  (* snd_wnd | rcv_adv_wnd *)
  mutable c_bufs : int array;  (* snd_queue_len | rcv_unconsumed *)
  mutable c_cwnd : int array;  (* cwnd_bytes | ssthresh_bytes *)
  mutable c_ecn : int array;  (* win_acked | win_marked *)
  mutable c_segs : int array;  (* segs_in | segs_out *)
  mutable c_rtt_seq : int array;  (* rtt_seq (32 bits) | retransmits lsl 32 *)
  mutable c_srtt : int array;  (* srtt | rttvar (samples are Karn-valid
                                  single-RTT times, far below 2^31 ns) *)
  mutable c_alpha : float array;  (* DCTCP mark-fraction EWMA *)
}

and t = {
  mutable store : store;
  mutable slot : int;
  mutable env : env;
      (** mutable so the control plane can migrate a flow to another
          elastic thread (new wheel, pools and output path) *)
  cfg : config;
  callbacks : callbacks;
  snd_queue : Ixmem.Iov_deque.t;
      (** unacked send data as app-buffer slices; consumed from the
          front by ACKs ([drop_front]), gathered into TX mbufs by
          sequence offset ([blit_to]) *)
  mutable ooo : (Seqno.t * Mbuf.t * int * int) list;  (** seq, mbuf, off, len *)
  mutable dsack_pending : int;
      (** duplicate range awaiting a D-SACK report on the next ACK:
          [seq lor (len lsl 32)], 0 when none (a zero-length duplicate
          is never recorded, so the encoding is unambiguous) *)
  (* Timer handles hold [Timer_wheel.null] when disarmed — a plain
     field instead of an option so the per-ACK re-arm boxes nothing. *)
  mutable rexmit_timer : Timerwheel.Timer_wheel.timer;
  mutable persist_timer : Timerwheel.Timer_wheel.timer;
  mutable delack_timer : Timerwheel.Timer_wheel.timer;
  mutable time_wait_timer : Timerwheel.Timer_wheel.timer;
  mutable rexmit_action : unit -> unit;
      (** the RTO callback, built once per connection ([Tcp_conn]
          installs it on first arm) — re-arming a retransmit timer on
          every ACK must not allocate a fresh closure *)
  mutable delack_action : unit -> unit;
      (** the delayed-ACK callback, cached the same way: the timer is
          re-armed about every other data segment *)
}

and env = {
  now : unit -> int;
  wheel : Timerwheel.Timer_wheel.t;
  alloc : unit -> Mbuf.t option;
  output : t -> Mbuf.t -> unit;
      (** a finished TCP segment; the stack adds IP/Ethernet and owns
          the mbuf from here *)
  rng : Engine.Rng.t;
  handle_alloc : int ref;
      (** flow-handle allocator; shared by all envs of one host so
          handles stay unique across its elastic threads (migration
          rekeys nothing), and owned per host/sim so concurrent sims
          allocate deterministically *)
  store : store;
      (** the connection store this env's TCBs live in; one per
          endpoint, migrated between by [migrate] *)
  emit_scratch : Seg.t;
      (** reused TX header record — all fields are rewritten by each
          [Tcp_conn.emit] and consumed by [Tcp_segment.prepend] before
          anything can re-enter [emit]; nothing may retain it *)
  mutable on_teardown : t -> unit;
      (** connection fully closed: flow tables unhook it here *)
  mutable on_established : t -> unit;
      (** a passive connection completed its handshake (the endpoint
          turns this into the IX [knock] event / an accept) *)
  mutable on_time_wait : t -> bool;
      (** TIME_WAIT transition; return [true] to take over the wait
          (the endpoint records a [Tw_table] remnant and the TCB is
          released immediately), [false] for the classic in-TCB timer *)
  mutable on_protocol_event : protocol_event -> unit;
      (** cold-path incident hook; the endpoint counts these *)
  mutable challenge_window_start : int;
      (** RFC 5961 limiter: start of the current rate window.  Env-wide
          (per elastic thread), as the RFC prescribes host-wide. *)
  mutable challenge_sent : int;  (** challenge ACKs sent this window *)
}

(* ------------------------------------------------------------------ *)
(* Store management                                                    *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

let store_create ?(initial = 256) () =
  let cap = max 2 initial in
  {
    cap;
    live = 0;
    generation = Array.make cap 0;
    (* slot 0 is the reserved dead row; free slots count down so low
       slots are handed out first *)
    free_list = Array.init cap (fun i -> cap - 1 - i);
    free_top = cap - 1;
    views = Array.make cap None;
    c_iss = Array.make cap 0;
    c_irs = Array.make cap 0;
    c_snd_una = Array.make cap 0;
    c_snd_nxt = Array.make cap 0;
    c_snd_max = Array.make cap 0;
    c_recover = Array.make cap 0;
    c_snd_queue_seq = Array.make cap 0;
    c_rcv_nxt = Array.make cap 0;
    c_rtt_start = Array.make cap 0;
    c_cookie = Array.make cap 0;
    c_handle = Array.make cap 0;
    c_local_ip = Array.make cap 0;
    c_remote_ip = Array.make cap 0;
    c_rto = Array.make cap 0;
    c_avoid_acc = Array.make cap 0;
    c_bytes_in = Array.make cap 0;
    c_bytes_out = Array.make cap 0;
    c_flags = Array.make cap 0;
    c_ports = Array.make cap 0;
    c_wnds = Array.make cap 0;
    c_bufs = Array.make cap 0;
    c_cwnd = Array.make cap 0;
    c_ecn = Array.make cap 0;
    c_segs = Array.make cap 0;
    c_rtt_seq = Array.make cap 0;
    c_srtt = Array.make cap 0;
    c_alpha = Array.make cap 0.;
  }

let grow_int old cap' =
  let a = Array.make cap' 0 in
  Array.blit old 0 a 0 (Array.length old);
  a

let store_grow s =
  let cap' = 2 * s.cap in
  if cap' > slot_mask + 1 then failwith "Tcb.store: slot space exhausted";
  let gen' = Array.make cap' 0 in
  Array.blit s.generation 0 gen' 0 s.cap;
  let views' = Array.make cap' None in
  Array.blit s.views 0 views' 0 s.cap;
  let free' = Array.make cap' 0 in
  (* the new slots become free, highest first (same hand-out order as
     [store_create]) *)
  for i = 0 to cap' - s.cap - 1 do
    free'.(i) <- cap' - 1 - i
  done;
  s.generation <- gen';
  s.views <- views';
  s.free_list <- free';
  s.free_top <- cap' - s.cap;
  s.c_iss <- grow_int s.c_iss cap';
  s.c_irs <- grow_int s.c_irs cap';
  s.c_snd_una <- grow_int s.c_snd_una cap';
  s.c_snd_nxt <- grow_int s.c_snd_nxt cap';
  s.c_snd_max <- grow_int s.c_snd_max cap';
  s.c_recover <- grow_int s.c_recover cap';
  s.c_snd_queue_seq <- grow_int s.c_snd_queue_seq cap';
  s.c_rcv_nxt <- grow_int s.c_rcv_nxt cap';
  s.c_rtt_start <- grow_int s.c_rtt_start cap';
  s.c_cookie <- grow_int s.c_cookie cap';
  s.c_handle <- grow_int s.c_handle cap';
  s.c_local_ip <- grow_int s.c_local_ip cap';
  s.c_remote_ip <- grow_int s.c_remote_ip cap';
  s.c_rto <- grow_int s.c_rto cap';
  s.c_avoid_acc <- grow_int s.c_avoid_acc cap';
  s.c_bytes_in <- grow_int s.c_bytes_in cap';
  s.c_bytes_out <- grow_int s.c_bytes_out cap';
  s.c_flags <- grow_int s.c_flags cap';
  s.c_ports <- grow_int s.c_ports cap';
  s.c_wnds <- grow_int s.c_wnds cap';
  s.c_bufs <- grow_int s.c_bufs cap';
  s.c_cwnd <- grow_int s.c_cwnd cap';
  s.c_ecn <- grow_int s.c_ecn cap';
  s.c_segs <- grow_int s.c_segs cap';
  s.c_rtt_seq <- grow_int s.c_rtt_seq cap';
  s.c_srtt <- grow_int s.c_srtt cap';
  let alpha' = Array.make cap' 0. in
  Array.blit s.c_alpha 0 alpha' 0 s.cap;
  s.c_alpha <- alpha';
  s.cap <- cap'

let alloc_slot s =
  if s.free_top = 0 then store_grow s;
  s.free_top <- s.free_top - 1;
  let slot = s.free_list.(s.free_top) in
  s.live <- s.live + 1;
  slot

let store_live s = s.live
let store_capacity s = s.cap

(* Generation-checked handle for the flow table.  Never 0 for a live
   slot (slot 0 is reserved), so tables can use 0/negatives freely. *)
let flow_handle tcb = (tcb.store.generation.(tcb.slot) lsl slot_bits) lor tcb.slot

let deref s fh =
  let slot = fh land slot_mask in
  if slot < s.cap && (s.generation.(slot) lsl slot_bits) lor slot = fh then
    s.views.(slot)
  else None

(* Release the connection's slot back to the free list.  The view is
   repointed at the reserved dead row, so stale reads see CLOSED.  Only
   [Tcp_conn.teardown] (at the very end, after callbacks) and
   [migrate] call this. *)
let release tcb =
  let s = tcb.store and slot = tcb.slot in
  if slot <> 0 then begin
    s.views.(slot) <- None;
    s.generation.(slot) <- s.generation.(slot) + 1;
    s.free_list.(s.free_top) <- slot;
    s.free_top <- s.free_top + 1;
    s.live <- s.live - 1;
    tcb.slot <- 0
  end

(* ------------------------------------------------------------------ *)
(* Accessors.  Names match the old record fields so [Tcp_conn] reads
   as before: [tcb.snd_una] became [snd_una tcb]. *)

let[@inline] state tcb = Tcp_state.of_int (tcb.store.c_flags.(tcb.slot) land 0xF)

let[@inline] set_state tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_flags.(i) <- s.c_flags.(i) land lnot 0xF lor Tcp_state.to_int v

let[@inline] flag tcb bit = tcb.store.c_flags.(tcb.slot) land (1 lsl bit) <> 0

let[@inline] set_flag tcb bit v =
  let s = tcb.store and i = tcb.slot in
  if v then s.c_flags.(i) <- s.c_flags.(i) lor (1 lsl bit)
  else s.c_flags.(i) <- s.c_flags.(i) land lnot (1 lsl bit)

let[@inline] handle tcb = tcb.store.c_handle.(tcb.slot)
let[@inline] cookie tcb = tcb.store.c_cookie.(tcb.slot)
let[@inline] set_cookie tcb v = tcb.store.c_cookie.(tcb.slot) <- v
let[@inline] local_ip tcb = tcb.store.c_local_ip.(tcb.slot)
let[@inline] remote_ip tcb = tcb.store.c_remote_ip.(tcb.slot)
let[@inline] local_port tcb = tcb.store.c_ports.(tcb.slot) land 0xFFFF
let[@inline] remote_port tcb = (tcb.store.c_ports.(tcb.slot) lsr 16) land 0xFFFF
let[@inline] snd_mss tcb = (tcb.store.c_ports.(tcb.slot) lsr 32) land 0xFFFF

let[@inline] set_snd_mss tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_ports.(i) <- s.c_ports.(i) land 0xFFFF_FFFF lor ((v land 0xFFFF) lsl 32)

let[@inline] iss tcb = tcb.store.c_iss.(tcb.slot)
let[@inline] set_iss tcb v = tcb.store.c_iss.(tcb.slot) <- v
let[@inline] irs tcb = tcb.store.c_irs.(tcb.slot)
let[@inline] set_irs tcb v = tcb.store.c_irs.(tcb.slot) <- v
let[@inline] snd_una tcb = tcb.store.c_snd_una.(tcb.slot)
let[@inline] set_snd_una tcb v = tcb.store.c_snd_una.(tcb.slot) <- v
let[@inline] snd_nxt tcb = tcb.store.c_snd_nxt.(tcb.slot)
let[@inline] set_snd_nxt tcb v = tcb.store.c_snd_nxt.(tcb.slot) <- v
let[@inline] snd_max tcb = tcb.store.c_snd_max.(tcb.slot)
let[@inline] set_snd_max tcb v = tcb.store.c_snd_max.(tcb.slot) <- v
let[@inline] recover tcb = tcb.store.c_recover.(tcb.slot)
let[@inline] set_recover tcb v = tcb.store.c_recover.(tcb.slot) <- v
let[@inline] rcv_nxt tcb = tcb.store.c_rcv_nxt.(tcb.slot)
let[@inline] set_rcv_nxt tcb v = tcb.store.c_rcv_nxt.(tcb.slot) <- v
let[@inline] snd_queue_seq tcb = tcb.store.c_snd_queue_seq.(tcb.slot)
let[@inline] set_snd_queue_seq tcb v = tcb.store.c_snd_queue_seq.(tcb.slot) <- v
let[@inline] rtt_start tcb = tcb.store.c_rtt_start.(tcb.slot)
let[@inline] set_rtt_start tcb v = tcb.store.c_rtt_start.(tcb.slot) <- v

let[@inline] snd_wnd tcb = pair_lo tcb.store.c_wnds.(tcb.slot)
let[@inline] rcv_adv_wnd tcb = pair_hi tcb.store.c_wnds.(tcb.slot)

let[@inline] set_snd_wnd tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_wnds.(i) <- with_lo s.c_wnds.(i) v

let[@inline] set_rcv_adv_wnd tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_wnds.(i) <- with_hi s.c_wnds.(i) v

let[@inline] snd_queue_len tcb = pair_lo tcb.store.c_bufs.(tcb.slot)
let[@inline] rcv_unconsumed tcb = pair_hi tcb.store.c_bufs.(tcb.slot)

let[@inline] set_snd_queue_len tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_bufs.(i) <- with_lo s.c_bufs.(i) v

let[@inline] set_rcv_unconsumed tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_bufs.(i) <- with_hi s.c_bufs.(i) v

let[@inline] ws_enabled tcb = flag tcb b_ws_enabled
let[@inline] set_ws_enabled tcb v = set_flag tcb b_ws_enabled v
let[@inline] fin_queued tcb = flag tcb b_fin_queued
let[@inline] set_fin_queued tcb v = set_flag tcb b_fin_queued v
let[@inline] fin_sent tcb = flag tcb b_fin_sent
let[@inline] set_fin_sent tcb v = set_flag tcb b_fin_sent v
let[@inline] close_notified tcb = flag tcb b_close_notified
let[@inline] set_close_notified tcb v = set_flag tcb b_close_notified v
let[@inline] ce_to_echo tcb = flag tcb b_ce_to_echo
let[@inline] set_ce_to_echo tcb v = set_flag tcb b_ce_to_echo v
let[@inline] port_owned tcb = flag tcb b_port_owned
let[@inline] set_port_owned tcb v = set_flag tcb b_port_owned v

let[@inline] snd_wscale tcb = (tcb.store.c_flags.(tcb.slot) lsr 14) land 0x1F

let[@inline] set_snd_wscale tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0x1F lsl 14) lor ((v land 0x1F) lsl 14)

let[@inline] delack_count tcb = (tcb.store.c_flags.(tcb.slot) lsr 19) land 0xFF

let[@inline] set_delack_count tcb v =
  let s = tcb.store and i = tcb.slot in
  let v = if v > 0xFF then 0xFF else v in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0xFF lsl 19) lor (v lsl 19)

let[@inline] dupacks tcb = (tcb.store.c_flags.(tcb.slot) lsr 27) land 0xFF

let[@inline] set_dupacks tcb v =
  let s = tcb.store and i = tcb.slot in
  let v = if v > 0xFF then 0xFF else v in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0xFF lsl 27) lor (v lsl 27)

let[@inline] rexmit_shots tcb = (tcb.store.c_flags.(tcb.slot) lsr 35) land 0x3F

let[@inline] set_rexmit_shots tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0x3F lsl 35) lor ((v land 0x3F) lsl 35)

let[@inline] rtt_seq tcb = tcb.store.c_rtt_seq.(tcb.slot) land 0xFFFF_FFFF

let[@inline] set_rtt_seq tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_rtt_seq.(i) <- s.c_rtt_seq.(i) land lnot 0xFFFF_FFFF lor (v land 0xFFFF_FFFF)

(* --- statistics --- *)

let[@inline] segs_in tcb = pair_lo tcb.store.c_segs.(tcb.slot)
let[@inline] segs_out tcb = pair_hi tcb.store.c_segs.(tcb.slot)

let[@inline] incr_segs_in tcb =
  let s = tcb.store and i = tcb.slot in
  s.c_segs.(i) <- with_lo s.c_segs.(i) (pair_lo s.c_segs.(i) + 1)

let[@inline] incr_segs_out tcb =
  let s = tcb.store and i = tcb.slot in
  s.c_segs.(i) <- with_hi s.c_segs.(i) (pair_hi s.c_segs.(i) + 1)

let[@inline] retransmits tcb = (tcb.store.c_rtt_seq.(tcb.slot) lsr 32) land half_mask

let[@inline] incr_retransmits tcb =
  let s = tcb.store and i = tcb.slot in
  s.c_rtt_seq.(i) <- s.c_rtt_seq.(i) + (1 lsl 32)

let[@inline] bytes_in tcb = tcb.store.c_bytes_in.(tcb.slot)
let[@inline] add_bytes_in tcb n = tcb.store.c_bytes_in.(tcb.slot) <- tcb.store.c_bytes_in.(tcb.slot) + n
let[@inline] bytes_out tcb = tcb.store.c_bytes_out.(tcb.slot)
let[@inline] add_bytes_out tcb n = tcb.store.c_bytes_out.(tcb.slot) <- tcb.store.c_bytes_out.(tcb.slot) + n

(* --- close reason --- *)

let last_close tcb =
  match (tcb.store.c_flags.(tcb.slot) lsr 4) land 0x7 with
  | 1 -> Some Normal
  | 2 -> Some Reset
  | 3 -> Some Timeout
  | 4 -> Some Refused
  | _ -> None

let set_last_close tcb reason =
  let code =
    match reason with Normal -> 1 | Reset -> 2 | Timeout -> 3 | Refused -> 4
  in
  let s = tcb.store and i = tcb.slot in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0x7 lsl 4) lor (code lsl 4)

(* ------------------------------------------------------------------ *)
(* RTT estimator (RFC 6298), column form.  The arithmetic is exactly
   [Rtt]'s (which remains the directly unit-tested reference); srtt
   and rttvar share a word — Karn-valid samples are genuine single-RTT
   times, far below the 2^31 ns half ceiling. *)

let[@inline] srtt_ns tcb = pair_lo tcb.store.c_srtt.(tcb.slot)

let[@inline] rto_clamp tcb v =
  max tcb.cfg.min_rto_ns (min tcb.cfg.max_rto_ns v)

let[@inline] backoff_mult tcb = (tcb.store.c_flags.(tcb.slot) lsr 41) land 0xFF

let[@inline] set_backoff_mult tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_flags.(i) <- s.c_flags.(i) land lnot (0xFF lsl 41) lor ((v land 0xFF) lsl 41)

let rtt_observe tcb ~sample_ns =
  let s = tcb.store and i = tcb.slot in
  let srtt, rttvar =
    if not (flag tcb b_rtt_have_sample) then begin
      set_flag tcb b_rtt_have_sample true;
      (sample_ns, sample_ns / 2)
    end
    else begin
      (* RFC 6298: alpha = 1/8, beta = 1/4. *)
      let srtt = pair_lo s.c_srtt.(i) and rttvar = pair_hi s.c_srtt.(i) in
      let err = abs (sample_ns - srtt) in
      (((7 * srtt) + sample_ns) / 8, ((3 * rttvar) + err) / 4)
    end
  in
  s.c_srtt.(i) <- with_hi (with_lo s.c_srtt.(i) srtt) rttvar;
  set_backoff_mult tcb 1;
  s.c_rto.(i) <- rto_clamp tcb (srtt + max 1000 (4 * rttvar))

let rto_ns tcb = rto_clamp tcb (tcb.store.c_rto.(tcb.slot) * backoff_mult tcb)

let rtt_backoff tcb =
  let m = backoff_mult tcb in
  if m < 64 then set_backoff_mult tcb (m * 2)

let rtt_reset_backoff tcb = set_backoff_mult tcb 1

(* ------------------------------------------------------------------ *)
(* Congestion control (NewReno + DCTCP), column form — arithmetic
   exactly [Congestion]'s, including float-operation order for the
   DCTCP EWMA (bit-identical snapshots depend on it). *)

let max_window = 64 * 1024 * 1024
let dup_ack_threshold = 3
let dctcp_g = 1. /. 16.

let[@inline] cwnd tcb = pair_lo tcb.store.c_cwnd.(tcb.slot)
let[@inline] ssthresh tcb = pair_hi tcb.store.c_cwnd.(tcb.slot)

let[@inline] set_cwnd tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_cwnd.(i) <- with_lo s.c_cwnd.(i) v

let[@inline] set_ssthresh tcb v =
  let s = tcb.store and i = tcb.slot in
  s.c_cwnd.(i) <- with_hi s.c_cwnd.(i) v

let[@inline] in_recovery tcb = flag tcb b_cong_recovery

let cong_on_ack tcb ~acked_bytes =
  if not (in_recovery tcb) then begin
    let cw = cwnd tcb in
    if cw < ssthresh tcb then
      (* Slow start: exponential growth. *)
      set_cwnd tcb (min max_window (cw + acked_bytes))
    else begin
      (* Congestion avoidance: one MSS per window's worth of ACKs. *)
      let s = tcb.store and i = tcb.slot in
      let acc = s.c_avoid_acc.(i) + acked_bytes in
      if acc >= cw then begin
        s.c_avoid_acc.(i) <- acc - cw;
        set_cwnd tcb (min max_window (cw + tcb.cfg.mss))
      end
      else s.c_avoid_acc.(i) <- acc
    end
  end

let cong_on_dup_ack tcb =
  (* Window inflation while the missing segment is outstanding. *)
  if in_recovery tcb then set_cwnd tcb (min max_window (cwnd tcb + tcb.cfg.mss))

let cong_on_fast_retransmit tcb ~flight =
  let ssthresh' = max (2 * tcb.cfg.mss) (flight / 2) in
  set_ssthresh tcb ssthresh';
  set_cwnd tcb (ssthresh' + (dup_ack_threshold * tcb.cfg.mss));
  set_flag tcb b_cong_recovery true

let cong_on_recovery_exit tcb =
  set_flag tcb b_cong_recovery false;
  set_cwnd tcb (ssthresh tcb);
  tcb.store.c_avoid_acc.(tcb.slot) <- 0

let dctcp_alpha tcb = tcb.store.c_alpha.(tcb.slot)

let cong_on_ecn_feedback tcb ~acked_bytes ~marked =
  if tcb.cfg.dctcp then begin
    let s = tcb.store and i = tcb.slot in
    let acked = pair_lo s.c_ecn.(i) + acked_bytes in
    let mrk =
      if marked then pair_hi s.c_ecn.(i) + acked_bytes else pair_hi s.c_ecn.(i)
    in
    if acked >= cwnd tcb then begin
      let fraction = float_of_int mrk /. float_of_int (max 1 acked) in
      s.c_alpha.(i) <- ((1. -. dctcp_g) *. s.c_alpha.(i)) +. (dctcp_g *. fraction);
      if mrk > 0 then begin
        let cwnd' =
          int_of_float (float_of_int (cwnd tcb) *. (1. -. (s.c_alpha.(i) /. 2.)))
        in
        let cwnd' = max (2 * tcb.cfg.mss) cwnd' in
        set_cwnd tcb cwnd';
        set_ssthresh tcb cwnd'
      end;
      s.c_ecn.(i) <- 0
    end
    else s.c_ecn.(i) <- with_hi (with_lo s.c_ecn.(i) acked) mrk
  end

let cong_on_rto tcb =
  set_ssthresh tcb (max (2 * tcb.cfg.mss) (cwnd tcb / 2));
  set_cwnd tcb tcb.cfg.mss;
  set_flag tcb b_cong_recovery false;
  tcb.store.c_avoid_acc.(tcb.slot) <- 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_env ~now ~wheel ~alloc ~output ~rng ~handle_alloc ?store () =
  {
    now;
    wheel;
    alloc;
    output;
    rng;
    handle_alloc;
    store = (match store with Some s -> s | None -> store_create ());
    emit_scratch = Seg.scratch ();
    on_teardown = ignore;
    on_established = ignore;
    on_time_wait = (fun _ -> false);
    on_protocol_event = ignore;
    challenge_window_start = 0;
    challenge_sent = 0;
  }

let create env cfg ~local_ip ~local_port ~remote_ip ~remote_port ~cookie =
  incr env.handle_alloc;
  let iss = Engine.Rng.int env.rng 0x3FFFFFFF in
  let s = env.store in
  let i = alloc_slot s in
  s.c_iss.(i) <- iss;
  s.c_irs.(i) <- 0;
  s.c_snd_una.(i) <- iss;
  s.c_snd_nxt.(i) <- iss;
  s.c_snd_max.(i) <- iss;
  s.c_recover.(i) <- iss;
  s.c_snd_queue_seq.(i) <- Seqno.add iss 1 (* data starts after the SYN *);
  s.c_rcv_nxt.(i) <- 0;
  s.c_rtt_start.(i) <- -1;
  s.c_cookie.(i) <- cookie;
  s.c_handle.(i) <- !(env.handle_alloc);
  s.c_local_ip.(i) <- local_ip;
  s.c_remote_ip.(i) <- remote_ip;
  s.c_rto.(i) <- cfg.min_rto_ns * 4;
  s.c_avoid_acc.(i) <- 0;
  s.c_bytes_in.(i) <- 0;
  s.c_bytes_out.(i) <- 0;
  (* state CLOSED, backoff_mult 1, everything else clear *)
  s.c_flags.(i) <- 1 lsl 41;
  s.c_ports.(i) <-
    (local_port land 0xFFFF)
    lor ((remote_port land 0xFFFF) lsl 16)
    lor ((cfg.mss land 0xFFFF) lsl 32);
  s.c_wnds.(i) <- 0;
  s.c_bufs.(i) <- 0;
  s.c_cwnd.(i) <-
    with_hi (with_lo 0 (cfg.mss * cfg.initial_cwnd_segs)) max_window;
  s.c_ecn.(i) <- 0;
  s.c_segs.(i) <- 0;
  s.c_rtt_seq.(i) <- 0;
  s.c_srtt.(i) <- 0;
  s.c_alpha.(i) <- 0.;
  let tcb =
    {
      store = s;
      slot = i;
      env;
      cfg;
      callbacks = null_callbacks ();
      snd_queue = Ixmem.Iov_deque.create ();
      ooo = [];
      dsack_pending = 0;
      rexmit_timer = Timerwheel.Timer_wheel.null;
      persist_timer = Timerwheel.Timer_wheel.null;
      delack_timer = Timerwheel.Timer_wheel.null;
      time_wait_timer = Timerwheel.Timer_wheel.null;
      rexmit_action = no_timer_action;
      delack_action = no_timer_action;
    }
  in
  s.views.(i) <- Some tcb;
  tcb

(* Flow migration: move the connection's row into [dst] (the adopting
   endpoint's store).  The view keeps its identity — everything holding
   the boxed [t] (handles table, libix conns, armed timers) stays
   valid; only the flow table rekeys, via [flow_handle]. *)
let migrate tcb dst =
  let src = tcb.store in
  if src != dst then begin
    let i = tcb.slot in
    let j = alloc_slot dst in
    dst.c_iss.(j) <- src.c_iss.(i);
    dst.c_irs.(j) <- src.c_irs.(i);
    dst.c_snd_una.(j) <- src.c_snd_una.(i);
    dst.c_snd_nxt.(j) <- src.c_snd_nxt.(i);
    dst.c_snd_max.(j) <- src.c_snd_max.(i);
    dst.c_recover.(j) <- src.c_recover.(i);
    dst.c_snd_queue_seq.(j) <- src.c_snd_queue_seq.(i);
    dst.c_rcv_nxt.(j) <- src.c_rcv_nxt.(i);
    dst.c_rtt_start.(j) <- src.c_rtt_start.(i);
    dst.c_cookie.(j) <- src.c_cookie.(i);
    dst.c_handle.(j) <- src.c_handle.(i);
    dst.c_local_ip.(j) <- src.c_local_ip.(i);
    dst.c_remote_ip.(j) <- src.c_remote_ip.(i);
    dst.c_rto.(j) <- src.c_rto.(i);
    dst.c_avoid_acc.(j) <- src.c_avoid_acc.(i);
    dst.c_bytes_in.(j) <- src.c_bytes_in.(i);
    dst.c_bytes_out.(j) <- src.c_bytes_out.(i);
    dst.c_flags.(j) <- src.c_flags.(i);
    dst.c_ports.(j) <- src.c_ports.(i);
    dst.c_wnds.(j) <- src.c_wnds.(i);
    dst.c_bufs.(j) <- src.c_bufs.(i);
    dst.c_cwnd.(j) <- src.c_cwnd.(i);
    dst.c_ecn.(j) <- src.c_ecn.(i);
    dst.c_segs.(j) <- src.c_segs.(i);
    dst.c_rtt_seq.(j) <- src.c_rtt_seq.(i);
    dst.c_srtt.(j) <- src.c_srtt.(i);
    dst.c_alpha.(j) <- src.c_alpha.(i);
    release tcb;
    tcb.store <- dst;
    tcb.slot <- j;
    dst.views.(j) <- Some tcb
  end

(* ------------------------------------------------------------------ *)

let flight t = Seqno.diff (snd_nxt t) (snd_una t)
(** Sequence space (data plus SYN/FIN) currently in flight. *)

let unsent t =
  (* Queued data not yet transmitted.  [snd_nxt] may sit one past the
     data range while a FIN is in flight; clamp handles both ends. *)
  let sent_data = Seqno.diff (snd_nxt t) (snd_queue_seq t) in
  let sent_data = max 0 (min (snd_queue_len t) sent_data) in
  snd_queue_len t - sent_data

let rcv_window t =
  let w = t.cfg.rcv_buf - rcv_unconsumed t in
  if w < 0 then 0 else w
