(* The TCP control block, stored as one flat row per connection.

   All protocol logic lives in [Tcp_conn]; this module owns the state
   *layout*.  A connection's hot fields live in unboxed int words of a
   per-endpoint [store] (the same trick that rebuilt [Event_queue]): at
   million-connection population the boxed-record TCB was ~60 words of
   pointer-chased heap per flow, and every field was a GC-scanned root.
   The store's one [rows] array gives each slot [row_words] words,
   invisible to the GC scanner.  It holds a row per connection rather
   than a column per field because that is how it is read: every
   [Tcp_conn] and [Flow_table] access reads several fields of one
   connection and nothing reads one field across connections.  So a
   connection's state sits in a few adjacent cache lines, and growth
   and migration move it as one block.

   The boxed [t] record survives only as a *view*: (store, slot) plus
   the fields that are genuinely pointers (env, config, callbacks, the
   send queue and out-of-order list) and the armed timers' handles.
   [Tcp_conn] reads and writes exclusively through the accessors below,
   so the protocol logic reads as before.

   Slots are recycled through a free list with a generation counter per
   slot; [flow_handle] = generation lsl 24 lor slot is the value the
   flow table stores and the one handle the dataplane gives out, and
   [deref] refuses a handle whose generation has moved on — a
   freed-and-reused slot can never be confused with the connection
   that used to live there.  Slot 0 is a reserved dead row
   (state = CLOSED, all zeros): [release] repoints the view at it, so a
   post-teardown read through a stale view sees a closed connection
   instead of another flow's state.  The dead row has a view of its own,
   the store's [dead_view], built once where an env meets the store
   ([make_env]): lookups that find no live connection return it rather
   than an option, and [is_dead] tells it (and every released view)
   from a live one. *)

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
    time_wait_ns = 1_000_000 (* scaled-down MSL for simulation *);
    buffered_send = false;
    dctcp = false;
    fast_path = true;
    syn_cookies = false;
  }

(* Protocol constants every connection shares.  The hardening is always
   on: RFC 5961 (an in-window but not exact-match RST, or a SYN in a
   synchronized state, draws a rate-limited challenge ACK), RFC 1337
   (an RST never ends a TIME_WAIT remnant) and RFC 2883 (a
   fully-duplicate segment is reported in a D-SACK block, and a dup-ACK
   carrying one is not counted as loss). *)
let initial_cwnd_segs = 10
let challenge_ack_limit = 8 (* per [challenge_ack_window_ns], per env *)
let challenge_ack_window_ns = 1_000_000 (* 1 ms, matching the scaled MSL *)

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
(* Row layout

   Slot [i]'s row is words [i * row_words] to [(i + 1) * row_words - 1]
   of [rows], and field [k_f] is word [k_f] of the row.  Full words hold
   32-bit sequence numbers, addresses and timestamps.  Packing covers
   the rest:

   - 31|31 pairs: two values each provably < 2^31 share a word
     (low bits 0..30, high bits 31..61);
   - [k_flags]: the state machine, booleans and small saturating
     counters bit-packed into one word (layout below);
   - [k_ports]: local port | remote port | negotiated MSS, 16 bits
     each.

   The key words come first and adjacent, so a flow-table key check
   reads one short span.  The DCTCP EWMA is a float and keeps a float
   array of its own: an OCaml int word would drop a bit of it, and the
   DCTCP digests depend on every bit.

   Per-connection cost: 25 row words + 1 float = 26 words = 208 bytes.
   With the store's generation, free-list and view slots, 29 words = 232
   bytes per slot ([store_words]). *)

let k_local_ip = 0
let k_remote_ip = 1
let k_ports = 2 (* local | remote lsl 16 | mss lsl 32 *)
let k_flags = 3
let k_cookie = 4
let k_iss = 5
let k_irs = 6
let k_snd_una = 7
let k_snd_nxt = 8
let k_snd_max = 9
let k_recover = 10
let k_snd_queue_seq = 11
let k_rcv_nxt = 12
let k_wnds = 13 (* snd_wnd | rcv_adv_wnd *)
let k_bufs = 14 (* snd_queue_len | rcv_unconsumed *)
let k_cwnd = 15 (* cwnd_bytes | ssthresh_bytes *)
let k_avoid_acc = 16
let k_ecn = 17 (* win_acked | win_marked *)
let k_rtt_start = 18 (* -1 when no sample is in flight *)
let k_rtt_seq = 19 (* rtt_seq (32 bits) | retransmits lsl 32 *)
let k_srtt = 20 (* srtt | rttvar (samples are Karn-valid single-RTT
                   times, far below 2^31 ns) *)
let k_rto = 21
let k_segs = 22 (* segs_in | segs_out *)
let k_bytes_in = 23
let k_bytes_out = 24
let row_words = 25

let half_mask = 0x7FFF_FFFF
let[@inline] pair_lo v = v land half_mask
let[@inline] pair_hi v = (v lsr 31) land half_mask
let[@inline] with_lo word v = word land lnot half_mask lor (v land half_mask)
let[@inline] with_hi word v = word land half_mask lor ((v land half_mask) lsl 31)

(* [k_flags] bit layout:
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
            once)
     50     counted (the IX dataplane counted this connection into its
            host's connection count; teardown counts it out exactly
            once) *)

let b_ws_enabled = 7
let b_fin_queued = 8
let b_fin_sent = 9
let b_close_notified = 10
let b_ce_to_echo = 11
let b_rtt_have_sample = 12
let b_cong_recovery = 13
let b_port_owned = 49
let b_counted = 50

type store = {
  mutable cap : int;
  mutable live : int;
  mutable generation : int array;
  mutable free_list : int array;  (* LIFO stack of free slots *)
  mutable free_top : int;
  mutable views : t array;
      (* the view built at [create] time for each live slot, returned
         as-is by [deref] so a flow-table hit allocates nothing; slot 0
         and every free slot hold the dead view.  A bare [t] instead of
         a [Some] box saves two words per connection and a block the
         collector marks (265.5 -> 233.5 resident B/conn at 1 M
         connections, with the driver's own slot unboxed too).  Empty
         until an env meets the store. *)
  mutable rows : int array;  (* [row_words] words per slot *)
  mutable c_alpha : float array;  (* DCTCP mark-fraction EWMA, per slot *)
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
}

and env = {
  now : unit -> int;
  wheel : Timerwheel.Timer_wheel.t;
  on_timer : int -> unit;
      (** the one action every TCP timer of this env fires through: its
          wheel cell carries a code naming the connection (by flow
          handle) and the timer, so arming a timer builds no closure *)
  alloc : unit -> Mbuf.t option;
  output : t -> Mbuf.t -> unit;
      (** a finished TCP segment; the stack adds IP/Ethernet and owns
          the mbuf from here *)
  rng : Engine.Rng.t;
  store : store;
      (** the connection store this env's TCBs live in; one per
          endpoint, migrated between by [migrate] *)
  emit_scratch : Seg.t;
      (** reused TX header record — all fields are rewritten by each
          [Tcp_conn.emit] and consumed by [Tcp_segment.prepend] before
          anything can re-enter [emit]; nothing may retain it *)
  mutable syn_mss : int option;
      (** the [Some mss] a SYN or SYN-ACK advertises, built by the env's
          first one and kept while the config's MSS is unchanged *)
  mutable on_teardown : t -> unit;
      (** connection fully closed: flow tables unhook it here *)
  mutable on_established : t -> unit;
      (** a passive connection completed its handshake (the endpoint
          turns this into the IX [knock] event / an accept) *)
  mutable on_time_wait : t -> unit;
      (** TIME_WAIT transition: the endpoint turns the flow-table
          entry into a remnant, then the TCB is released *)
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
  let cap = Int.max 2 initial in
  {
    cap;
    live = 0;
    generation = Array.make cap 0;
    (* slot 0 is the reserved dead row; free slots count down so low
       slots are handed out first *)
    free_list = Array.init cap (fun i -> cap - 1 - i);
    free_top = cap - 1;
    views = [||];
    rows = Array.make (cap * row_words) 0;
    c_alpha = Array.make cap 0.;
  }

(* [a] copied into the front of a fresh [n]-element array of [fill]s. *)
let grow a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let store_grow s =
  let cap' = 2 * s.cap in
  if cap' > slot_mask + 1 then failwith "Tcb.store: slot space exhausted";
  s.generation <- grow s.generation cap' 0;
  (* [alloc_slot] runs only under an env, so [views] is filled *)
  s.views <- grow s.views cap' s.views.(0);
  s.rows <- grow s.rows (cap' * row_words) 0;
  s.c_alpha <- grow s.c_alpha cap' 0.;
  let free' = Array.make cap' 0 in
  (* the new slots become free, highest first (same hand-out order as
     [store_create]) *)
  for i = 0 to cap' - s.cap - 1 do
    free'.(i) <- cap' - 1 - i
  done;
  s.free_list <- free';
  s.free_top <- cap' - s.cap;
  s.cap <- cap'

let alloc_slot s =
  if s.free_top = 0 then store_grow s;
  s.free_top <- s.free_top - 1;
  let slot = s.free_list.(s.free_top) in
  s.live <- s.live + 1;
  slot

let store_live s = s.live
let store_capacity s = s.cap

(* The store's own words: every per-slot array, one word per element
   (the float array holds its floats unboxed). *)
let store_words s =
  Array.length s.rows + Array.length s.c_alpha + Array.length s.generation
  + Array.length s.free_list + Array.length s.views

(* The connection's generation-checked handle: the key the flow table
   stores and the [Ix_api.handle] applications name it by.  Never 0 for
   a live slot (slot 0 is reserved), so tables can use 0/negatives
   freely.  [migrate] gives the connection a new one. *)
let flow_handle tcb = (tcb.store.generation.(tcb.slot) lsl slot_bits) lor tcb.slot

(* The view over slot 0's dead row: what a lookup returns when it finds
   no live connection. *)
let[@inline] dead_view s = s.views.(0)

(* The dead view and every released view sit on slot 0. *)
let[@inline] is_dead tcb = tcb.slot = 0

(* The live view behind [fh], or the dead view if the handle's
   generation has moved on. *)
let deref s fh =
  let slot = fh land slot_mask in
  if slot < s.cap && (s.generation.(slot) lsl slot_bits) lor slot = fh then
    s.views.(slot)
  else dead_view s

(* Release the connection's slot back to the free list.  The view is
   repointed at the reserved dead row, so stale reads see CLOSED.  Only
   [Tcp_conn.teardown] (at the very end, after callbacks) and
   [migrate] call this. *)
let release tcb =
  let s = tcb.store and slot = tcb.slot in
  if slot <> 0 then begin
    s.views.(slot) <- dead_view s;
    s.generation.(slot) <- s.generation.(slot) + 1;
    s.free_list.(s.free_top) <- slot;
    s.free_top <- s.free_top + 1;
    s.live <- s.live - 1;
    tcb.slot <- 0
  end

(* ------------------------------------------------------------------ *)
(* Accessors.  Names match the old record fields so [Tcp_conn] reads
   as before: [tcb.snd_una] became [snd_una tcb]. *)

let[@inline] word tcb k = tcb.store.rows.((tcb.slot * row_words) + k)
let[@inline] set_word tcb k v = tcb.store.rows.((tcb.slot * row_words) + k) <- v

(* The [mask]-wide bit field at [shift] of word [k]. *)
let[@inline] bits tcb k shift mask = (word tcb k lsr shift) land mask

let[@inline] set_bits tcb k shift mask v =
  set_word tcb k (word tcb k land lnot (mask lsl shift) lor ((v land mask) lsl shift))

let[@inline] state tcb = Tcp_state.of_int (bits tcb k_flags 0 0xF)
let[@inline] set_state tcb v = set_bits tcb k_flags 0 0xF (Tcp_state.to_int v)
let[@inline] flag tcb bit = bits tcb k_flags bit 1 = 1
let[@inline] set_flag tcb bit v = set_bits tcb k_flags bit 1 (Bool.to_int v)

let[@inline] cookie tcb = word tcb k_cookie
let[@inline] set_cookie tcb v = set_word tcb k_cookie v
let[@inline] local_ip tcb = word tcb k_local_ip
let[@inline] remote_ip tcb = word tcb k_remote_ip
let[@inline] local_port tcb = bits tcb k_ports 0 0xFFFF
let[@inline] remote_port tcb = bits tcb k_ports 16 0xFFFF
let[@inline] snd_mss tcb = bits tcb k_ports 32 0xFFFF
let[@inline] set_snd_mss tcb v = set_bits tcb k_ports 32 0xFFFF v

let[@inline] iss tcb = word tcb k_iss
let[@inline] set_iss tcb v = set_word tcb k_iss v
let[@inline] irs tcb = word tcb k_irs
let[@inline] set_irs tcb v = set_word tcb k_irs v
let[@inline] snd_una tcb = word tcb k_snd_una
let[@inline] set_snd_una tcb v = set_word tcb k_snd_una v
let[@inline] snd_nxt tcb = word tcb k_snd_nxt
let[@inline] set_snd_nxt tcb v = set_word tcb k_snd_nxt v
let[@inline] snd_max tcb = word tcb k_snd_max
let[@inline] set_snd_max tcb v = set_word tcb k_snd_max v
let[@inline] recover tcb = word tcb k_recover
let[@inline] set_recover tcb v = set_word tcb k_recover v
let[@inline] rcv_nxt tcb = word tcb k_rcv_nxt
let[@inline] set_rcv_nxt tcb v = set_word tcb k_rcv_nxt v
let[@inline] snd_queue_seq tcb = word tcb k_snd_queue_seq
let[@inline] set_snd_queue_seq tcb v = set_word tcb k_snd_queue_seq v
let[@inline] rtt_start tcb = word tcb k_rtt_start
let[@inline] set_rtt_start tcb v = set_word tcb k_rtt_start v

let[@inline] snd_wnd tcb = pair_lo (word tcb k_wnds)
let[@inline] rcv_adv_wnd tcb = pair_hi (word tcb k_wnds)
let[@inline] set_snd_wnd tcb v = set_word tcb k_wnds (with_lo (word tcb k_wnds) v)
let[@inline] set_rcv_adv_wnd tcb v = set_word tcb k_wnds (with_hi (word tcb k_wnds) v)
let[@inline] snd_queue_len tcb = pair_lo (word tcb k_bufs)
let[@inline] rcv_unconsumed tcb = pair_hi (word tcb k_bufs)
let[@inline] set_snd_queue_len tcb v = set_word tcb k_bufs (with_lo (word tcb k_bufs) v)
let[@inline] set_rcv_unconsumed tcb v = set_word tcb k_bufs (with_hi (word tcb k_bufs) v)

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
let[@inline] counted tcb = flag tcb b_counted
let[@inline] set_counted tcb v = set_flag tcb b_counted v

let[@inline] snd_wscale tcb = bits tcb k_flags 14 0x1F
let[@inline] set_snd_wscale tcb v = set_bits tcb k_flags 14 0x1F v
let[@inline] delack_count tcb = bits tcb k_flags 19 0xFF
let[@inline] set_delack_count tcb v = set_bits tcb k_flags 19 0xFF (Int.min v 0xFF)
let[@inline] dupacks tcb = bits tcb k_flags 27 0xFF
let[@inline] set_dupacks tcb v = set_bits tcb k_flags 27 0xFF (Int.min v 0xFF)
let[@inline] rexmit_shots tcb = bits tcb k_flags 35 0x3F
let[@inline] set_rexmit_shots tcb v = set_bits tcb k_flags 35 0x3F v
let[@inline] rtt_seq tcb = bits tcb k_rtt_seq 0 0xFFFF_FFFF
let[@inline] set_rtt_seq tcb v = set_bits tcb k_rtt_seq 0 0xFFFF_FFFF v

(* --- statistics --- *)

let[@inline] segs_in tcb = pair_lo (word tcb k_segs)
let[@inline] segs_out tcb = pair_hi (word tcb k_segs)
let[@inline] incr_segs_in tcb = set_word tcb k_segs (with_lo (word tcb k_segs) (segs_in tcb + 1))
let[@inline] incr_segs_out tcb = set_word tcb k_segs (with_hi (word tcb k_segs) (segs_out tcb + 1))
let[@inline] retransmits tcb = bits tcb k_rtt_seq 32 half_mask
let[@inline] incr_retransmits tcb = set_word tcb k_rtt_seq (word tcb k_rtt_seq + (1 lsl 32))
let[@inline] bytes_in tcb = word tcb k_bytes_in
let[@inline] add_bytes_in tcb n = set_word tcb k_bytes_in (word tcb k_bytes_in + n)
let[@inline] bytes_out tcb = word tcb k_bytes_out
let[@inline] add_bytes_out tcb n = set_word tcb k_bytes_out (word tcb k_bytes_out + n)

(* --- close reason --- *)

let last_close tcb =
  match bits tcb k_flags 4 0x7 with
  | 1 -> Some Normal
  | 2 -> Some Reset
  | 3 -> Some Timeout
  | 4 -> Some Refused
  | _ -> None

let set_last_close tcb reason =
  let code =
    match reason with Normal -> 1 | Reset -> 2 | Timeout -> 3 | Refused -> 4
  in
  set_bits tcb k_flags 4 0x7 code

(* ------------------------------------------------------------------ *)
(* RTT estimator (RFC 6298).  srtt and rttvar share a word —
   Karn-valid samples are genuine single-RTT times, far below the 2^31
   ns half ceiling. *)

let[@inline] srtt_ns tcb = pair_lo (word tcb k_srtt)

let[@inline] rto_clamp tcb v =
  Int.max tcb.cfg.min_rto_ns (Int.min tcb.cfg.max_rto_ns v)

let[@inline] backoff_mult tcb = bits tcb k_flags 41 0xFF
let[@inline] set_backoff_mult tcb v = set_bits tcb k_flags 41 0xFF v

let rtt_observe tcb ~sample_ns =
  let srtt, rttvar =
    if not (flag tcb b_rtt_have_sample) then begin
      set_flag tcb b_rtt_have_sample true;
      (sample_ns, sample_ns / 2)
    end
    else begin
      (* RFC 6298: alpha = 1/8, beta = 1/4. *)
      let srtt = pair_lo (word tcb k_srtt) and rttvar = pair_hi (word tcb k_srtt) in
      let err = abs (sample_ns - srtt) in
      (((7 * srtt) + sample_ns) / 8, ((3 * rttvar) + err) / 4)
    end
  in
  set_word tcb k_srtt (with_hi (with_lo (word tcb k_srtt) srtt) rttvar);
  set_backoff_mult tcb 1;
  set_word tcb k_rto (rto_clamp tcb (srtt + Int.max 1000 (4 * rttvar)))

let rto_ns tcb = rto_clamp tcb (word tcb k_rto * backoff_mult tcb)

let rtt_backoff tcb =
  let m = backoff_mult tcb in
  if m < 64 then set_backoff_mult tcb (m * 2)

let rtt_reset_backoff tcb = set_backoff_mult tcb 1

(* ------------------------------------------------------------------ *)
(* Congestion control (NewReno + DCTCP, Alizadeh et al.).  DCTCP — the
   ECN-based protocol the paper names as a companion to IX's
   shallow-buffer deployments (§6) — shrinks the window in proportion
   to the fraction of CE-marked bytes.  The float-operation order of
   its EWMA is fixed: bit-identical snapshots depend on it. *)

let max_window = 64 * 1024 * 1024
let dup_ack_threshold = 3
let dctcp_g = 1. /. 16.

let[@inline] cwnd tcb = pair_lo (word tcb k_cwnd)
let[@inline] ssthresh tcb = pair_hi (word tcb k_cwnd)
let[@inline] set_cwnd tcb v = set_word tcb k_cwnd (with_lo (word tcb k_cwnd) v)
let[@inline] set_ssthresh tcb v = set_word tcb k_cwnd (with_hi (word tcb k_cwnd) v)
let[@inline] in_recovery tcb = flag tcb b_cong_recovery

let cong_on_ack tcb ~acked_bytes =
  if not (in_recovery tcb) then begin
    let cw = cwnd tcb in
    if cw < ssthresh tcb then
      (* Slow start: exponential growth. *)
      set_cwnd tcb (Int.min max_window (cw + acked_bytes))
    else begin
      (* Congestion avoidance: one MSS per window's worth of ACKs. *)
      let acc = word tcb k_avoid_acc + acked_bytes in
      if acc >= cw then begin
        set_word tcb k_avoid_acc (acc - cw);
        set_cwnd tcb (Int.min max_window (cw + tcb.cfg.mss))
      end
      else set_word tcb k_avoid_acc acc
    end
  end

let cong_on_dup_ack tcb =
  (* Window inflation while the missing segment is outstanding. *)
  if in_recovery tcb then set_cwnd tcb (Int.min max_window (cwnd tcb + tcb.cfg.mss))

let cong_on_fast_retransmit tcb ~flight =
  let ssthresh' = Int.max (2 * tcb.cfg.mss) (flight / 2) in
  set_ssthresh tcb ssthresh';
  set_cwnd tcb (ssthresh' + (dup_ack_threshold * tcb.cfg.mss));
  set_flag tcb b_cong_recovery true

let cong_on_recovery_exit tcb =
  set_flag tcb b_cong_recovery false;
  set_cwnd tcb (ssthresh tcb);
  set_word tcb k_avoid_acc 0

let dctcp_alpha tcb = tcb.store.c_alpha.(tcb.slot)

let cong_on_ecn_feedback tcb ~acked_bytes ~marked =
  if tcb.cfg.dctcp then begin
    let s = tcb.store and i = tcb.slot in
    let ecn = word tcb k_ecn in
    let acked = pair_lo ecn + acked_bytes in
    let mrk = if marked then pair_hi ecn + acked_bytes else pair_hi ecn in
    if acked >= cwnd tcb then begin
      let fraction = float_of_int mrk /. float_of_int (Int.max 1 acked) in
      s.c_alpha.(i) <- ((1. -. dctcp_g) *. s.c_alpha.(i)) +. (dctcp_g *. fraction);
      if mrk > 0 then begin
        let cwnd' =
          int_of_float (float_of_int (cwnd tcb) *. (1. -. (s.c_alpha.(i) /. 2.)))
        in
        let cwnd' = Int.max (2 * tcb.cfg.mss) cwnd' in
        set_cwnd tcb cwnd';
        set_ssthresh tcb cwnd'
      end;
      set_word tcb k_ecn 0
    end
    else set_word tcb k_ecn (with_hi (with_lo ecn acked) mrk)
  end

let cong_on_rto tcb =
  set_ssthresh tcb (Int.max (2 * tcb.cfg.mss) (cwnd tcb / 2));
  set_cwnd tcb tcb.cfg.mss;
  set_flag tcb b_cong_recovery false;
  set_word tcb k_avoid_acc 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_view (env : env) cfg slot =
  {
    store = env.store;
    slot;
    env;
    cfg;
    callbacks = null_callbacks ();
    snd_queue = Ixmem.Iov_deque.create ();
    ooo = [];
    dsack_pending = 0;
    rexmit_timer = Timerwheel.Timer_wheel.null;
    persist_timer = Timerwheel.Timer_wheel.null;
    delack_timer = Timerwheel.Timer_wheel.null;
  }

(* [on_timer env code] runs the timer [code] names; [Tcp_conn] supplies
   it, since the timeouts are protocol logic. *)
let make_env ~on_timer ~now ~wheel ~alloc ~output ~rng ?store () =
  let store = match store with Some s -> s | None -> store_create () in
  let emit_scratch = Seg.scratch () in
  let rec env =
    {
      now;
      wheel;
      on_timer = (fun code -> on_timer env code);
      alloc;
      output;
      rng;
      store;
      emit_scratch;
      syn_mss = None;
      on_teardown = ignore;
      on_established = ignore;
      on_time_wait = ignore;
      on_protocol_event = ignore;
      challenge_window_start = 0;
      challenge_sent = 0;
    }
  in
  (* The first env to meet a store builds its dead view; envs sharing
     the store later keep it. *)
  let s = env.store in
  if Array.length s.views = 0 then
    s.views <- Array.make s.cap (make_view env default_config 0);
  env

let create env cfg ~local_ip ~local_port ~remote_ip ~remote_port ~cookie =
  let iss = Engine.Rng.int env.rng 0x3FFFFFFF in
  let s = env.store in
  let i = alloc_slot s in
  let tcb = make_view env cfg i in
  (* A zero row is CLOSED with every counter and flag clear; set the
     rest. *)
  Array.fill s.rows (i * row_words) row_words 0;
  set_word tcb k_local_ip local_ip;
  set_word tcb k_remote_ip remote_ip;
  set_word tcb k_ports
    ((local_port land 0xFFFF)
    lor ((remote_port land 0xFFFF) lsl 16)
    lor ((cfg.mss land 0xFFFF) lsl 32));
  set_backoff_mult tcb 1;
  set_word tcb k_cookie cookie;
  set_word tcb k_iss iss;
  set_word tcb k_snd_una iss;
  set_word tcb k_snd_nxt iss;
  set_word tcb k_snd_max iss;
  set_word tcb k_recover iss;
  set_word tcb k_snd_queue_seq (Seqno.add iss 1) (* data starts after the SYN *);
  set_word tcb k_cwnd (with_hi (with_lo 0 (cfg.mss * initial_cwnd_segs)) max_window);
  set_word tcb k_rtt_start (-1);
  set_word tcb k_rto (cfg.min_rto_ns * 4);
  s.c_alpha.(i) <- 0.;
  s.views.(i) <- tcb;
  tcb

(* Flow migration: move the connection's row into [dst] (the adopting
   endpoint's store).  The view keeps its identity — everything holding
   the boxed [t] stays valid — but its [flow_handle] is new: the flow
   table rekeys, and the old handle derefs to the source's dead view. *)
let migrate tcb dst =
  let src = tcb.store in
  if src != dst then begin
    let i = tcb.slot in
    let j = alloc_slot dst in
    Array.blit src.rows (i * row_words) dst.rows (j * row_words) row_words;
    dst.c_alpha.(j) <- src.c_alpha.(i);
    release tcb;
    tcb.store <- dst;
    tcb.slot <- j;
    dst.views.(j) <- tcb
  end

(* ------------------------------------------------------------------ *)

let flight t = Seqno.diff (snd_nxt t) (snd_una t)
(** Sequence space (data plus SYN/FIN) currently in flight. *)

let unsent t =
  (* Queued data not yet transmitted.  [snd_nxt] may sit one past the
     data range while a FIN is in flight; clamp handles both ends. *)
  let sent_data = Seqno.diff (snd_nxt t) (snd_queue_seq t) in
  let sent_data = Int.max 0 (Int.min (snd_queue_len t) sent_data) in
  snd_queue_len t - sent_data

let rcv_window t =
  let w = t.cfg.rcv_buf - rcv_unconsumed t in
  if w < 0 then 0 else w
