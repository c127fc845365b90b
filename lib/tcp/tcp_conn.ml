module Mbuf = Ixmem.Mbuf
module Iovec = Ixmem.Iovec
module Wheel = Timerwheel.Timer_wheel
module Seg = Ixnet.Tcp_segment
open Tcb

let max_rexmit_shots = 12

(* ------------------------------------------------------------------ *)
(* Timer plumbing                                                      *)

let cancel_timer wheel timer = Wheel.cancel wheel timer

let clear_rexmit tcb =
  cancel_timer tcb.env.wheel tcb.rexmit_timer;
  tcb.rexmit_timer <- Wheel.null

let cancel_all_timers tcb =
  cancel_timer tcb.env.wheel tcb.rexmit_timer;
  cancel_timer tcb.env.wheel tcb.persist_timer;
  cancel_timer tcb.env.wheel tcb.delack_timer;
  cancel_timer tcb.env.wheel tcb.time_wait_timer;
  tcb.rexmit_timer <- Wheel.null;
  tcb.persist_timer <- Wheel.null;
  tcb.delack_timer <- Wheel.null;
  tcb.time_wait_timer <- Wheel.null

(* ------------------------------------------------------------------ *)
(* Segment construction                                                *)

let advertised_window tcb =
  let w = rcv_window tcb in
  let shift = if ws_enabled tcb then tcb.cfg.wscale else 0 in
  let field = w lsr shift in
  min field 0xFFFF

(* Copy [len] bytes of queued send data starting at sequence [seq] into
   the mbuf (this is the NIC's gather DMA in the real system; the data
   itself still lives in application buffers until acknowledged). *)
let gather_payload tcb mbuf ~seq ~len =
  let skip0 = Seqno.diff seq (snd_queue_seq tcb) in
  assert (skip0 >= 0 && skip0 + len <= snd_queue_len tcb);
  Ixmem.Iov_deque.blit_to tcb.snd_queue ~skip:skip0 ~dst:mbuf.Mbuf.buf
    ~dst_off:(mbuf.Mbuf.off + mbuf.Mbuf.len) ~len;
  mbuf.Mbuf.len <- mbuf.Mbuf.len + len

type seg_kind =
  | Seg_syn
  | Seg_syn_ack
  | Seg_fin
  | Seg_fin_rexmit
  | Seg_ack
  | Seg_rst

(* [dlen >= 0] makes this a data segment [dseq, dseq+dlen) (with PSH
   per [dpsh]) and [kind] is ignored; [dlen < 0] emits the control
   segment [kind].  Data segments pass their parameters as immediate
   arguments so the TX hot path allocates no descriptor per segment. *)
let emit_seg tcb kind ~dseq ~dlen ~dpsh =
  (* A CLOSED connection never transmits.  With the SoA store this also
     covers released views: they read the dead row (state = CLOSED), so
     a stale [consume]/[ack_now] after teardown is a silent no-op
     instead of a segment built from zeroed columns. *)
  if state tcb = Tcp_state.Closed then ()
  else
  match tcb.env.alloc () with
  | None -> () (* transmit pool exhausted: behaves as loss; RTO recovers *)
  | Some mbuf ->
      let ack_flag = state tcb <> Tcp_state.Syn_sent in
      (* The env's scratch header: every field is rewritten here and
         the record is consumed by [Seg.prepend] below, before anything
         can re-enter [emit] — no TX segment allocates a header. *)
      let seg = tcb.env.emit_scratch in
      seg.Seg.src_port <- local_port tcb;
      seg.Seg.dst_port <- remote_port tcb;
      seg.Seg.seq <- snd_nxt tcb;
      seg.Seg.ack <- (if ack_flag then rcv_nxt tcb else 0);
      seg.Seg.syn <- false;
      seg.Seg.ack_flag <- ack_flag;
      seg.Seg.fin <- false;
      seg.Seg.rst <- false;
      seg.Seg.psh <- false;
      seg.Seg.ece <- false;
      seg.Seg.cwr <- false;
      seg.Seg.window <- advertised_window tcb;
      seg.Seg.mss <- None;
      seg.Seg.wscale <- None;
      seg.Seg.sack <- None;
      seg.Seg.payload_off <- 0;
      seg.Seg.payload_len <- 0;
      (if dlen >= 0 then begin
         gather_payload tcb mbuf ~seq:dseq ~len:dlen;
         seg.Seg.seq <- dseq;
         seg.Seg.psh <- dpsh
       end
       else
         match kind with
         | Seg_syn ->
             seg.Seg.seq <- iss tcb;
             seg.Seg.syn <- true;
             seg.Seg.ack_flag <- false;
             seg.Seg.mss <- Some tcb.cfg.mss;
             seg.Seg.wscale <- Some tcb.cfg.wscale;
             seg.Seg.window <- min (rcv_window tcb) 0xFFFF
         | Seg_syn_ack ->
             seg.Seg.seq <- iss tcb;
             seg.Seg.syn <- true;
             seg.Seg.ack_flag <- true;
             seg.Seg.mss <- Some tcb.cfg.mss;
             seg.Seg.wscale <- (if ws_enabled tcb then Some tcb.cfg.wscale else None);
             seg.Seg.window <- min (rcv_window tcb) 0xFFFF
         | Seg_fin -> seg.Seg.fin <- true
         | Seg_fin_rexmit ->
             (* The FIN occupies the sequence just below snd_nxt. *)
             seg.Seg.fin <- true;
             seg.Seg.seq <- Seqno.sub (snd_nxt tcb) 1
         | Seg_ack -> ()
         | Seg_rst -> seg.Seg.rst <- true);
      (* D-SACK (RFC 2883): the next ACK-bearing segment reports the
         duplicate range recorded by [process_payload].  One pending
         slot suffices — each duplicate arrival forces its own ACK. *)
      if tcb.dsack_pending <> 0 && seg.Seg.ack_flag then begin
        let dseq = tcb.dsack_pending land 0xFFFF_FFFF in
        let dl = tcb.dsack_pending lsr 32 in
        seg.Seg.sack <- Some (dseq, Seqno.add dseq dl);
        tcb.dsack_pending <- 0;
        tcb.env.on_protocol_event Dsack_sent
      end;
      (* DCTCP: echo congestion marks on outgoing ACK-bearing segments. *)
      if tcb.cfg.dctcp && ce_to_echo tcb && seg.Seg.ack_flag then begin
        set_ce_to_echo tcb false;
        seg.Seg.ece <- true
      end;
      Seg.prepend mbuf ~src:(local_ip tcb) ~dst:(remote_ip tcb) seg;
      incr_segs_out tcb;
      if dlen >= 0 then add_bytes_out tcb dlen;
      set_rcv_adv_wnd tcb (rcv_window tcb);
      set_delack_count tcb 0;
      cancel_timer tcb.env.wheel tcb.delack_timer;
      tcb.delack_timer <- Wheel.null;
      tcb.env.output tcb mbuf

let emit tcb kind = emit_seg tcb kind ~dseq:0 ~dlen:(-1) ~dpsh:false
let emit_data tcb ~seq ~len ~psh = emit_seg tcb Seg_ack ~dseq:seq ~dlen:len ~dpsh:psh
let ack_now tcb = emit tcb Seg_ack

(* RFC 5961: a suspicious segment (in-window but not exact-match RST,
   or a SYN in a synchronized state) is answered with a "challenge
   ACK" — a legitimate peer reacts by re-sending its RST with the
   exact sequence number, while a blind injector learns nothing.  The
   limiter is env-wide (per elastic thread, as the RFC prescribes
   host-wide) so an attacker cannot use one flow's budget to probe
   another. *)
let challenge_ack tcb =
  let env = tcb.env in
  let now = env.now () in
  if now - env.challenge_window_start >= tcb.cfg.challenge_ack_window_ns
  then begin
    env.challenge_window_start <- now;
    env.challenge_sent <- 0
  end;
  if env.challenge_sent < tcb.cfg.challenge_ack_limit then begin
    env.challenge_sent <- env.challenge_sent + 1;
    env.on_protocol_event Challenge_ack_sent;
    ack_now tcb
  end
  else env.on_protocol_event Challenge_ack_limited

(* RFC 793 RST acceptance window; [max 1] keeps an exact-sequence RST
   acceptable against a closed (zero) receive window. *)
let rst_in_window tcb (seg : Seg.t) =
  Seqno.ge seg.Seg.seq (rcv_nxt tcb)
  && Seqno.lt seg.Seg.seq (Seqno.add (rcv_nxt tcb) (max 1 (rcv_window tcb)))

let advance_snd_nxt tcb n =
  set_snd_nxt tcb (Seqno.add (snd_nxt tcb) n);
  if Seqno.gt (snd_nxt tcb) (snd_max tcb) then set_snd_max tcb (snd_nxt tcb)

(* ------------------------------------------------------------------ *)
(* Teardown                                                            *)

let teardown tcb reason =
  if state tcb <> Tcp_state.Closed then begin
    let was_synchronized = Tcp_state.is_synchronized (state tcb) in
    cancel_all_timers tcb;
    List.iter (fun (_, mbuf, _, _) -> Mbuf.decref mbuf) tcb.ooo;
    tcb.ooo <- [];
    Ixmem.Iov_deque.clear tcb.snd_queue;
    set_state tcb Tcp_state.Closed;
    set_last_close tcb reason;
    tcb.env.on_teardown tcb;
    (if was_synchronized then begin
       if not (close_notified tcb) then begin
         set_close_notified tcb true;
         tcb.callbacks.on_closed reason
       end
     end
     else tcb.callbacks.on_connected false);
    (* Only now, after the teardown hook and callbacks have read their
       last fields, does the slot return to the store's free list; the
       view is left pointing at the reserved dead row (CLOSED). *)
    Tcb.release tcb
  end

let abort tcb =
  if state tcb <> Tcp_state.Closed then begin
    (match state tcb with
    | Tcp_state.Syn_sent | Tcp_state.Time_wait -> ()
    | _ -> emit tcb Seg_rst);
    tcb.env.on_protocol_event Local_abort;
    teardown tcb Tcb.Reset
  end

(* ------------------------------------------------------------------ *)
(* Output path                                                         *)

(* The RTO closure is built once per TCB and cached in [rexmit_action];
   re-arming the timer after every ACK then costs only the wheel slot,
   not a fresh closure. *)
let rec set_rexmit tcb =
  cancel_timer tcb.env.wheel tcb.rexmit_timer;
  (if tcb.rexmit_action == Tcb.no_timer_action then
     tcb.rexmit_action <- rexmit_timeout tcb);
  let deadline = tcb.env.now () + rto_ns tcb in
  tcb.rexmit_timer <- Wheel.schedule tcb.env.wheel ~deadline tcb.rexmit_action

and rexmit_timeout tcb () =
  tcb.rexmit_timer <- Wheel.null;
  if state tcb <> Tcp_state.Closed then begin
    set_rexmit_shots tcb (rexmit_shots tcb + 1);
    if rexmit_shots tcb > max_rexmit_shots then teardown tcb Tcb.Timeout
    else begin
      incr_retransmits tcb;
      set_rtt_start tcb (-1) (* Karn: no sample across a retransmission *);
      rtt_backoff tcb;
      cong_on_rto tcb;
      set_dupacks tcb 0;
      (* Go-back-N: after a timeout, everything past snd_una is treated
         as lost; slow start re-covers the range (the receiver's
         out-of-order cache turns most of it into large cumulative
         ACKs).  Without this, a multi-segment loss burst recovers only
         one hole per backed-off RTO — incast collapse squared. *)
      if Tcp_state.is_synchronized (state tcb) then begin
        if fin_sent tcb then begin
          set_fin_sent tcb false;
          set_state tcb
            (match state tcb with
            | Tcp_state.Last_ack -> Tcp_state.Close_wait
            | Tcp_state.Fin_wait_1 | Tcp_state.Closing -> Tcp_state.Established
            | s -> s)
        end;
        set_snd_nxt tcb (snd_una tcb)
      end;
      retransmit_one tcb;
      set_rexmit tcb
    end
  end

and retransmit_one tcb =
  match state tcb with
  | Tcp_state.Syn_sent -> emit tcb Seg_syn
  | Tcp_state.Syn_received -> emit tcb Seg_syn_ack
  | _ ->
      let data_in_flight =
        let d = Seqno.diff (snd_queue_seq tcb) (snd_una tcb) in
        (* snd_queue_seq = snd_una in steady state; if FIN/SYN edge, d>0 *)
        d <= 0
      in
      if data_in_flight && snd_queue_len tcb > 0
         && Seqno.lt (snd_una tcb) (Seqno.add (snd_queue_seq tcb) (snd_queue_len tcb))
      then begin
        let avail =
          Seqno.diff (Seqno.add (snd_queue_seq tcb) (snd_queue_len tcb)) (snd_una tcb)
        in
        let len = min (snd_mss tcb) avail in
        emit_data tcb ~seq:(snd_una tcb) ~len ~psh:false;
        (* Keep snd_nxt covering the retransmission (go-back-N resets). *)
        if Seqno.lt (snd_nxt tcb) (Seqno.add (snd_una tcb) len) then begin
          set_snd_nxt tcb (Seqno.add (snd_una tcb) len);
          if Seqno.gt (snd_nxt tcb) (snd_max tcb) then set_snd_max tcb (snd_nxt tcb)
        end
      end
      else if fin_sent tcb then emit tcb Seg_fin_rexmit
      else ()

let arm_rexmit_if_needed tcb =
  if Tcb.flight tcb > 0 then begin
    if tcb.rexmit_timer == Wheel.null then set_rexmit tcb
  end
  else clear_rexmit tcb

let rec persist_timeout tcb () =
  tcb.persist_timer <- Wheel.null;
  if state tcb <> Tcp_state.Closed && snd_wnd tcb = 0 && Tcb.unsent tcb > 0 then begin
    (* Window probe: one byte beyond the window. *)
    emit_data tcb ~seq:(snd_nxt tcb) ~len:1 ~psh:false;
    advance_snd_nxt tcb 1;
    rtt_backoff tcb;
    arm_rexmit_if_needed tcb;
    arm_persist tcb
  end

and arm_persist tcb =
  if tcb.persist_timer == Wheel.null then begin
    let deadline = tcb.env.now () + rto_ns tcb in
    tcb.persist_timer <- Wheel.schedule tcb.env.wheel ~deadline (persist_timeout tcb)
  end

let try_output tcb =
  if Tcp_state.can_send_data (state tcb) || fin_queued tcb then begin
    let wnd = min (snd_wnd tcb) (cwnd tcb) in
    let progress = ref true in
    while
      !progress && Tcb.unsent tcb > 0 && Tcb.flight tcb < wnd
      && Tcp_state.can_send_data (state tcb)
    do
      let len = min (min (snd_mss tcb) (Tcb.unsent tcb)) (wnd - Tcb.flight tcb) in
      if len <= 0 then progress := false
      else begin
        let seq = snd_nxt tcb in
        let psh = len = Tcb.unsent tcb in
        (* Time one segment per window for RTT estimation. *)
        if rtt_start tcb < 0 then begin
          set_rtt_start tcb (tcb.env.now ());
          set_rtt_seq tcb (Seqno.add seq len)
        end;
        emit_data tcb ~seq ~len ~psh;
        advance_snd_nxt tcb len
      end
    done;
    (* FIN once the queue is drained. *)
    if fin_queued tcb && (not (fin_sent tcb)) && Tcb.unsent tcb = 0
       && Tcp_state.can_send_data (state tcb)
    then begin
      emit tcb Seg_fin;
      set_fin_sent tcb true;
      advance_snd_nxt tcb 1;
      set_state tcb
        (match state tcb with
        | Tcp_state.Close_wait -> Tcp_state.Last_ack
        | _ -> Tcp_state.Fin_wait_1)
    end;
    if snd_wnd tcb = 0 && Tcb.unsent tcb > 0 && Tcb.flight tcb = 0 then
      arm_persist tcb;
    arm_rexmit_if_needed tcb
  end

(* ------------------------------------------------------------------ *)
(* Public API: open/send/close                                         *)

let connect env cfg ~local_ip ~local_port ~remote_ip ~remote_port ~cookie =
  let tcb = Tcb.create env cfg ~local_ip ~local_port ~remote_ip ~remote_port ~cookie in
  set_state tcb Tcp_state.Syn_sent;
  set_snd_nxt tcb (Seqno.add (iss tcb) 1);
  set_snd_max tcb (snd_nxt tcb);
  emit tcb Seg_syn;
  set_rexmit tcb;
  tcb

let accept_syn env cfg ~local_ip ~remote_ip ~segment ~cookie =
  let tcb =
    Tcb.create env cfg ~local_ip ~local_port:segment.Seg.dst_port ~remote_ip
      ~remote_port:segment.Seg.src_port ~cookie
  in
  set_state tcb Tcp_state.Syn_received;
  set_irs tcb segment.Seg.seq;
  set_rcv_nxt tcb (Seqno.add segment.Seg.seq 1);
  (match segment.Seg.mss with
  | Some mss -> set_snd_mss tcb (min tcb.cfg.mss mss)
  | None -> set_snd_mss tcb 536);
  (match segment.Seg.wscale with
  | Some shift ->
      set_ws_enabled tcb true;
      set_snd_wscale tcb shift
  | None -> set_ws_enabled tcb false);
  set_snd_wnd tcb segment.Seg.window (* unscaled in SYN *);
  set_snd_nxt tcb (Seqno.add (iss tcb) 1);
  set_snd_max tcb (snd_nxt tcb);
  emit tcb Seg_syn_ack;
  set_rexmit tcb;
  tcb

(* SYN-cookie materialization: the handshake already completed on the
   wire (stateless SYN-ACK, cookie-validated ACK); build the TCB
   directly in ESTABLISHED.  [iss] is the cookie value the SYN-ACK
   carried as its ISS, [mss] the peer MSS recovered from the cookie's
   class bits.  The endpoint validates the cookie before calling and
   feeds the ACK segment through [input] afterwards, so any payload
   riding it is delivered normally. *)
let accept_cookie env cfg ~local_ip ~remote_ip ~segment ~iss:cookie_iss ~mss
    ~cookie =
  let tcb =
    Tcb.create env cfg ~local_ip ~local_port:segment.Seg.dst_port ~remote_ip
      ~remote_port:segment.Seg.src_port ~cookie
  in
  (* Replace the randomly drawn ISS with the cookie the peer echoed. *)
  set_iss tcb cookie_iss;
  let nxt = Seqno.add cookie_iss 1 in
  set_snd_una tcb nxt;
  set_snd_nxt tcb nxt;
  set_snd_max tcb nxt;
  set_recover tcb cookie_iss;
  set_snd_queue_seq tcb nxt;
  set_irs tcb (Seqno.sub segment.Seg.seq 1);
  set_rcv_nxt tcb segment.Seg.seq;
  set_snd_mss tcb (min tcb.cfg.mss mss);
  (* The stateless SYN-ACK offered no window scaling. *)
  set_ws_enabled tcb false;
  set_snd_wnd tcb segment.Seg.window;
  set_state tcb Tcp_state.Established;
  env.on_established tcb;
  tcb

(* IX semantics: accept only what the transmit budget (send buffer
   bounded by the peer's window headroom) allows; the caller retries
   the rest on a later [sent] event. *)
let send_budget tcb =
  let budget =
    if tcb.cfg.buffered_send then tcb.cfg.snd_buf - snd_queue_len tcb
    else begin
      let window_headroom =
        max (snd_wnd tcb) (2 * snd_mss tcb) - (Tcb.flight tcb + Tcb.unsent tcb)
      in
      min (tcb.cfg.snd_buf - snd_queue_len tcb) window_headroom
    end
  in
  max budget 0

let send tcb iovs =
  if not (Tcp_state.can_send_data (state tcb)) || fin_queued tcb then 0
  else begin
    let budget = send_budget tcb in
    let total = Iovec.total iovs in
    let accepted = min budget total in
    if accepted > 0 then begin
      (* Queue iovecs, splitting the one at the accepted boundary. *)
      let rec take remaining = function
        | [] -> ()
        | (iov : Iovec.t) :: rest ->
            if remaining > 0 then
              if iov.Iovec.len <= remaining then begin
                Ixmem.Iov_deque.push tcb.snd_queue iov;
                take (remaining - iov.Iovec.len) rest
              end
              else Ixmem.Iov_deque.push tcb.snd_queue (Iovec.sub iov 0 remaining)
      in
      take accepted iovs;
      set_snd_queue_len tcb (snd_queue_len tcb + accepted);
      try_output tcb
    end;
    accepted
  end

(* Single-slice [send], open-coded: the per-message socket write path
   (one [write(2)] per request) skips the list build and the local
   recursion closure. *)
let send_iov tcb (iov : Iovec.t) =
  if not (Tcp_state.can_send_data (state tcb)) || fin_queued tcb then 0
  else begin
    let accepted = min (send_budget tcb) iov.Iovec.len in
    if accepted > 0 then begin
      if accepted = iov.Iovec.len then Ixmem.Iov_deque.push tcb.snd_queue iov
      else Ixmem.Iov_deque.push tcb.snd_queue (Iovec.sub iov 0 accepted);
      set_snd_queue_len tcb (snd_queue_len tcb + accepted);
      try_output tcb
    end;
    accepted
  end

(* Zero-copy sendv: pull the accepted prefix straight off the
   connection's write queue — whole slices move by reference, only a
   split at the acceptance boundary allocates.  This is the libix
   run-to-completion path; the list-based [send] above stays for
   callers holding materialized iovec lists (baseline stacks). *)
let send_from tcb queue =
  if not (Tcp_state.can_send_data (state tcb)) || fin_queued tcb then 0
  else begin
    let budget = send_budget tcb in
    let accepted = min budget (Ixmem.Iov_deque.bytes queue) in
    if accepted > 0 then begin
      let moved =
        Ixmem.Iov_deque.transfer ~src:queue ~dst:tcb.snd_queue
          ~max_bytes:accepted
      in
      assert (moved = accepted);
      set_snd_queue_len tcb (snd_queue_len tcb + accepted);
      try_output tcb
    end;
    accepted
  end

let consume tcb n =
  assert (n >= 0);
  set_rcv_unconsumed tcb (max 0 (rcv_unconsumed tcb - n));
  (* Send a window update if the window reopened significantly since we
     last told the peer about it. *)
  let w = rcv_window tcb in
  if (rcv_adv_wnd tcb < snd_mss tcb && w >= 2 * snd_mss tcb)
     || w - rcv_adv_wnd tcb >= tcb.cfg.rcv_buf / 2
  then ack_now tcb

let close tcb =
  match state tcb with
  | Tcp_state.Closed -> ()
  | Tcp_state.Syn_sent | Tcp_state.Listen -> teardown tcb Tcb.Normal
  | Tcp_state.Established | Tcp_state.Close_wait | Tcp_state.Syn_received ->
      set_fin_queued tcb true;
      try_output tcb
  | Tcp_state.Fin_wait_1 | Tcp_state.Fin_wait_2 | Tcp_state.Closing
  | Tcp_state.Last_ack | Tcp_state.Time_wait ->
      () (* already closing *)

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

let enter_time_wait tcb =
  set_state tcb Tcp_state.Time_wait;
  clear_rexmit tcb;
  cancel_timer tcb.env.wheel tcb.time_wait_timer;
  tcb.time_wait_timer <- Wheel.null;
  (* TIME_WAIT recycling: the endpoint records a [Tw_table] remnant and
     returns [true]; the full TCB is released right away instead of
     sitting armed for [time_wait_ns]. *)
  if tcb.env.on_time_wait tcb then teardown tcb Tcb.Normal
  else begin
    let deadline = tcb.env.now () + tcb.cfg.time_wait_ns in
    tcb.time_wait_timer <-
      Wheel.schedule tcb.env.wheel ~deadline (fun () -> teardown tcb Tcb.Normal)
  end

let drop_acked_data tcb ack =
  let acked_data =
    let d = Seqno.diff ack (snd_queue_seq tcb) in
    max 0 (min d (snd_queue_len tcb))
  in
  if acked_data > 0 then begin
    (* Allocation-free: whole slices pop, a partial one advances the
       deque's front index. *)
    Ixmem.Iov_deque.drop_front tcb.snd_queue acked_data;
    set_snd_queue_seq tcb (Seqno.add (snd_queue_seq tcb) acked_data);
    set_snd_queue_len tcb (snd_queue_len tcb - acked_data)
  end;
  acked_data

let update_send_window tcb (seg : Seg.t) =
  let scale = if ws_enabled tcb then snd_wscale tcb else 0 in
  set_snd_wnd tcb (seg.Seg.window lsl scale);
  if snd_wnd tcb > 0 then begin
    cancel_timer tcb.env.wheel tcb.persist_timer;
    tcb.persist_timer <- Wheel.null
  end

let delack_timeout tcb () =
  tcb.delack_timer <- Wheel.null;
  if state tcb <> Tcp_state.Closed && delack_count tcb > 0 then ack_now tcb

(* Like [rexmit_action], the delayed-ACK closure is built once per TCB. *)
let arm_delack tcb =
  if tcb.delack_action == Tcb.no_timer_action then
    tcb.delack_action <- delack_timeout tcb;
  let deadline = tcb.env.now () + tcb.cfg.delack_ns in
  tcb.delack_timer <- Wheel.schedule tcb.env.wheel ~deadline tcb.delack_action

let schedule_delack tcb =
  set_delack_count tcb (delack_count tcb + 1);
  if delack_count tcb >= tcb.cfg.delack_segs then ack_now tcb
  else if tcb.delack_timer == Wheel.null then arm_delack tcb

(* Deliver the in-order byte range [seg payload from rcv_nxt onward]. *)
let deliver_payload tcb mbuf ~off ~len =
  if len > 0 && Tcp_state.can_receive_data (state tcb) then begin
    set_rcv_unconsumed tcb (rcv_unconsumed tcb + len);
    add_bytes_in tcb len;
    Mbuf.incref mbuf;
    tcb.callbacks.on_recv mbuf off len
  end

let insert_ooo tcb seq mbuf off len =
  if List.length tcb.ooo < 64
     && not (List.exists (fun (s, _, _, _) -> s = seq) tcb.ooo)
  then begin
    Mbuf.incref mbuf;
    let entry = (seq, mbuf, off, len) in
    let sorted =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> Seqno.diff a b) (entry :: tcb.ooo)
    in
    tcb.ooo <- sorted
  end

let rec drain_ooo tcb =
  match tcb.ooo with
  | (seq, mbuf, off, len) :: rest when Seqno.le seq (rcv_nxt tcb) ->
      tcb.ooo <- rest;
      let skip = Seqno.diff (rcv_nxt tcb) seq in
      if skip < len then begin
        set_rcv_nxt tcb (Seqno.add (rcv_nxt tcb) (len - skip));
        deliver_payload tcb mbuf ~off:(off + skip) ~len:(len - skip)
      end;
      Mbuf.decref mbuf;
      drain_ooo tcb
  | _ -> ()

let process_payload tcb (seg : Seg.t) mbuf =
  let seq = seg.Seg.seq and len = seg.Seg.payload_len in
  if len = 0 then false
  else if not (Tcp_state.can_receive_data (state tcb)) then false
  else begin
    let seg_end = Seqno.add seq len in
    if Seqno.le seg_end (rcv_nxt tcb) then begin
      (* Entirely old: dup segment, force an ACK to resynchronize,
         reporting the duplicate range in a D-SACK block (RFC 2883) so
         the sender can tell spurious retransmission from loss. *)
      if tcb.cfg.dsack then tcb.dsack_pending <- seq lor (len lsl 32);
      ack_now tcb;
      false
    end
    else if Seqno.gt seq (rcv_nxt tcb) then begin
      (* Future data: out of order.  Stash and dup-ACK. *)
      insert_ooo tcb seq mbuf seg.Seg.payload_off len;
      ack_now tcb;
      false
    end
    else begin
      (* In order (possibly with an old prefix). *)
      let skip = Seqno.diff (rcv_nxt tcb) seq in
      let fresh = len - skip in
      set_rcv_nxt tcb (Seqno.add (rcv_nxt tcb) fresh);
      deliver_payload tcb mbuf ~off:(seg.Seg.payload_off + skip) ~len:fresh;
      drain_ooo tcb;
      true
    end
  end

let process_fin tcb (seg : Seg.t) =
  let fin_seq = Seqno.add seg.Seg.seq seg.Seg.payload_len in
  if seg.Seg.fin && fin_seq = rcv_nxt tcb then begin
    set_rcv_nxt tcb (Seqno.add (rcv_nxt tcb) 1);
    ack_now tcb;
    (match state tcb with
    | Tcp_state.Established ->
        set_state tcb Tcp_state.Close_wait;
        if not (close_notified tcb) then begin
          set_close_notified tcb true;
          tcb.callbacks.on_closed Tcb.Normal
        end
    | Tcp_state.Fin_wait_1 ->
        (* Our FIN not yet acked: simultaneous close. *)
        set_state tcb Tcp_state.Closing
    | Tcp_state.Fin_wait_2 -> enter_time_wait tcb
    | Tcp_state.Syn_received | Tcp_state.Close_wait | Tcp_state.Closing
    | Tcp_state.Last_ack | Tcp_state.Time_wait | Tcp_state.Closed
    | Tcp_state.Listen | Tcp_state.Syn_sent ->
        ())
  end

let process_ack tcb (seg : Seg.t) =
  let ack = seg.Seg.ack in
  if Seqno.gt ack (snd_max tcb) then ack_now tcb (* acks never-sent data *)
  else if Seqno.gt ack (snd_una tcb) then begin
    (* After a go-back-N reset, a cumulative ACK may leapfrog snd_nxt
       (the receiver's out-of-order cache covered the hole). *)
    if Seqno.gt ack (snd_nxt tcb) then set_snd_nxt tcb ack;
    let acked = Seqno.diff ack (snd_una tcb) in
    if tcb.cfg.dctcp then
      cong_on_ecn_feedback tcb ~acked_bytes:acked ~marked:seg.Seg.ece;
    set_snd_una tcb ack;
    set_rexmit_shots tcb 0;
    rtt_reset_backoff tcb;
    (* RTT sample (Karn-valid). *)
    if rtt_start tcb >= 0 && Seqno.ge ack (rtt_seq tcb) then begin
      rtt_observe tcb ~sample_ns:(tcb.env.now () - rtt_start tcb);
      set_rtt_start tcb (-1)
    end;
    let data_acked = drop_acked_data tcb ack in
    update_send_window tcb seg;
    if in_recovery tcb then begin
      if Seqno.ge (snd_una tcb) (recover tcb) then begin
        cong_on_recovery_exit tcb;
        set_dupacks tcb 0
      end
      else
        (* Partial ACK: retransmit the next hole immediately. *)
        retransmit_one tcb
    end
    else begin
      set_dupacks tcb 0;
      cong_on_ack tcb ~acked_bytes:acked
    end;
    (* Handshake / close transitions driven by our data being acked. *)
    (match state tcb with
    | Tcp_state.Syn_received ->
        set_state tcb Tcp_state.Established;
        update_send_window tcb seg;
        tcb.env.on_established tcb
    | Tcp_state.Fin_wait_1 when fin_sent tcb && ack = snd_nxt tcb ->
        set_state tcb Tcp_state.Fin_wait_2
    | Tcp_state.Closing when fin_sent tcb && ack = snd_nxt tcb ->
        enter_time_wait tcb
    | Tcp_state.Last_ack when fin_sent tcb && ack = snd_nxt tcb ->
        teardown tcb Tcb.Normal
    | _ -> ());
    if state tcb <> Tcp_state.Closed then begin
      if Tcb.flight tcb = 0 then clear_rexmit tcb
      else set_rexmit tcb;
      if data_acked > 0 then tcb.callbacks.on_sent data_acked;
      try_output tcb
    end
  end
  else begin
    (* ack = snd_una: possible duplicate. *)
    update_send_window tcb seg;
    let dsack_dup =
      (* A dup-ACK whose D-SACK block sits at or below snd_una reports
         a duplicate *delivery* (our spurious retransmission or a wire
         dup), not a hole — it must not feed the fast-retransmit
         counter (RFC 2883 §4; the SACK-recovery groundwork). *)
      tcb.cfg.dsack
      &&
      match seg.Seg.sack with
      | Some (_, right) -> Seqno.le right (snd_una tcb)
      | None -> false
    in
    if dsack_dup then tcb.env.on_protocol_event Dsack_dupack_ignored
    else if seg.Seg.payload_len = 0 && Tcb.flight tcb > 0 then begin
      set_dupacks tcb (dupacks tcb + 1);
      if dupacks tcb = dup_ack_threshold then begin
        set_recover tcb (snd_nxt tcb);
        cong_on_fast_retransmit tcb ~flight:(Tcb.flight tcb);
        retransmit_one tcb
      end
      else if dupacks tcb > dup_ack_threshold then begin
        cong_on_dup_ack tcb;
        try_output tcb
      end
    end;
    (match state tcb with
    | Tcp_state.Syn_received when Seqno.ge ack (snd_una tcb) ->
        () (* retransmitted handshake ACK handled above *)
    | _ -> ());
    try_output tcb
  end

let input_syn_sent tcb (seg : Seg.t) =
  if seg.Seg.rst then begin
    if seg.Seg.ack_flag && seg.Seg.ack = snd_nxt tcb then teardown tcb Tcb.Refused
  end
  else if seg.Seg.syn && seg.Seg.ack_flag && seg.Seg.ack = snd_nxt tcb then begin
    set_irs tcb seg.Seg.seq;
    set_rcv_nxt tcb (Seqno.add seg.Seg.seq 1);
    set_snd_una tcb seg.Seg.ack;
    (match seg.Seg.mss with
    | Some mss -> set_snd_mss tcb (min tcb.cfg.mss mss)
    | None -> set_snd_mss tcb 536);
    (match seg.Seg.wscale with
    | Some shift ->
        set_ws_enabled tcb true;
        set_snd_wscale tcb shift
    | None -> set_ws_enabled tcb false);
    set_snd_wnd tcb seg.Seg.window (* unscaled in SYN *);
    set_state tcb Tcp_state.Established;
    clear_rexmit tcb;
    set_rexmit_shots tcb 0;
    ack_now tcb;
    tcb.callbacks.on_connected true;
    try_output tcb
  end

let input ?(ce = false) tcb (seg : Seg.t) mbuf =
  incr_segs_in tcb;
  if ce && tcb.cfg.dctcp then set_ce_to_echo tcb true;
  match state tcb with
  | Tcp_state.Closed | Tcp_state.Listen -> ()
  | Tcp_state.Syn_sent -> input_syn_sent tcb seg
  | Tcp_state.Syn_received when seg.Seg.rst ->
      (* RFC 5961 §3.2 applied to the nascent connection: only an
         exact-sequence RST aborts the handshake; an in-window guess
         draws a challenge ACK, anything else is dropped. *)
      if not tcb.cfg.rfc5961 || seg.Seg.seq = rcv_nxt tcb then begin
        tcb.env.on_protocol_event Rst_accepted;
        teardown tcb Tcb.Reset
      end
      else if rst_in_window tcb seg then challenge_ack tcb
  | Tcp_state.Syn_received when seg.Seg.syn ->
      emit tcb Seg_syn_ack (* duplicate SYN: re-answer *)
  | Tcp_state.Time_wait ->
      if seg.Seg.rst then begin
        (* RFC 1337: TIME-WAIT assassination protection — an RST must
           not cut the quiet period short, or old duplicates from this
           incarnation could corrupt its successor. *)
        if tcb.cfg.rfc1337 then tcb.env.on_protocol_event Tw_rst_dropped
        else begin
          tcb.env.on_protocol_event Rst_accepted;
          teardown tcb Tcb.Reset
        end
      end
      else begin
        (* Any arrival in TIME_WAIT (e.g. a retransmitted FIN whose
           final ACK was lost) is re-ACKed and restarts the timer. *)
        ack_now tcb;
        enter_time_wait tcb
      end
  | _ ->
      if seg.Seg.rst then begin
        (* RFC 5961 §3.2: only an RST at exactly rcv_nxt terminates;
           one elsewhere in the receive window — a blind attacker's
           best guess — draws a rate-limited challenge ACK, which a
           genuine peer answers with an exact-sequence RST.  With the
           hardening off, any in-window RST is accepted (RFC 793). *)
        if seg.Seg.seq = rcv_nxt tcb then begin
          tcb.env.on_protocol_event Rst_accepted;
          teardown tcb Tcb.Reset
        end
        else if rst_in_window tcb seg then begin
          if tcb.cfg.rfc5961 then challenge_ack tcb
          else begin
            tcb.env.on_protocol_event Rst_accepted;
            teardown tcb Tcb.Reset
          end
        end
      end
      else if seg.Seg.syn && tcb.cfg.rfc5961 then
        (* RFC 5961 §4: a SYN in a synchronized state is never valid;
           challenge-ACK it (the legacy path falls through below and
           treats it as an old duplicate). *)
        challenge_ack tcb
      else begin
        if seg.Seg.ack_flag then process_ack tcb seg;
        if state tcb <> Tcp_state.Closed then begin
          let delivered = process_payload tcb seg mbuf in
          if state tcb <> Tcp_state.Closed then begin
            process_fin tcb seg;
            if delivered then schedule_delack tcb
          end
        end
      end

(* ------------------------------------------------------------------ *)
(* Receive fast path (Van Jacobson header prediction)                  *)

(* [input_fast tcb seg mbuf] handles the common established-flow
   segment — in-order, plausible ACK, no flags beyond ACK|PSH, window
   unchanged — without walking the full [input] state machine.  It is a
   pure optimisation: for every segment it accepts, the effects (TCB
   mutations, timers, congestion state, emitted segments, callbacks)
   are exactly those [input] would have produced; everything else
   returns [false] untouched and the caller falls back to [input].
   The qcheck equivalence suite (test/test_fastpath.ml) holds this to
   random segment streams.

   Gate conditions (all must hold):
   - [cfg.fast_path] enabled (the [--fast-path=off] escape hatch);
   - state = ESTABLISHED;
   - ACK set; SYN/FIN/RST clear; ECE/CWR clear and DCTCP off (ECN
     feedback takes the slow path);
   - seq = rcv_nxt with no out-of-order backlog (delivery cannot
     resequence);
   - advertised window unchanged and open, no persist timer pending
     (skipping [update_send_window] is then exact);
   - ACK in (snd_una, snd_nxt] outside loss recovery — the common
     piggybacked ACK — or ACK = snd_una carrying data (a pure
     duplicate ACK has retransmit side effects and falls back). *)
let input_fast tcb (seg : Seg.t) mbuf =
  tcb.cfg.fast_path
  && state tcb = Tcp_state.Established
  && seg.Seg.ack_flag
  && (not seg.Seg.syn) && (not seg.Seg.fin) && (not seg.Seg.rst)
  && (not tcb.cfg.dctcp) && (not seg.Seg.ece) && (not seg.Seg.cwr)
  && seg.Seg.seq = rcv_nxt tcb
  && tcb.ooo == []
  && snd_wnd tcb > 0
  && seg.Seg.window lsl (if ws_enabled tcb then snd_wscale tcb else 0)
     = snd_wnd tcb
  && tcb.persist_timer == Wheel.null
  &&
  let ack = seg.Seg.ack in
  let ack_advances = Seqno.gt ack (snd_una tcb) in
  (if ack_advances then
     Seqno.le ack (snd_nxt tcb) && not (in_recovery tcb)
   else ack = snd_una tcb && seg.Seg.payload_len > 0)
  && begin
       (* Committed: replicate the slow path's effect sequence. *)
       incr_segs_in tcb;
       if ack_advances then begin
         (* [process_ack], new-data branch, with the gated-out cases
            (leapfrog, DCTCP feedback, recovery, handshake/close
            transitions, window change) removed. *)
         let acked = Seqno.diff ack (snd_una tcb) in
         set_snd_una tcb ack;
         set_rexmit_shots tcb 0;
         rtt_reset_backoff tcb;
         if rtt_start tcb >= 0 && Seqno.ge ack (rtt_seq tcb) then begin
           rtt_observe tcb ~sample_ns:(tcb.env.now () - rtt_start tcb);
           set_rtt_start tcb (-1)
         end;
         let data_acked = drop_acked_data tcb ack in
         set_dupacks tcb 0;
         cong_on_ack tcb ~acked_bytes:acked;
         if Tcb.flight tcb = 0 then clear_rexmit tcb
         else set_rexmit tcb;
         if data_acked > 0 then tcb.callbacks.on_sent data_acked;
         try_output tcb
       end
       else
         (* [process_ack], duplicate branch: payload_len > 0 skips the
            dup-ACK machinery, leaving only the output poke. *)
         try_output tcb;
       (* Payload + delayed-ACK accounting, exactly as [input]'s tail
          ([process_fin] is a no-op here: FIN is gated out). *)
       if state tcb <> Tcp_state.Closed then begin
         let delivered = process_payload tcb seg mbuf in
         if state tcb <> Tcp_state.Closed && delivered then
           schedule_delack tcb
       end;
       true
     end

(* ------------------------------------------------------------------ *)
(* Flow migration                                                      *)

let rebind tcb new_env =
  let had_rexmit = tcb.rexmit_timer != Wheel.null in
  let had_delack = tcb.delack_timer != Wheel.null in
  let had_time_wait = tcb.time_wait_timer != Wheel.null in
  cancel_all_timers tcb;
  tcb.env <- new_env;
  if had_rexmit || Tcb.flight tcb > 0 then set_rexmit tcb;
  if had_delack then arm_delack tcb;
  if had_time_wait then enter_time_wait tcb
