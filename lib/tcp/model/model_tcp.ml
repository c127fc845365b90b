(* Pure-functional model TCP: the conformance oracle.

   This is a transliteration of the production state machine
   ([Tcp_conn] over the unboxed [Tcb] store) into an immutable record with
   explicit time: no timer wheel (deadlines are plain integers, [-1]
   disarmed), no mbufs (payloads are lengths), no store, no
   environment.  Every piece of protocol arithmetic — sequence-window
   acceptance, RFC 6298 RTT estimation, NewReno congestion control,
   the always-on RFC 5961/1337/2883 hardening — is written with the
   exact integer operations of the production code, so the conformance
   driver ([Harness.Conformance]) can replay one segment schedule
   through both and assert the observable traces are *equal*, not
   merely similar.

   TIME_WAIT is what production runs: entering it tears the connection
   down and hands its final sequence numbers over in a [Tw_remnant]
   action, which the driver keeps as [Tcp_endpoint] keeps its
   flow-table remnant.

   What the model deliberately does not cover (the driver pins these
   off in its config and the constructors check): DCTCP and SYN
   cookies.  The receive fast path needs
   no counterpart — it is specified as observably identical to the
   slow path, which is precisely what conformance against this model
   verifies, with [fast_path] on and off.

   Everything observable is returned, never invoked: a step yields the
   successor state plus an in-order list of {!item}s — emitted segment
   headers interleaved with the application callbacks and protocol
   events the production code would have fired.  Internally the steps
   thread a one-field mutable machine over the immutable record purely
   as transliteration scaffolding; no state escapes a call. *)

module Seqno = Ixtcp.Seqno
module Tcp_state = Ixtcp.Tcp_state
module Tcb = Ixtcp.Tcb

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  syn : bool;
  ack_flag : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  window : int;
  mss : int option;
  wscale : int option;
  sack : (int * int) option;
  payload_len : int;
}

type action =
  | Recv of int
  | Sent of int
  | Connected of bool
  | Closed of Tcb.close_reason
  | Event of Tcb.protocol_event
  | Tw_remnant of { snd_nxt : int; rcv_nxt : int }

type item = Out of segment | Act of action

type t = {
  cfg : Tcb.config;
  local_port : int;
  remote_port : int;
  st : Tcp_state.t;
  iss : int;
  irs : int;
  snd_una : int;
  snd_nxt : int;
  snd_max : int;
  recover : int;
  snd_queue_seq : int;
  snd_queue_len : int;
  rcv_nxt : int;
  rcv_unconsumed : int;
  rcv_adv_wnd : int;
  snd_wnd : int;
  snd_mss : int;
  ws_enabled : bool;
  snd_wscale : int;
  fin_queued : bool;
  fin_sent : bool;
  close_notified : bool;
  cwnd : int;
  ssthresh : int;
  avoid_acc : int;
  in_recovery : bool;
  dupacks : int;
  rto : int;
  backoff_mult : int;
  rtt_have_sample : bool;
  srtt : int;
  rttvar : int;
  rtt_start : int;  (* -1 when no sample is in flight *)
  rtt_seq : int;
  rexmit_shots : int;
  delack_count : int;
  ooo : (int * int) list;  (* (seq, len), sorted, capped at 64 *)
  dsack_pending : int;  (* seq lor (len lsl 32), 0 when none *)
  last_close : Tcb.close_reason option;
  (* Timer deadlines in absolute sim-time ns; -1 = disarmed. *)
  rexmit_at : int;
  persist_at : int;
  delack_at : int;
  (* RFC 5961 limiter (env-wide in production; the model covers one
     connection per endpoint, so it lives here). *)
  challenge_window_start : int;
  challenge_sent : int;
}

let max_rexmit_shots = 12
let max_window = 64 * 1024 * 1024
let dup_ack_threshold = 3

(* ------------------------------------------------------------------ *)
(* Derived quantities (Tcb accessors)                                  *)

let flight s = Seqno.diff s.snd_nxt s.snd_una

let unsent s =
  let sent_data = Seqno.diff s.snd_nxt s.snd_queue_seq in
  let sent_data = Int.max 0 (Int.min s.snd_queue_len sent_data) in
  s.snd_queue_len - sent_data

let rcv_window s =
  let w = s.cfg.Tcb.rcv_buf - s.rcv_unconsumed in
  if w < 0 then 0 else w

let advertised_window s =
  let w = rcv_window s in
  let shift = if s.ws_enabled then s.cfg.Tcb.wscale else 0 in
  Int.min (w lsr shift) 0xFFFF

let rto_clamp cfg v = Int.max cfg.Tcb.min_rto_ns (Int.min cfg.Tcb.max_rto_ns v)
let rto_ns s = rto_clamp s.cfg (s.rto * s.backoff_mult)

let send_budget s =
  let budget =
    if s.cfg.Tcb.buffered_send then s.cfg.Tcb.snd_buf - s.snd_queue_len
    else begin
      let window_headroom =
        Int.max s.snd_wnd (2 * s.snd_mss) - (flight s + unsent s)
      in
      Int.min (s.cfg.Tcb.snd_buf - s.snd_queue_len) window_headroom
    end
  in
  Int.max budget 0

(* ------------------------------------------------------------------ *)
(* The step machine: transliteration scaffolding.  [s] is the evolving
   immutable state, [rev] the observable items in reverse order, [now]
   the (fixed) time of this step. *)

type mach = { mutable s : t; mutable rev : item list; now : int }

let out m seg = m.rev <- Out seg :: m.rev
let act m a = m.rev <- Act a :: m.rev

(* ------------------------------------------------------------------ *)
(* RTT estimator (RFC 6298) and congestion control (NewReno)           *)

let rtt_observe m ~sample_ns =
  let s = m.s in
  let srtt, rttvar =
    if not s.rtt_have_sample then (sample_ns, sample_ns / 2)
    else begin
      let err = abs (sample_ns - s.srtt) in
      (((7 * s.srtt) + sample_ns) / 8, ((3 * s.rttvar) + err) / 4)
    end
  in
  m.s <-
    {
      s with
      srtt;
      rttvar;
      rtt_have_sample = true;
      backoff_mult = 1;
      rto = rto_clamp s.cfg (srtt + Int.max 1000 (4 * rttvar));
    }

let rtt_backoff m =
  if m.s.backoff_mult < 64 then
    m.s <- { m.s with backoff_mult = m.s.backoff_mult * 2 }

let rtt_reset_backoff m = m.s <- { m.s with backoff_mult = 1 }

let cong_on_ack m ~acked_bytes =
  let s = m.s in
  if not s.in_recovery then
    if s.cwnd < s.ssthresh then
      m.s <- { s with cwnd = Int.min max_window (s.cwnd + acked_bytes) }
    else begin
      let acc = s.avoid_acc + acked_bytes in
      if acc >= s.cwnd then
        m.s <-
          {
            s with
            avoid_acc = acc - s.cwnd;
            cwnd = Int.min max_window (s.cwnd + s.cfg.Tcb.mss);
          }
      else m.s <- { s with avoid_acc = acc }
    end

let cong_on_dup_ack m =
  if m.s.in_recovery then
    m.s <- { m.s with cwnd = Int.min max_window (m.s.cwnd + m.s.cfg.Tcb.mss) }

let cong_on_fast_retransmit m ~flight =
  let s = m.s in
  let ssthresh' = Int.max (2 * s.cfg.Tcb.mss) (flight / 2) in
  m.s <-
    {
      s with
      ssthresh = ssthresh';
      cwnd = ssthresh' + (dup_ack_threshold * s.cfg.Tcb.mss);
      in_recovery = true;
    }

let cong_on_recovery_exit m =
  m.s <- { m.s with in_recovery = false; cwnd = m.s.ssthresh; avoid_acc = 0 }

let cong_on_rto m =
  let s = m.s in
  m.s <-
    {
      s with
      ssthresh = Int.max (2 * s.cfg.Tcb.mss) (s.cwnd / 2);
      cwnd = s.cfg.Tcb.mss;
      in_recovery = false;
      avoid_acc = 0;
    }

(* ------------------------------------------------------------------ *)
(* Segment construction (Tcp_conn.emit_seg)                            *)

type seg_kind =
  | Seg_syn
  | Seg_syn_ack
  | Seg_fin
  | Seg_fin_rexmit
  | Seg_ack
  | Seg_rst

let emit_seg m kind ~dseq ~dlen ~dpsh =
  let s = m.s in
  if s.st = Tcp_state.Closed then ()
  else begin
    let ack_flag0 = s.st <> Tcp_state.Syn_sent in
    let seq = ref s.snd_nxt in
    let ack = if ack_flag0 then s.rcv_nxt else 0 in
    let syn = ref false
    and ack_flag = ref ack_flag0
    and fin = ref false
    and rst = ref false
    and psh = ref false in
    let window = ref (advertised_window s) in
    let mss_o = ref None and ws_o = ref None in
    let payload_len = ref 0 in
    (if dlen >= 0 then begin
       seq := dseq;
       psh := dpsh;
       payload_len := dlen
     end
     else
       match kind with
       | Seg_syn ->
           seq := s.iss;
           syn := true;
           ack_flag := false;
           mss_o := Some s.cfg.Tcb.mss;
           ws_o := Some s.cfg.Tcb.wscale;
           window := Int.min (rcv_window s) 0xFFFF
       | Seg_syn_ack ->
           seq := s.iss;
           syn := true;
           ack_flag := true;
           mss_o := Some s.cfg.Tcb.mss;
           ws_o := (if s.ws_enabled then Some s.cfg.Tcb.wscale else None);
           window := Int.min (rcv_window s) 0xFFFF
       | Seg_fin -> fin := true
       | Seg_fin_rexmit ->
           fin := true;
           seq := Seqno.sub s.snd_nxt 1
       | Seg_ack -> ()
       | Seg_rst -> rst := true);
    let sack =
      if s.dsack_pending <> 0 && !ack_flag then begin
        let dseq' = s.dsack_pending land 0xFFFF_FFFF in
        let dl = s.dsack_pending lsr 32 in
        m.s <- { m.s with dsack_pending = 0 };
        act m (Event Tcb.Dsack_sent);
        Some (dseq', Seqno.add dseq' dl)
      end
      else None
    in
    m.s <-
      { m.s with rcv_adv_wnd = rcv_window m.s; delack_count = 0; delack_at = -1 };
    out m
      {
        src_port = s.local_port;
        dst_port = s.remote_port;
        seq = !seq;
        ack;
        syn = !syn;
        ack_flag = !ack_flag;
        fin = !fin;
        rst = !rst;
        psh = !psh;
        window = !window;
        mss = !mss_o;
        wscale = !ws_o;
        sack;
        payload_len = !payload_len;
      }
  end

let emit m kind = emit_seg m kind ~dseq:0 ~dlen:(-1) ~dpsh:false
let emit_data m ~seq ~len ~psh = emit_seg m Seg_ack ~dseq:seq ~dlen:len ~dpsh:psh
let ack_now m = emit m Seg_ack

let challenge_ack m =
  (if m.now - m.s.challenge_window_start >= Tcb.challenge_ack_window_ns then
     m.s <- { m.s with challenge_window_start = m.now; challenge_sent = 0 });
  if m.s.challenge_sent < Tcb.challenge_ack_limit then begin
    m.s <- { m.s with challenge_sent = m.s.challenge_sent + 1 };
    act m (Event Tcb.Challenge_ack_sent);
    ack_now m
  end
  else act m (Event Tcb.Challenge_ack_limited)

let rst_in_window s (seg : segment) =
  Seqno.ge seg.seq s.rcv_nxt
  && Seqno.lt seg.seq (Seqno.add s.rcv_nxt (Int.max 1 (rcv_window s)))

let advance_snd_nxt m n =
  let nxt = Seqno.add m.s.snd_nxt n in
  m.s <-
    {
      m.s with
      snd_nxt = nxt;
      snd_max = (if Seqno.gt nxt m.s.snd_max then nxt else m.s.snd_max);
    }

(* ------------------------------------------------------------------ *)
(* Teardown                                                            *)

let teardown m reason =
  if m.s.st <> Tcp_state.Closed then begin
    let was_synchronized = Tcp_state.is_synchronized m.s.st in
    m.s <-
      {
        m.s with
        rexmit_at = -1;
        persist_at = -1;
        delack_at = -1;
        ooo = [];
        snd_queue_len = 0;
        st = Tcp_state.Closed;
        last_close = Some reason;
      };
    if was_synchronized then begin
      if not m.s.close_notified then begin
        m.s <- { m.s with close_notified = true };
        act m (Closed reason)
      end
    end
    else act m (Connected false)
  end

let abort_m m =
  if m.s.st <> Tcp_state.Closed then begin
    (match m.s.st with
    | Tcp_state.Syn_sent -> ()
    | _ -> emit m Seg_rst);
    act m (Event Tcb.Local_abort);
    teardown m Tcb.Reset
  end

(* ------------------------------------------------------------------ *)
(* Output path                                                         *)

let set_rexmit m = m.s <- { m.s with rexmit_at = m.now + rto_ns m.s }
let clear_rexmit m = m.s <- { m.s with rexmit_at = -1 }

let rec rexmit_timeout m =
  if m.s.st <> Tcp_state.Closed then begin
    m.s <- { m.s with rexmit_shots = m.s.rexmit_shots + 1 };
    if m.s.rexmit_shots > max_rexmit_shots then teardown m Tcb.Timeout
    else begin
      m.s <- { m.s with rtt_start = -1 } (* Karn *);
      rtt_backoff m;
      cong_on_rto m;
      m.s <- { m.s with dupacks = 0 };
      (if Tcp_state.is_synchronized m.s.st then begin
         (if m.s.fin_sent then
            m.s <-
              {
                m.s with
                fin_sent = false;
                st =
                  (match m.s.st with
                  | Tcp_state.Last_ack -> Tcp_state.Close_wait
                  | Tcp_state.Fin_wait_1 | Tcp_state.Closing ->
                      Tcp_state.Established
                  | st -> st);
              });
         m.s <- { m.s with snd_nxt = m.s.snd_una }
       end);
      retransmit_one m;
      set_rexmit m
    end
  end

and retransmit_one m =
  match m.s.st with
  | Tcp_state.Syn_sent -> emit m Seg_syn
  | Tcp_state.Syn_received -> emit m Seg_syn_ack
  | _ ->
      let s = m.s in
      let data_in_flight = Seqno.diff s.snd_queue_seq s.snd_una <= 0 in
      if
        data_in_flight && s.snd_queue_len > 0
        && Seqno.lt s.snd_una (Seqno.add s.snd_queue_seq s.snd_queue_len)
      then begin
        let avail =
          Seqno.diff (Seqno.add s.snd_queue_seq s.snd_queue_len) s.snd_una
        in
        let len = Int.min s.snd_mss avail in
        emit_data m ~seq:s.snd_una ~len ~psh:false;
        if Seqno.lt m.s.snd_nxt (Seqno.add m.s.snd_una len) then begin
          let nxt = Seqno.add m.s.snd_una len in
          m.s <-
            {
              m.s with
              snd_nxt = nxt;
              snd_max = (if Seqno.gt nxt m.s.snd_max then nxt else m.s.snd_max);
            }
        end
      end
      else if m.s.fin_sent then emit m Seg_fin_rexmit

let arm_rexmit_if_needed m =
  if flight m.s > 0 then begin
    if m.s.rexmit_at < 0 then set_rexmit m
  end
  else clear_rexmit m

let arm_persist m =
  if m.s.persist_at < 0 then m.s <- { m.s with persist_at = m.now + rto_ns m.s }

let persist_timeout m =
  if m.s.st <> Tcp_state.Closed && m.s.snd_wnd = 0 && unsent m.s > 0 then begin
    emit_data m ~seq:m.s.snd_nxt ~len:1 ~psh:false;
    advance_snd_nxt m 1;
    rtt_backoff m;
    arm_rexmit_if_needed m;
    arm_persist m
  end

let try_output m =
  if Tcp_state.can_send_data m.s.st || m.s.fin_queued then begin
    let wnd = Int.min m.s.snd_wnd m.s.cwnd in
    let progress = ref true in
    while
      !progress && unsent m.s > 0
      && flight m.s < wnd
      && Tcp_state.can_send_data m.s.st
    do
      let len = Int.min (Int.min m.s.snd_mss (unsent m.s)) (wnd - flight m.s) in
      if len <= 0 then progress := false
      else begin
        let seq = m.s.snd_nxt in
        let psh = len = unsent m.s in
        (if m.s.rtt_start < 0 then
           m.s <- { m.s with rtt_start = m.now; rtt_seq = Seqno.add seq len });
        emit_data m ~seq ~len ~psh;
        advance_snd_nxt m len
      end
    done;
    if
      m.s.fin_queued
      && (not m.s.fin_sent)
      && unsent m.s = 0
      && Tcp_state.can_send_data m.s.st
    then begin
      emit m Seg_fin;
      m.s <- { m.s with fin_sent = true };
      advance_snd_nxt m 1;
      m.s <-
        {
          m.s with
          st =
            (match m.s.st with
            | Tcp_state.Close_wait -> Tcp_state.Last_ack
            | _ -> Tcp_state.Fin_wait_1);
        }
    end;
    if m.s.snd_wnd = 0 && unsent m.s > 0 && flight m.s = 0 then arm_persist m;
    arm_rexmit_if_needed m
  end

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

(* Production's [enter_time_wait]: the endpoint records a flow-table
   remnant from the final sequence numbers, and the connection is torn
   down at once. *)
let enter_time_wait m =
  act m (Tw_remnant { snd_nxt = m.s.snd_nxt; rcv_nxt = m.s.rcv_nxt });
  teardown m Tcb.Normal

let drop_acked_data m ack =
  let s = m.s in
  let acked_data =
    let d = Seqno.diff ack s.snd_queue_seq in
    Int.max 0 (Int.min d s.snd_queue_len)
  in
  if acked_data > 0 then
    m.s <-
      {
        s with
        snd_queue_seq = Seqno.add s.snd_queue_seq acked_data;
        snd_queue_len = s.snd_queue_len - acked_data;
      };
  acked_data

let update_send_window m (seg : segment) =
  let scale = if m.s.ws_enabled then m.s.snd_wscale else 0 in
  let w = seg.window lsl scale in
  m.s <-
    { m.s with snd_wnd = w; persist_at = (if w > 0 then -1 else m.s.persist_at) }

let schedule_delack m =
  m.s <- { m.s with delack_count = Int.min 0xFF (m.s.delack_count + 1) };
  if m.s.delack_count >= m.s.cfg.Tcb.delack_segs then ack_now m
  else if m.s.delack_at < 0 then
    m.s <- { m.s with delack_at = m.now + m.s.cfg.Tcb.delack_ns }

let deliver_payload m ~len =
  if len > 0 && Tcp_state.can_receive_data m.s.st then begin
    m.s <- { m.s with rcv_unconsumed = m.s.rcv_unconsumed + len };
    act m (Recv len)
  end

let insert_ooo m seq len =
  if
    List.length m.s.ooo < 64
    && not (List.exists (fun (s0, _) -> s0 = seq) m.s.ooo)
  then
    m.s <-
      {
        m.s with
        ooo =
          List.sort (fun (a, _) (b, _) -> Seqno.diff a b) ((seq, len) :: m.s.ooo);
      }

let rec drain_ooo m =
  match m.s.ooo with
  | (seq, len) :: rest when Seqno.le seq m.s.rcv_nxt ->
      m.s <- { m.s with ooo = rest };
      let skip = Seqno.diff m.s.rcv_nxt seq in
      if skip < len then begin
        m.s <- { m.s with rcv_nxt = Seqno.add m.s.rcv_nxt (len - skip) };
        deliver_payload m ~len:(len - skip)
      end;
      drain_ooo m
  | _ -> ()

let process_payload m (seg : segment) =
  let seq = seg.seq and len = seg.payload_len in
  if len = 0 then false
  else if not (Tcp_state.can_receive_data m.s.st) then false
  else begin
    let seg_end = Seqno.add seq len in
    if Seqno.le seg_end m.s.rcv_nxt then begin
      m.s <- { m.s with dsack_pending = seq lor (len lsl 32) };
      ack_now m;
      false
    end
    else if Seqno.gt seq m.s.rcv_nxt then begin
      insert_ooo m seq len;
      ack_now m;
      false
    end
    else begin
      let skip = Seqno.diff m.s.rcv_nxt seq in
      let fresh = len - skip in
      m.s <- { m.s with rcv_nxt = Seqno.add m.s.rcv_nxt fresh };
      deliver_payload m ~len:fresh;
      drain_ooo m;
      true
    end
  end

let process_fin m (seg : segment) =
  let fin_seq = Seqno.add seg.seq seg.payload_len in
  if seg.fin && fin_seq = m.s.rcv_nxt then begin
    m.s <- { m.s with rcv_nxt = Seqno.add m.s.rcv_nxt 1 };
    ack_now m;
    match m.s.st with
    | Tcp_state.Established ->
        m.s <- { m.s with st = Tcp_state.Close_wait };
        if not m.s.close_notified then begin
          m.s <- { m.s with close_notified = true };
          act m (Closed Tcb.Normal)
        end
    | Tcp_state.Fin_wait_1 -> m.s <- { m.s with st = Tcp_state.Closing }
    | Tcp_state.Fin_wait_2 -> enter_time_wait m
    | Tcp_state.Syn_received | Tcp_state.Close_wait | Tcp_state.Closing
    | Tcp_state.Last_ack | Tcp_state.Closed | Tcp_state.Listen
    | Tcp_state.Syn_sent ->
        ()
  end

let process_ack m (seg : segment) =
  let ack = seg.ack in
  if Seqno.gt ack m.s.snd_max then ack_now m
  else if Seqno.gt ack m.s.snd_una then begin
    (if Seqno.gt ack m.s.snd_nxt then m.s <- { m.s with snd_nxt = ack });
    let acked = Seqno.diff ack m.s.snd_una in
    m.s <- { m.s with snd_una = ack; rexmit_shots = 0 };
    rtt_reset_backoff m;
    (if m.s.rtt_start >= 0 && Seqno.ge ack m.s.rtt_seq then begin
       rtt_observe m ~sample_ns:(m.now - m.s.rtt_start);
       m.s <- { m.s with rtt_start = -1 }
     end);
    let data_acked = drop_acked_data m ack in
    update_send_window m seg;
    (if m.s.in_recovery then begin
       if Seqno.ge m.s.snd_una m.s.recover then begin
         cong_on_recovery_exit m;
         m.s <- { m.s with dupacks = 0 }
       end
       else retransmit_one m
     end
     else begin
       m.s <- { m.s with dupacks = 0 };
       cong_on_ack m ~acked_bytes:acked
     end);
    (match m.s.st with
    | Tcp_state.Syn_received ->
        m.s <- { m.s with st = Tcp_state.Established };
        update_send_window m seg
    | Tcp_state.Fin_wait_1 when m.s.fin_sent && ack = m.s.snd_nxt ->
        m.s <- { m.s with st = Tcp_state.Fin_wait_2 }
    | Tcp_state.Closing when m.s.fin_sent && ack = m.s.snd_nxt ->
        enter_time_wait m
    | Tcp_state.Last_ack when m.s.fin_sent && ack = m.s.snd_nxt ->
        teardown m Tcb.Normal
    | _ -> ());
    if m.s.st <> Tcp_state.Closed then begin
      if flight m.s = 0 then clear_rexmit m else set_rexmit m;
      if data_acked > 0 then act m (Sent data_acked);
      try_output m
    end
  end
  else begin
    update_send_window m seg;
    let dsack_dup =
      match seg.sack with
      | Some (_, right) -> Seqno.le right m.s.snd_una
      | None -> false
    in
    (if dsack_dup then act m (Event Tcb.Dsack_dupack_ignored)
     else if seg.payload_len = 0 && flight m.s > 0 then begin
       m.s <- { m.s with dupacks = Int.min 0xFF (m.s.dupacks + 1) };
       if m.s.dupacks = dup_ack_threshold then begin
         m.s <- { m.s with recover = m.s.snd_nxt };
         cong_on_fast_retransmit m ~flight:(flight m.s);
         retransmit_one m
       end
       else if m.s.dupacks > dup_ack_threshold then begin
         cong_on_dup_ack m;
         try_output m
       end
     end);
    try_output m
  end

let input_syn_sent m (seg : segment) =
  if seg.rst then begin
    if seg.ack_flag && seg.ack = m.s.snd_nxt then teardown m Tcb.Refused
  end
  else if seg.syn && seg.ack_flag && seg.ack = m.s.snd_nxt then begin
    m.s <-
      {
        m.s with
        irs = seg.seq;
        rcv_nxt = Seqno.add seg.seq 1;
        snd_una = seg.ack;
        snd_mss =
          (match seg.mss with
          | Some mss -> Int.min m.s.cfg.Tcb.mss mss
          | None -> 536);
        ws_enabled = (seg.wscale <> None);
        snd_wscale = (match seg.wscale with Some shift -> shift | None -> 0);
        snd_wnd = seg.window (* unscaled in SYN *);
        st = Tcp_state.Established;
        rexmit_at = -1;
        rexmit_shots = 0;
      };
    ack_now m;
    act m (Connected true);
    try_output m
  end

let input m (seg : segment) =
  match m.s.st with
  | Tcp_state.Closed | Tcp_state.Listen -> ()
  | Tcp_state.Syn_sent -> input_syn_sent m seg
  | Tcp_state.Syn_received when seg.rst ->
      if seg.seq = m.s.rcv_nxt then begin
        act m (Event Tcb.Rst_accepted);
        teardown m Tcb.Reset
      end
      else if rst_in_window m.s seg then challenge_ack m
  | Tcp_state.Syn_received when seg.syn -> emit m Seg_syn_ack
  | _ ->
      if seg.rst then begin
        if seg.seq = m.s.rcv_nxt then begin
          act m (Event Tcb.Rst_accepted);
          teardown m Tcb.Reset
        end
        else if rst_in_window m.s seg then challenge_ack m
      end
      else if seg.syn then challenge_ack m
      else begin
        if seg.ack_flag then process_ack m seg;
        if m.s.st <> Tcp_state.Closed then begin
          let delivered = process_payload m seg in
          if m.s.st <> Tcp_state.Closed then begin
            process_fin m seg;
            if delivered then schedule_delack m
          end
        end
      end

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let check_cfg (cfg : Tcb.config) =
  if cfg.Tcb.dctcp || cfg.Tcb.syn_cookies then
    invalid_arg "Model_tcp: dctcp / syn_cookies are outside the model"

let make cfg ~local_port ~remote_port ~iss =
  check_cfg cfg;
  {
    cfg;
    local_port;
    remote_port;
    st = Tcp_state.Closed;
    iss;
    irs = 0;
    snd_una = iss;
    snd_nxt = iss;
    snd_max = iss;
    recover = iss;
    snd_queue_seq = Seqno.add iss 1 (* data starts after the SYN *);
    snd_queue_len = 0;
    rcv_nxt = 0;
    rcv_unconsumed = 0;
    rcv_adv_wnd = 0;
    snd_wnd = 0;
    snd_mss = cfg.Tcb.mss;
    ws_enabled = false;
    snd_wscale = 0;
    fin_queued = false;
    fin_sent = false;
    close_notified = false;
    cwnd = cfg.Tcb.mss * Tcb.initial_cwnd_segs;
    ssthresh = max_window;
    avoid_acc = 0;
    in_recovery = false;
    dupacks = 0;
    rto = cfg.Tcb.min_rto_ns * 4;
    backoff_mult = 1;
    rtt_have_sample = false;
    srtt = 0;
    rttvar = 0;
    rtt_start = -1;
    rtt_seq = 0;
    rexmit_shots = 0;
    delack_count = 0;
    ooo = [];
    dsack_pending = 0;
    last_close = None;
    rexmit_at = -1;
    persist_at = -1;
    delack_at = -1;
    challenge_window_start = 0;
    challenge_sent = 0;
  }

let finish m = (m.s, List.rev m.rev)

let step s ~now f =
  let m = { s; rev = []; now } in
  f m;
  finish m

let connect cfg ~now ~local_port ~remote_port ~iss =
  let s = make cfg ~local_port ~remote_port ~iss in
  step s ~now (fun m ->
      m.s <-
        {
          m.s with
          st = Tcp_state.Syn_sent;
          snd_nxt = Seqno.add m.s.iss 1;
          snd_max = Seqno.add m.s.iss 1;
        };
      emit m Seg_syn;
      set_rexmit m)

let accept cfg ~now ~iss (seg : segment) =
  let s = make cfg ~local_port:seg.dst_port ~remote_port:seg.src_port ~iss in
  step s ~now (fun m ->
      m.s <-
        {
          m.s with
          st = Tcp_state.Syn_received;
          irs = seg.seq;
          rcv_nxt = Seqno.add seg.seq 1;
          snd_mss =
            (match seg.mss with
            | Some mss -> Int.min m.s.cfg.Tcb.mss mss
            | None -> 536);
          ws_enabled = (seg.wscale <> None);
          snd_wscale = (match seg.wscale with Some shift -> shift | None -> 0);
          snd_wnd = seg.window (* unscaled in SYN *);
          snd_nxt = Seqno.add m.s.iss 1;
          snd_max = Seqno.add m.s.iss 1;
        };
      emit m Seg_syn_ack;
      set_rexmit m)

let handle_segment s ~now seg = step s ~now (fun m -> input m seg)

(* Fire every armed timer whose deadline has been reached, in a fixed
   order (rexmit, persist, delack).  Production fires them
   in wheel order; deadlines of distinct timers coincide only when two
   independent arithmetic chains land on the same nanosecond, which the
   conformance seeds never do. *)
let handle_timers s ~now =
  step s ~now (fun m ->
      (if m.s.rexmit_at >= 0 && m.s.rexmit_at <= now then begin
         m.s <- { m.s with rexmit_at = -1 };
         rexmit_timeout m
       end);
      (if m.s.persist_at >= 0 && m.s.persist_at <= now then begin
         m.s <- { m.s with persist_at = -1 };
         persist_timeout m
       end);
      if m.s.delack_at >= 0 && m.s.delack_at <= now then begin
        m.s <- { m.s with delack_at = -1 };
        if m.s.st <> Tcp_state.Closed && m.s.delack_count > 0 then ack_now m
      end)

let next_deadline s =
  let merge a b = if a < 0 then b else if b < 0 then a else Int.min a b in
  merge s.rexmit_at (merge s.persist_at s.delack_at)

let send s ~now n =
  if (not (Tcp_state.can_send_data s.st)) || s.fin_queued then (s, [], 0)
  else begin
    let accepted = Int.min (send_budget s) n in
    let s', items =
      if accepted > 0 then
        step s ~now (fun m ->
            m.s <- { m.s with snd_queue_len = m.s.snd_queue_len + accepted };
            try_output m)
      else (s, [])
    in
    (s', items, accepted)
  end

let consume s ~now n =
  step s ~now (fun m ->
      m.s <- { m.s with rcv_unconsumed = Int.max 0 (m.s.rcv_unconsumed - n) };
      let w = rcv_window m.s in
      if
        (m.s.rcv_adv_wnd < m.s.snd_mss && w >= 2 * m.s.snd_mss)
        || w - m.s.rcv_adv_wnd >= m.s.cfg.Tcb.rcv_buf / 2
      then ack_now m)

let close s ~now =
  step s ~now (fun m ->
      match m.s.st with
      | Tcp_state.Closed -> ()
      | Tcp_state.Syn_sent | Tcp_state.Listen -> teardown m Tcb.Normal
      | Tcp_state.Established | Tcp_state.Close_wait | Tcp_state.Syn_received ->
          m.s <- { m.s with fin_queued = true };
          try_output m
      | Tcp_state.Fin_wait_1 | Tcp_state.Fin_wait_2 | Tcp_state.Closing
      | Tcp_state.Last_ack ->
          ())

let abort s ~now = step s ~now (fun m -> abort_m m)
let state s = s.st
