module Sim = Engine.Sim
module Mbuf = Ixmem.Mbuf
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Metrics = Ixtelemetry.Metrics
module Host = Socket_host

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

(* NAPI budget: packets per queue per poll pass. *)
let napi_budget = 64

(* What the shared socket host does not know about a Linux core: IRQ
   moderation and the epoll thread's blocked/scheduled state. *)
type state = {
  costs : costs;
  cache : Ixhw.Cache_model.t option;
  c_irqs : Metrics.counter;
  c_wakeups : Metrics.counter;
  mutable app_blocked : bool;
  mutable last_irq : int;
  (* [app_run c] and [do_irq c], built once per core at [create]:
     scheduling either is per-batch work and builds no closure. *)
  app_wakeup : Sim.wakeup;
  irq_wakeup : Sim.wakeup;
}

(* ------------------------------------------------------------------ *)
(* Application thread                                                  *)

let schedule_app (c : state Host.t) =
  let st = c.st in
  if not (Sim.pending st.app_wakeup) then begin
    (* Wakeup: context switch into the blocked epoll thread. *)
    let now = Sim.now c.sim in
    let resume =
      if st.app_blocked then begin
        Metrics.incr st.c_wakeups;
        Cpu_core.charge c.cpu ~now Cpu_core.Kernel st.costs.wakeup_ns
      end
      else Int.max now (Cpu_core.free_at c.cpu)
    in
    Sim.arm st.app_wakeup resume
  end

(* epoll_wait returns a batch of ready descriptors; the thread drains
   until nothing is left, then blocks. *)
let app_run (c : state Host.t) =
  c.st.app_blocked <- false;
  Host.charge_k c c.st.costs.epoll_ns;
  Host.run_batch c;
  while Host.pending c do
    Host.run_batch c
  done;
  c.st.app_blocked <- true

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

let napi_charge_cache (c : state Host.t) =
  match c.st.cache with
  | Some cm ->
      Host.charge_k c (Ixhw.Cache_model.extra_ns_per_message cm ~conns:!(c.conn_count) / 2)
  | None -> ()

let rec napi_burst (c : state Host.t) n i prev_a prev_b =
  if i < n then begin
    let mbuf = c.rx_scratch.(i) in
    let softirq_ns = c.st.costs.softirq_pkt_ns in
    Metrics.incr c.c_pkts;
    if mbuf.Mbuf.len >= 38 then begin
      let a = gro_key_a mbuf and b = gro_key_b mbuf in
      Host.charge_k c (if a = prev_a && b = prev_b then softirq_ns / 3 else softirq_ns);
      napi_charge_cache c;
      Host.process_frame c mbuf;
      napi_burst c n (i + 1) a b
    end
    else begin
      Host.charge_k c softirq_ns;
      napi_charge_cache c;
      Host.process_frame c mbuf;
      napi_burst c n (i + 1) (-1) (-1)
    end
  end

let rec napi_queues c processed = function
  | [] -> processed
  | (_, q) :: rest ->
      let n = Nic.rx_burst_into q ~into:c.Host.rx_scratch ~off:0 ~max:napi_budget in
      Nic.replenish q n;
      (* GRO state threads through as plain int arguments; -1 means no
         previous flow (real keys are non-negative 48-bit packs). *)
      napi_burst c n 0 (-1) (-1);
      napi_queues c (processed + n) rest

let do_irq (c : state Host.t) =
  let st = c.st in
  st.last_irq <- Sim.now c.sim;
  Metrics.incr st.c_irqs;
  Host.charge_k c st.costs.irq_entry_ns;
  (* NAPI poll: drain the rings, [napi_budget] packets per queue per
     pass.  GRO: consecutive in-order segments of the same flow
     aggregate, so follow-up packets of a bulk stream cost a fraction of
     the first (this is what lets 2014-era Linux stream at several
     Gbit/s). *)
  while napi_queues c 0 c.queues > 0 do
    ()
  done;
  Host.run_timers c

(* Interrupt moderation: fire now if the line has been quiet, else
   defer to the adaptive interval boundary. *)
let on_nic_notify (c : state Host.t) =
  let st = c.st in
  if not (Sim.pending st.irq_wakeup) then
    Sim.arm st.irq_wakeup (Int.max (Sim.now c.sim) (st.last_irq + st.costs.itr_interval_ns))

(* TCP data frames pay qdisc + driver time; ARP frames and datagrams
   released by an ARP reply leave uncharged. *)
let transmit (c : state Host.t) frame =
  Host.charge_k c c.st.costs.tx_pkt_ns;
  Nic.transmit_at c.tx_nic frame ~earliest:(Cpu_core.free_at c.cpu)

let transmit_ctrl (c : state Host.t) frame =
  Nic.transmit_at c.tx_nic frame ~earliest:(Cpu_core.free_at c.cpu)

(* on_connected runs as an app job, ahead of the ready sockets. *)
let connected (c : state Host.t) (s : Host.socket) ok =
  Host.add_job c (fun () -> s.handlers.Netapi.Net_api.on_connected s.conn ~ok)

let hooks = { Host.notify = on_nic_notify; wake = schedule_app; connected; transmit; transmit_ctrl }

(* ------------------------------------------------------------------ *)

let create ~sim ~host_id ~ip ~nics ~threads ?(costs = default_costs)
    ?(config = linux_tcp_config) ?cache ?metrics ~seed () =
  let profile =
    {
      Host.name = "linux";
      domain = Cpu_core.Kernel;
      call_ns = costs.syscall_ns;
      call_counter = "syscalls";
      copy_ns_per_kb = costs.copy_ns_per_kb;
      event_ns = costs.epoll_event_ns;
      proto_tx_ns = costs.proto_tx_ns;
      accept_is_call = true;
      burst = napi_budget;
    }
  in
  let state counter wakeup =
    {
      costs;
      cache;
      c_irqs = counter "irqs";
      c_wakeups = counter "wakeups";
      app_blocked = true;
      last_irq = min_int / 2;
      app_wakeup = wakeup app_run;
      irq_wakeup = wakeup do_irq;
    }
  in
  Host.stack
    (Host.create ~sim ~host_id ~ip ~nics ~threads ~config ?metrics
       ~seed:(seed + (host_id * 104729)) ~profile ~hooks ~state ())
