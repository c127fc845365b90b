module Sim = Engine.Sim
module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core
module Metrics = Ixtelemetry.Metrics
module Host = Socket_host

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

(* Frames per queue per stack-thread poll. *)
let poll_batch = 256

(* The dedicated stack thread notices new frames this long after they
   land. *)
let poll_delay_ns = 500

(* What the shared socket host does not know about an mTCP core: the
   stack thread's and the app round's scheduling state. *)
type state = {
  c_rounds : Metrics.counter;
  mutable round_scheduled : bool;
  mutable stack_scheduled : bool;
  (* [app_round c] and [stack_poll c], built once per core at
     [create]. *)
  mutable round_thunk : unit -> unit;
  mutable poll_thunk : unit -> unit;
}

(* ---- app rounds: batch exchange every interval ---- *)

let schedule_round (c : state Host.t) =
  if not c.st.round_scheduled then begin
    c.st.round_scheduled <- true;
    ignore (Sim.at c.sim (Sim.now c.sim + default_costs.batch_interval_ns) c.st.round_thunk)
  end

let app_round (c : state Host.t) =
  c.st.round_scheduled <- false;
  Metrics.incr c.st.c_rounds;
  Host.run_batch c;
  if Host.pending c then schedule_round c

(* ---- stack thread: polls queues, processes immediately ---- *)

let rec poll_queues (c : state Host.t) = function
  | [] -> ()
  | (_, q) :: rest ->
      let n = Nic.rx_burst_into q ~into:c.rx_scratch ~off:0 ~max:poll_batch in
      Nic.replenish q n;
      for i = 0 to n - 1 do
        Metrics.incr c.c_pkts;
        Host.charge_k c default_costs.stack_pkt_ns;
        Host.process_frame c c.rx_scratch.(i)
      done;
      poll_queues c rest

let stack_poll (c : state Host.t) =
  c.st.stack_scheduled <- false;
  poll_queues c c.queues;
  Host.run_timers c

let on_nic_notify (c : state Host.t) =
  if not c.st.stack_scheduled then begin
    c.st.stack_scheduled <- true;
    ignore (Sim.after c.sim poll_delay_ns c.st.poll_thunk)
  end

(* Every frame pays driver time and leaves at core-free time plus half
   a batching interval: the stack thread picks up the app's command
   queue on its next pass. *)
let transmit (c : state Host.t) frame =
  Host.charge_k c default_costs.tx_pkt_ns;
  Nic.transmit_at c.tx_nic frame
    ~earliest:(Cpu_core.free_at c.cpu + (default_costs.batch_interval_ns / 2))

(* on_connected waits on the socket for its turn in the next round. *)
let connected _ (s : Host.socket) ok = s.connected_pending <- Some ok

let hooks =
  { Host.notify = on_nic_notify; wake = schedule_round; connected; transmit; transmit_ctrl = transmit }

let profile =
  {
    Host.name = "mtcp";
    domain = Cpu_core.User;
    call_ns = default_costs.api_call_ns;
    call_counter = "api_calls";
    copy_ns_per_kb = default_costs.copy_ns_per_kb;
    event_ns = default_costs.app_event_ns;
    proto_tx_ns = default_costs.proto_tx_ns;
    accept_is_call = false;
    burst = poll_batch;
  }

let create ~sim ~host_id ~ip ~nics ~threads ?(config = mtcp_tcp_config) ?metrics ~seed () =
  if Array.length nics > 1 then
    invalid_arg "Mtcp_stack.create: mTCP does not support NIC bonding";
  let state counter =
    {
      c_rounds = counter "rounds";
      round_scheduled = false;
      stack_scheduled = false;
      round_thunk = Host.no_thunk;
      poll_thunk = Host.no_thunk;
    }
  in
  let cores =
    Host.create ~sim ~host_id ~ip ~nics ~threads ~config ?metrics
      ~seed:(seed + (host_id * 13007)) ~profile ~hooks ~state ()
  in
  Array.iter
    (fun (c : state Host.t) ->
      c.st.round_thunk <- (fun () -> app_round c);
      c.st.poll_thunk <- (fun () -> stack_poll c))
    cores;
  Host.stack cores
