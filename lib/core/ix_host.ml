module Nic = Ixhw.Nic
module Cpu_core = Ixhw.Cpu_core

(* IX's TCP profile: aggressive retransmission timers enabled by the
   16 us timing wheel (§4.2, [64]), moderate fixed buffers because the
   zero-copy API keeps queueing in application hands. *)
let ix_tcp_config =
  {
    Ixtcp.Tcb.default_config with
    Ixtcp.Tcb.rcv_buf = 256 * 1024;
    snd_buf = 256 * 1024;
    min_rto_ns = 1_000_000 (* 1 ms *);
    delack_ns = 100_000 (* 100 us *);
  }

type t = {
  sim : Engine.Sim.t;
  host_ip : Ixnet.Ip_addr.t;
  nic_array : Ixhw.Nic.t array;
  threads : Dataplane.t array;
  libs : Libix.t array;
  arp_cache : Arp_cache.t;
  rcu_mgr : Rcu.manager;
  conn_count : int ref;
  registry : Ixtelemetry.Metrics.t;
  placement : int array Rcu.t;
      (* flow group -> home thread; the control plane publishes updates
         through RCU and mirrors each one into the NICs' indirection
         tables (the hardware write) *)
  mutable active : int;  (* live elastic threads: the prefix [0, active) *)
}

let create ~sim ~host_id ~ip ~nics ~threads ~config ~tcp ~cache ~metrics ~seed =
  assert (threads > 0);
  Array.iter (fun nic -> assert (Nic.queue_count nic >= threads)) nics;
  let rcu_mgr = Rcu.create_manager ~threads in
  let arp_cache = Arp_cache.create rcu_mgr in
  let conn_count = ref 0 in
  let rng = Engine.Rng.create ~seed:(seed + (host_id * 7919)) in
  let make_thread i =
    let queues = Array.to_list (Array.map (fun nic -> (nic, Nic.queue nic i)) nics) in
    let tx_nic = nics.(i mod Array.length nics) in
    Dataplane.create ~sim ~thread_id:i
      ~core:(Cpu_core.create ~id:((host_id * 100) + i))
      ~local_ip:ip ~queues ~tx_nic ~arp:arp_cache ~rcu:rcu_mgr ~config ~tcp ~cache
      ~conn_count ~metrics ~rng:(Engine.Rng.split rng)
  in
  let thread_array = Array.init threads make_thread in
  (* Spread RSS flow groups across the active threads. *)
  Array.iter (fun nic -> Nic.set_indirection nic (fun group -> group mod threads)) nics;
  let cookie_alloc = ref 1 in
  let t =
    {
      sim;
      host_ip = ip;
      nic_array = nics;
      threads = thread_array;
      libs = Array.map (Libix.create ~cookie_alloc) thread_array;
      arp_cache;
      rcu_mgr;
      conn_count;
      registry = metrics;
      placement =
        Rcu.make rcu_mgr
          (Array.init Nic.indirection_entries (fun g -> g mod threads));
      active = threads;
    }
  in
  let fold f = Array.fold_left (fun acc dp -> acc + f (Dataplane.core dp)) 0 thread_array in
  Ixtelemetry.Metrics.probe metrics "kernel_share" (fun () ->
      let k = fold Cpu_core.kernel_ns and u = fold Cpu_core.user_ns in
      if k + u = 0 then 0. else float_of_int k /. float_of_int (k + u));
  Ixtelemetry.Metrics.probe metrics "busy_ns" (fun () ->
      float_of_int (fold Cpu_core.busy_ns_total));
  t

let sim t = t.sim
let thread_count t = Array.length t.threads
let dataplane t i = t.threads.(i)
let libix t i = t.libs.(i)
let nics t = t.nic_array
let arp t = t.arp_cache
let connections t = !(t.conn_count)
let iter_threads t f = Array.iter f t.threads
let metrics t = t.registry

(* ---- elastic thread census & flow-group placement ---- *)

let live_threads t = t.active
let set_live_threads t n = t.active <- n
let group_home t g = (Rcu.read t.placement).(g)

(* Publish a new home for [group] through RCU; [retired] fires once
   every elastic thread has passed a quiescent point (the end of a
   run-to-completion cycle) since the swap.  Kick all threads so idle
   ones run an (empty) cycle and the grace period is bounded. *)
let publish_group_home t ~group ~thread ~retired =
  Rcu.update t.placement
    (fun old ->
      let next = Array.copy old in
      next.(group) <- thread;
      next)
    ~retired:(fun _old -> retired ());
  Array.iter Dataplane.kick t.threads

let tracers t =
  Array.to_list (Array.map Dataplane.tracer t.threads)

let total_kernel_ns t =
  Array.fold_left (fun acc dp -> acc + Cpu_core.kernel_ns (Dataplane.core dp)) 0 t.threads

let total_user_ns t =
  Array.fold_left (fun acc dp -> acc + Cpu_core.user_ns (Dataplane.core dp)) 0 t.threads

let kernel_share t =
  let k = total_kernel_ns t and u = total_user_ns t in
  if k + u = 0 then 0. else float_of_int k /. float_of_int (k + u)

(* ---- the host as a stack-portable Net_api stack ---- *)

let stack t =
  let capacity = thread_count t in
  let connect ~thread ~ip ~port handlers =
    let lib = t.libs.(thread) in
    Libix.run lib (fun () -> Libix.connect lib ~ip ~port handlers)
  in
  let listen ~port acceptor =
    (* Every provisioned slot gets an acceptor: a scale-up can steer
       fresh connections to a thread that was parked at listen time. *)
    Array.iteri
      (fun thread lib ->
        Libix.run lib (fun () -> Libix.listen lib ~port ~on_accept:(acceptor ~thread)))
      t.libs
  in
  {
    Netapi.Net_api.name = "ix";
    threads = (fun () -> { Netapi.Net_api.capacity; live = t.active });
    connect;
    listen;
    run_app = (fun ~thread f -> Libix.run t.libs.(thread) f);
    charge_app = (fun ~thread ns -> Dataplane.charge_user t.threads.(thread) ns);
    metrics = (fun () -> Ixtelemetry.Metrics.snapshot t.registry);
    conn_count = (fun () -> !(t.conn_count));
  }
