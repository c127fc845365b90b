module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Net_api = Netapi.Net_api
module Metrics = Ixtelemetry.Metrics

type workload =
  | Echo of { msg_size : int; msgs_per_conn : int; sessions : int }
  | Netpipe of { size : int }
  | Conn_scaling of { conns : int; workers : int }
  | Memcached of { profile : Workloads.Size_dist.profile; target_rps : float }
  | Incast of { senders : int; block : int; ecn : bool }

type t = {
  kind : Cluster.kind;
  ports : int;
  cores : int;
  client_hosts : int;
  client_threads : int;
  batch_bound : int;
  batch_mode : Ix_core.Batch.mode;
  zero_copy : bool;
  polling : bool;
  uncoalesced_pcie : bool;
  fast_path : bool;
  elastic : bool;
  tcp_config : Ixtcp.Tcb.config option;
  scale : float;
  workload : workload;
}

let default =
  {
    kind = Cluster.Ix; ports = 1; cores = 1; client_hosts = 6; client_threads = 8;
    batch_bound = 64; batch_mode = Ix_core.Batch.Fixed; zero_copy = true; polling = true;
    uncoalesced_pcie = false; fast_path = true; elastic = false; tcp_config = None;
    scale = 1.0; workload = Echo { msg_size = 64; msgs_per_conn = 1; sessions = 768 };
  }

module Result = struct
  type t = {
    ops_per_sec : float;
    conns_per_sec : float;
    goodput_gbps : float;
    p99_us : float;
    avg_us : float;
    ce_marks : int;
    tail_drops : int;
    fast_hits : int;
    slow_hits : int;
    mean_batch : float;
    mean_tx_burst : float;
    batch_bound_end : int;
    kernel_share : float;
    cpu_util : float;
    events : int;
    metrics : Metrics.snapshot;
    tracers : Ixtelemetry.Tracer.t list;
  }
end

let kind_name = function
  | Cluster.Ix -> "IX"
  | Cluster.Linux -> "Linux"
  | Cluster.Mtcp -> "mTCP"

let scaled_ms s ms = max 2 (int_of_float (float_of_int ms *. s.scale))

(* The TCP profile for a stack of [kind].  [None] keeps the stack's own
   config; [fast_path = false] switches header prediction off on top of
   whichever profile applies. *)
let tcp_for s kind =
  match (s.tcp_config, s.fast_path) with
  | None, true -> None
  | config, fast ->
      let base =
        match (config, kind) with
        | Some c, _ -> c
        | None, Cluster.Ix -> Ix_core.Ix_host.ix_tcp_config
        | None, Cluster.Linux -> Baselines.Linux_stack.linux_tcp_config
        | None, Cluster.Mtcp -> Baselines.Mtcp_stack.mtcp_tcp_config
      in
      Some (if fast then base else { base with Ixtcp.Tcb.fast_path = false })

let cluster s =
  let server =
    {
      Cluster.kind = s.kind;
      threads = s.cores;
      nic_ports = s.ports;
      ix =
        {
          Ix_core.Dataplane.batch_bound = s.batch_bound;
          batch_mode = s.batch_mode;
          zero_copy = s.zero_copy;
          polling = s.polling;
          (* [Pcie_model.t] is immutable, so the default's model is
             safe to share between concurrent scenarios. *)
          pcie =
            (if s.uncoalesced_pcie then Ixhw.Pcie_model.create ~replenish_batch:1 ()
             else Ix_core.Dataplane.default_config.pcie);
        };
      cache =
        (match s.workload with
        | Conn_scaling _ -> Some (Ixhw.Cache_model.create ())
        | _ -> None);
      tcp_config = tcp_for s s.kind;
    }
  in
  (* NetPIPE runs the server's stack on one client; incast's senders
     are IX hosts fanning into a shallow switch buffer. *)
  let client_hosts, client_threads, client_kind =
    match s.workload with
    | Netpipe _ -> (1, 1, s.kind)
    | Incast { senders; _ } -> (senders, 1, Cluster.Ix)
    | Echo _ | Conn_scaling _ | Memcached _ -> (s.client_hosts, s.client_threads, Cluster.Linux)
  in
  let ecn_threshold, queue_limit =
    match s.workload with
    | Incast { ecn; _ } -> ((if ecn then Some (24 * 1024) else None), Some (64 * 1024))
    | _ -> (None, None)
  in
  Cluster.build ~client_hosts ~client_threads ~client_kind
    ?client_tcp_config:(tcp_for s client_kind) ?server_ecn_threshold_bytes:ecn_threshold
    ?server_queue_limit_bytes:queue_limit ~server ()

let spawn_echo (cluster : Cluster.t) ~client_threads stats ~at ~spacing ~first
    ~sessions ~msg_size ~msgs_per_conn ~stop_after =
  let clients = Array.of_list cluster.clients in
  let n = Array.length clients in
  for k = 0 to sessions - 1 do
    let i = first + k in
    Sim.at cluster.sim
      (at + (k * spacing))
      (fun () ->
        Apps.Echo.client clients.(i mod n) ~now:(Cluster.now cluster)
          ~thread:(i / n mod client_threads)
          ~server_ip:cluster.server_ip ~port:7000 ~msg_size ~msgs_per_conn
          ~stats ~stop_after)
  done

(* Each workload runner fills in what it measures; [run] adds the
   fields every scenario reports. *)
let blank =
  {
    Result.ops_per_sec = nan; conns_per_sec = nan; goodput_gbps = nan; p99_us = nan;
    avg_us = nan; ce_marks = 0; tail_drops = 0; fast_hits = 0; slow_hits = 0;
    mean_batch = 0.; mean_tx_burst = 0.; batch_bound_end = 0; kernel_share = nan;
    cpu_util = nan; events = 0; metrics = []; tracers = [];
  }

(* ------------------------------------------------------------------ *)
(* Echo (Figs. 3a/3b/3c, batch sweep, energy, ablations)               *)

let run_echo s (cluster : Cluster.t) ~msg_size ~msgs_per_conn ~sessions =
  (* Elastic: the loop starts at one live core and scales with load.
     Off leaves the run byte-identical to a tree without it. *)
  let elastic =
    match (s.elastic, cluster.server_ix) with
    | true, Some host ->
        let cp = Ix_core.Control_plane.create host in
        Ix_core.Control_plane.set_elastic_threads cp 1;
        let config =
          { Ix_core.Elastic.default_config with Ix_core.Elastic.max_cores = s.cores }
        in
        Some (cp, Ix_core.Elastic.start ~sim:cluster.sim ~cp ~config ())
    | _ -> None
  in
  Apps.Echo.server cluster.server ~port:7000 ~msg_size ~app_ns:150;
  let warmup = Sim_time.ms (scaled_ms s 4) in
  let measure = Sim_time.ms (scaled_ms s 10) in
  let stop_after = warmup + measure in
  let stats = Apps.Echo.new_stats () in
  (* Ramp sessions up over the first part of the warmup rather than
     SYN-storming an empty server at t=0 (as real load generators do). *)
  spawn_echo cluster ~client_threads:s.client_threads stats ~at:0
    ~spacing:(max 1 (warmup / (2 * sessions)))
    ~first:0 ~sessions ~msg_size ~msgs_per_conn ~stop_after;
  Sim.run ~until:warmup cluster.sim;
  let warm_msgs = stats.Apps.Echo.messages in
  let warm_conns = stats.Apps.Echo.connects in
  let warm_busy = Net_api.busy_ns cluster.server in
  Sim.run ~until:stop_after cluster.sim;
  (match elastic with
  | Some (cp, el) ->
      Ix_core.Elastic.stop el;
      let peak =
        List.fold_left
          (fun acc smp -> max acc smp.Ix_core.Elastic.cores)
          1 (Ix_core.Elastic.samples el)
      in
      Printf.printf
        "elastic: peak %d/%d cores, %d live at end, %d flow-group migrations\n%!"
        peak s.cores
        (Ix_core.Control_plane.active_threads cp)
        (Ix_core.Control_plane.migrations_completed cp)
  | None -> ());
  let busy_delta = Net_api.busy_ns cluster.server - warm_busy in
  let seconds = Sim_time.to_float_s measure in
  let msgs = float_of_int (stats.Apps.Echo.messages - warm_msgs) /. seconds in
  {
    blank with
    ops_per_sec = msgs;
    conns_per_sec =
      float_of_int (stats.Apps.Echo.connects - warm_conns) /. seconds;
    goodput_gbps = msgs *. float_of_int msg_size *. 8. /. 1e9;
    p99_us =
      float_of_int (Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99.)
      /. 1e3;
    cpu_util = float_of_int busy_delta /. float_of_int (s.cores * measure);
  }

(* ------------------------------------------------------------------ *)
(* NetPIPE (Fig. 2)                                                    *)

let run_netpipe (cluster : Cluster.t) ~size =
  Apps.Netpipe.server cluster.server ~port:7410 ~msg_size:size;
  let result = ref None in
  Apps.Netpipe.client (List.hd cluster.clients) ~now:(Cluster.now cluster)
    ~server_ip:cluster.server_ip ~port:7410 ~msg_size:size
    ~iterations:(max 8 (min 200 (300_000 / size)))
    ~on_done:(fun r -> result := Some r);
  Sim.run ~until:(Sim_time.s 30) cluster.sim;
  match !result with
  | Some r ->
      {
        blank with
        avg_us = r.Apps.Netpipe.one_way_ns /. 1e3;
        goodput_gbps = r.Apps.Netpipe.goodput_gbps;
      }
  | None -> blank

(* ------------------------------------------------------------------ *)
(* Connection scalability (Fig. 4)                                     *)

let run_conn_scaling s (cluster : Cluster.t) ~conns ~workers =
  Apps.Echo.server cluster.server ~port:7000 ~msg_size:64 ~app_ns:150;
  let sim = cluster.sim in
  let clients = Array.of_list cluster.clients in
  let message = String.make 64 'c' in
  (* Connection slots; workers rotate over their partition. *)
  let slot_conn = Array.make conns None in
  let slot_worker = Array.make conns (-1) in
  let completed = ref 0 in
  let worker_next = Array.make workers 0 in
  let rec advance_worker w =
    (* Next *established* slot owned by worker w (slots w, w+W, ...);
       during ramp-up, retry until one connects. *)
    let steps = (conns - w + workers - 1) / workers in
    let rec find tries =
      if steps = 0 || tries >= steps then None
      else begin
        let k = worker_next.(w) mod steps in
        worker_next.(w) <- worker_next.(w) + 1;
        let slot = w + (k * workers) in
        if Option.is_some slot_conn.(slot) then Some slot else find (tries + 1)
      end
    in
    match find 0 with
    | Some slot -> (
        slot_worker.(slot) <- w;
        match slot_conn.(slot) with
        | Some conn -> ignore (conn.Net_api.send message)
        | None -> ())
    | None -> Sim.after sim (Sim_time.ms 1) (fun () -> advance_worker w)
  in
  (* Each response completes one 64 B request on its slot. *)
  let on_slot_response slot =
    incr completed;
    let w = slot_worker.(slot) in
    if w >= 0 then advance_worker w
  in
  (* Staggered establishment, paced to the server's accept rate. *)
  let stagger_ns = match s.kind with Cluster.Linux -> 2_500 | _ -> 400 in
  for slot = 0 to conns - 1 do
    let client_idx = slot mod Array.length clients in
    let thread = slot / Array.length clients mod s.client_threads in
    let handlers =
      {
        Net_api.on_connected =
          (fun conn ~ok -> if ok then slot_conn.(slot) <- Some conn);
        on_data = (fun _ _data -> on_slot_response slot);
        on_sent = (fun _ _ -> ());
        on_closed = (fun _ _ -> ());
      }
    in
    Sim.at sim (slot * stagger_ns) (fun () ->
        clients.(client_idx).Net_api.connect ~thread ~ip:cluster.server_ip
          ~port:7000 handlers)
  done;
  let setup = Sim_time.ms (max 4 ((conns * stagger_ns / 1_000_000) + 4)) in
  Sim.run ~until:setup sim;
  for w = 0 to workers - 1 do
    advance_worker w
  done;
  let warmup = setup + Sim_time.ms (scaled_ms s 4) in
  Sim.run ~until:warmup sim;
  let base = !completed in
  let measure = Sim_time.ms (scaled_ms s 10) in
  Sim.run ~until:(warmup + measure) sim;
  {
    blank with
    ops_per_sec = float_of_int (!completed - base) /. Sim_time.to_float_s measure;
  }

(* ------------------------------------------------------------------ *)
(* memcached (Figs. 5/6, Table 2)                                      *)

let run_memcached s (cluster : Cluster.t) ~profile ~target_rps =
  let mc =
    Apps.Memcached.server cluster.server ~now:(Cluster.now cluster)
      ~port:11211 ()
  in
  Workloads.Keygen.preload ~insert:(Apps.Memcached.insert mc) ~profile ~seed:7;
  let r =
    Workloads.Mutilate.run ~sim:cluster.sim ~clients:cluster.clients
      ~server_ip:cluster.server_ip ~port:11211 ~profile ~connections:1476
      ~target_rps ~warmup_ms:(scaled_ms s 8) ~duration_ms:(scaled_ms s 40)
      ~seed:11 ()
  in
  {
    blank with
    ops_per_sec = r.Workloads.Mutilate.achieved_rps;
    avg_us = r.Workloads.Mutilate.avg_us;
    p99_us = r.Workloads.Mutilate.p99_us;
  }

(* ------------------------------------------------------------------ *)
(* Incast (extension): N synchronized senders, one 10GbE receiver      *)

let run_incast (cluster : Cluster.t) ~senders ~block =
  let received = ref 0 in
  let total = senders * block in
  let finished_at = ref 0 in
  cluster.server.Net_api.listen ~port:9100 (fun ~thread:_ _conn ->
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun _ data ->
            received := !received + String.length data;
            if !received >= total then finished_at := Sim.now cluster.sim);
      });
  let payload = String.make block 'i' in
  let start = Sim_time.ms 2 in
  List.iter
    (fun client ->
      Sim.at cluster.sim start (fun () ->
          client.Net_api.connect ~thread:0 ~ip:cluster.server_ip ~port:9100
            {
              Net_api.null_handlers with
              Net_api.on_connected =
                (fun conn ~ok -> if ok then ignore (conn.Net_api.send payload));
            }))
    cluster.clients;
  Sim.run ~until:(Sim_time.s 3) cluster.sim;
  let ce_marks, tail_drops = Cluster.server_link_stats cluster in
  let goodput_gbps =
    if !finished_at = 0 then 0.
    else float_of_int (8 * total) /. float_of_int (!finished_at - start)
  in
  { blank with goodput_gbps; ce_marks; tail_drops }

(* ------------------------------------------------------------------ *)

(* Sum the header-prediction hit counters (tcp.<core>.fast_path_hits /
   slow_path_hits) of one stack's snapshot.  They stay out of every
   deterministic snapshot string so fast-on and fast-off runs compare
   bit-for-bit. *)
let hits snapshot acc =
  List.fold_left
    (fun ((fast, slow) as acc) (name, v) ->
      match v with
      | Metrics.Counter n when String.ends_with ~suffix:"fast_path_hits" name ->
          (fast + n, slow)
      | Metrics.Counter n when String.ends_with ~suffix:"slow_path_hits" name ->
          (fast, slow + n)
      | _ -> acc)
    acc snapshot

(* Aggregate batch statistics across a host's elastic threads, read
   from each dataplane's batcher after the run: (mean admitted batch,
   mean TX burst, largest bound in effect). *)
let batch_stats = function
  | None -> (0., 0., 0)
  | Some host ->
      let packets = ref 0 and cycles = ref 0 in
      let txp = ref 0 and txb = ref 0 in
      let bound = ref 0 in
      Ix_core.Ix_host.iter_threads host (fun dp ->
          let b = Ix_core.Dataplane.batcher dp in
          packets := !packets + Ix_core.Batch.packets b;
          cycles := !cycles + Ix_core.Batch.cycles b;
          txp := !txp + Ix_core.Batch.tx_packets b;
          txb := !txb + Ix_core.Batch.tx_bursts b;
          bound := max !bound (Ix_core.Batch.bound b));
      let mean num den =
        if den = 0 then 0. else float_of_int num /. float_of_int den
      in
      (mean !packets !cycles, mean !txp !txb, !bound)

let run s =
  let cluster = cluster s in
  let r =
    match s.workload with
    | Echo { msg_size; msgs_per_conn; sessions } ->
        run_echo s cluster ~msg_size ~msgs_per_conn ~sessions
    | Netpipe { size } -> run_netpipe cluster ~size
    | Conn_scaling { conns; workers } ->
        run_conn_scaling s cluster ~conns ~workers
    | Memcached { profile; target_rps } ->
        run_memcached s cluster ~profile ~target_rps
    | Incast { senders; block; _ } -> run_incast cluster ~senders ~block
  in
  let metrics = cluster.server.Net_api.metrics () in
  let fast_hits, slow_hits =
    List.fold_left
      (fun acc c -> hits (c.Net_api.metrics ()) acc)
      (hits metrics (0, 0)) cluster.clients
  in
  let mean_batch, mean_tx_burst, batch_bound_end =
    batch_stats cluster.server_ix
  in
  {
    r with
    fast_hits;
    slow_hits;
    mean_batch;
    mean_tx_burst;
    batch_bound_end;
    kernel_share = Metrics.snap_gauge metrics "kernel_share";
    events = Sim.events_executed cluster.sim;
    metrics;
    tracers =
      (match cluster.server_ix with
      | Some host -> Ix_core.Ix_host.tracers host
      | None -> []);
  }
