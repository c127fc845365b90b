module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Elastic = Ix_core.Elastic
module R = Scenario.Result

(* ------------------------------------------------------------------ *)
(* CLI settings                                                        *)

type output = { metrics : bool; trace : string option }

let default_output = { metrics = false; trace = None }

let parse_scale s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f && f > 0. -> Ok (Float.max 0.05 f)
  | _ -> Error "expected a positive number"

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | _ -> Error "expected a positive integer"

let env () =
  let read name parse default =
    match Sys.getenv_opt name with
    | None -> Ok default
    | Some v -> Result.map_error (Printf.sprintf "%s=%S: %s" name v) (parse v)
  in
  Result.bind (read "IX_BENCH_SCALE" parse_scale 1.0) (fun scale ->
      Result.map (fun jobs -> (scale, jobs)) (read "IX_BENCH_JOBS" parse_jobs 1))

let gc_meter label =
  let g0 = Gc.quick_stat () in
  let e0 = Sim.global_events () in
  fun () ->
    let g1 = Gc.quick_stat () in
    let events = Sim.global_events () - e0 in
    let per_m x = if events = 0 then 0. else x /. (float_of_int events /. 1e6) in
    let minor_m = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 in
    let major_m = (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6 in
    let collections = g1.Gc.minor_collections - g0.Gc.minor_collections in
    Printf.printf
      "[%s: %.2fM minor words (%.2fM/Mevent), %.2fM major words \
       (%.2fM/Mevent), %d minor collections (%.0f/Mevent), %d events]\n%!"
      label minor_m (per_m minor_m) major_m (per_m major_m) collections
      (per_m (float_of_int collections))
      events

(* ------------------------------------------------------------------ *)
(* Telemetry text                                                      *)

(* Every tracer's breakdown lists all stages in cycle order. *)
let merge_breakdowns tracers =
  List.fold_left
    (fun acc tr ->
      List.map2 (fun (s, ns, n) (_, ns', n') -> (s, ns + ns', n + n')) acc
        (Tracer.breakdown tr))
    (List.map (fun s -> (s, 0, 0)) Tracer.stages)
    tracers

let breakdown_table ~label rows =
  let busy = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 rows in
  let share ns = if busy = 0 then 0. else float_of_int ns /. float_of_int busy in
  Report.table
    ~title:(Printf.sprintf "Cycle breakdown (cf. Table 2): %s" label)
    ~headers:[ "stage"; "ns"; "spans"; "avg ns"; "share" ]
    (List.map
       (fun (stage, ns, n) ->
         [
           Tracer.stage_name stage;
           string_of_int ns;
           string_of_int n;
           (if n = 0 then "-" else Printf.sprintf "%.0f" (float_of_int ns /. float_of_int n));
           Report.pct (share ns);
         ])
       rows
    @ [ [ "total busy"; string_of_int busy; ""; ""; "" ] ])

let dump_trace ~output tracers =
  match output.trace with
  | Some path when tracers <> [] -> (
      try
        Ixtelemetry.Trace_export.write_file path tracers;
        Printf.sprintf "Chrome trace written to %s\n" path
      with Sys_error msg ->
        Printf.eprintf "cannot write trace: %s\n%!" msg;
        "")
  | _ -> ""

(* The per-stage breakdown (IX servers), the server's metric snapshot
   read through the portable stack interface, and the trace dump. *)
let server_telemetry ~output ~label (metrics : Metrics.snapshot) tracers =
  let tables =
    if not output.metrics then ""
    else
      (if tracers = [] then "" else breakdown_table ~label (merge_breakdowns tracers))
      ^ Report.table ~title:("Server metrics: " ^ label) ~headers:[ "metric"; "value" ]
          (List.map (fun (name, v) -> [ name; Format.asprintf "%a" Metrics.pp_value v ]) metrics)
  in
  tables ^ dump_trace ~output tracers

let describe label (s : Scenario.t) =
  match s.workload with
  | Echo { msg_size; msgs_per_conn; _ } ->
      Printf.sprintf "%s echo s=%dB n=%d, %d cores" label msg_size msgs_per_conn s.cores
  | Memcached { profile; target_rps } ->
      Printf.sprintf "%s memcached %s @ %.0fK" (Scenario.kind_name s.kind)
        profile.Workloads.Size_dist.name (target_rps /. 1e3)
  | Netpipe { size } -> Printf.sprintf "%s netpipe s=%dB" label size
  | Conn_scaling { conns; _ } -> Printf.sprintf "%s %d connections" label conns
  | Incast { senders; _ } -> Printf.sprintf "%s incast, %d senders" label senders

let telemetry ~output ~label s (r : R.t) =
  server_telemetry ~output ~label:(describe label s) r.metrics r.tracers

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

type sweep = {
  name : string;
  points : scale:float -> (string * Scenario.t) list;
  table : (string * Scenario.t * R.t) list -> string;
}

type figure =
  | Sweep of sweep
  | Single of { name : string; run : output:output -> scale:float -> string }

(* Points are self-contained simulations, so they fan over [jobs]
   domains; results come back in submission order and a parallel run is
   bit-identical to [jobs = 1], the plain sequential map.  Telemetry
   forces the sequential path so per-run tables stay in point order. *)
let run_points ~output ~jobs points =
  let jobs = if output.metrics || output.trace <> None then 1 else jobs in
  let results =
    Engine.Domain_pool.map_jobs ~jobs (List.map (fun (_, s) () -> Scenario.run s) points)
  in
  let runs = List.map2 (fun (label, s) r -> (label, s, r)) points results in
  (String.concat "" (List.map (fun (l, s, r) -> telemetry ~output ~label:l s r) runs), runs)

(* A sweep whose table has one row per point. *)
let sweep name ~title ~headers points row =
  { name; points; table = (fun runs -> Report.table ~title ~headers (List.map row runs)) }

let grid xs ys point = List.concat_map (fun x -> List.map (point x) ys) xs
let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> []

let echo ?(msg_size = 64) ?(msgs_per_conn = 1) ?(sessions = 768) () =
  Scenario.Echo { msg_size; msgs_per_conn; sessions }

(* The swept parameters, for table rows. *)
let echo_params (s : Scenario.t) =
  match s.workload with
  | Echo { msg_size; msgs_per_conn; sessions } -> (msg_size, msgs_per_conn, sessions)
  | _ -> (0, 0, 0)

let profile_name (s : Scenario.t) =
  match s.workload with Memcached { profile; _ } -> profile.Workloads.Size_dist.name | _ -> ""

let fig2 =
  sweep "fig2" ~title:"Fig 2: NetPIPE (one-way latency, goodput)"
    ~headers:[ "system"; "msg size B"; "one-way us"; "goodput Gbps" ]
    (fun ~scale ->
      grid [ Cluster.Linux; Cluster.Mtcp; Cluster.Ix ]
        [ 64; 1024; 4096; 16_384; 65_536; 131_072; 262_144; 393_216; 524_288 ]
        (fun kind size ->
          ( Scenario.kind_name kind,
            { Scenario.default with scale; kind; workload = Netpipe { size } } )))
    (fun (label, (s : Scenario.t), r) ->
      let size = match s.workload with Netpipe { size } -> size | _ -> 0 in
      [ label; string_of_int size; Report.us r.R.avg_us; Report.gbps r.R.goodput_gbps ])

let fig3_points values scenario ~scale =
  grid
    [
      ("Linux-10G", Cluster.Linux, 1);
      ("Linux-40G", Cluster.Linux, 4);
      ("mTCP-10G", Cluster.Mtcp, 1);
      ("IX-10G", Cluster.Ix, 1);
      ("IX-40G", Cluster.Ix, 4);
    ]
    values
    (fun (label, kind, ports) v -> (label, { (scenario v) with Scenario.scale; kind; ports }))

(* Each IX point is one host running N per-core dataplanes behind the
   NIC's RSS indirection table (DESIGN.md §8); the speedup column makes
   the near-linear scaling explicit. *)
let fig3a =
  {
    name = "fig3a";
    points = fig3_points [ 1; 2; 3; 4; 6; 8 ] (fun cores -> { Scenario.default with cores });
    table =
      (fun runs ->
        let base label =
          match List.find_opt (fun (l, (s : Scenario.t), _) -> l = label && s.cores = 1) runs with
          | Some (_, _, r) when r.R.ops_per_sec > 0. -> r.R.ops_per_sec
          | _ -> 0.
        in
        Report.table ~title:"Fig 3a: multi-core scalability (echo s=64B, n=1)"
          ~headers:[ "system"; "cores"; "msgs/s"; "conns/s"; "speedup" ]
          (List.map
             (fun (label, (s : Scenario.t), r) ->
               let b = base label in
               [
                 label;
                 string_of_int s.cores;
                 Report.mps r.R.ops_per_sec;
                 Report.mps r.R.conns_per_sec;
                 (if b <= 0. then "-" else Printf.sprintf "%.2fx" (r.R.ops_per_sec /. b));
               ])
             runs));
  }

let fig3b =
  sweep "fig3b" ~title:"Fig 3b: messages per connection sweep (s=64B, 8 cores)"
    ~headers:[ "system"; "n"; "msgs/s" ]
    (fig3_points [ 1; 8; 32; 128; 512; 1024 ] (fun n ->
         { Scenario.default with cores = 8; workload = echo ~msgs_per_conn:n () }))
    (fun (label, s, r) ->
      let _, n, _ = echo_params s in
      [ label; string_of_int n; Report.mps r.R.ops_per_sec ])

let fig3c =
  sweep "fig3c" ~title:"Fig 3c: message size sweep (n=1, 8 cores)"
    ~headers:[ "system"; "size B"; "goodput Gbps"; "msgs/s" ]
    (fig3_points [ 64; 256; 1024; 4096; 8192 ] (fun msg_size ->
         { Scenario.default with cores = 8; workload = echo ~msg_size () }))
    (fun (label, s, r) ->
      let size, _, _ = echo_params s in
      [ label; string_of_int size; Report.gbps r.R.goodput_gbps; Report.mps r.R.ops_per_sec ])

let fig4 =
  sweep "fig4" ~title:"Fig 4: connection scalability (64B echo, 4x10GbE)"
    ~headers:[ "system"; "connections"; "msgs/s" ]
    (fun ~scale ->
      grid
        [ ("IX-40G", Cluster.Ix); ("Linux-40G", Cluster.Linux) ]
        [ 100; 1_000; 10_000; 50_000; 100_000; 250_000 ]
        (fun (label, kind) conns ->
          ( label,
            { Scenario.default with scale; kind; cores = 8; ports = 4;
              workload = Conn_scaling { conns; workers = 384 } } )))
    (fun (label, (s : Scenario.t), r) ->
      let conns = match s.workload with Conn_scaling { conns; _ } -> conns | _ -> 0 in
      [ label; string_of_int conns; Report.mps r.R.ops_per_sec ])

let memcached ~scale ?(batch_bound = 64) (label, kind, cores) profile target_rps =
  ( label,
    { Scenario.default with scale; kind; cores; batch_bound;
      workload = Memcached { profile; target_rps } } )

let fig5_servers = [ ("Linux", Cluster.Linux, 8); ("IX", Cluster.Ix, 6) ]

let by_profile servers targets ~scale =
  grid [ Workloads.Size_dist.etc; Workloads.Size_dist.usr ] servers (fun profile server ->
      List.map (memcached ~scale server profile) targets)
  |> List.concat

let fig5 =
  sweep "fig5" ~title:"Fig 5: memcached latency vs throughput (1476 connections)"
    ~headers:[ "workload"; "system"; "target"; "achieved"; "avg us"; "p99 us"; "kernel" ]
    (by_profile fig5_servers
       [ 100e3; 250e3; 500e3; 750e3; 1000e3; 1250e3; 1500e3; 1800e3; 2000e3 ])
    (fun (label, (s : Scenario.t), r) ->
      let target = match s.workload with Memcached { target_rps; _ } -> target_rps | _ -> 0. in
      [
        profile_name s;
        label;
        Printf.sprintf "%.0fK" (target /. 1e3);
        Printf.sprintf "%.0fK" (r.R.ops_per_sec /. 1e3);
        Report.us r.R.avg_us;
        Report.us r.R.p99_us;
        Report.pct r.R.kernel_share;
      ])

(* Table 2: unloaded p99 from dedicated 20 K RPS runs, and the best
   fig5 point whose p99 meets the 500 us SLA. *)
let table2 =
  {
    name = "table2";
    points = (fun ~scale -> fig5.points ~scale @ by_profile fig5_servers [ 20e3 ] ~scale);
    table =
      (fun runs ->
        let n = List.length runs - 4 in
        let f5 = List.filteri (fun i _ -> i < n) runs in
        let unloaded = List.filteri (fun i _ -> i >= n) runs in
        let best workload system =
          List.fold_left
            (fun acc (label, s, r) ->
              if profile_name s = workload && label = system && r.R.p99_us <= 500. then
                max acc (r.R.ops_per_sec /. 1e3)
              else acc)
            0. f5
        in
        fig5.table f5
        ^ Report.table ~title:"Table 2: unloaded p99 latency and max RPS under 500us p99 SLA"
            ~headers:[ "configuration"; "min latency p99 us"; "RPS for SLA" ]
            (List.map
               (fun (label, s, r) ->
                 [
                   profile_name s ^ "-" ^ label;
                   Report.us r.R.p99_us;
                   Printf.sprintf "%.0fK" (best (profile_name s) label);
                 ])
               unloaded));
  }

(* Each bound runs at high load (throughput) and at low load (latency). *)
let fig6 =
  {
    name = "fig6";
    points =
      (fun ~scale ->
        grid [ 1; 2; 8; 16; 64 ] [ 2400e3; 200e3 ] (fun batch_bound ->
            memcached ~scale ~batch_bound ("IX", Cluster.Ix, 6) Workloads.Size_dist.usr));
    table =
      (fun runs ->
        Report.table ~title:"Fig 6: batch bound B (USR workload, IX)"
          ~headers:[ "B"; "achieved at high load"; "p99 at low load us" ]
          (List.map
             (fun ((_, (s : Scenario.t), high), (_, _, low)) ->
               [
                 string_of_int s.batch_bound;
                 Printf.sprintf "%.0fK" (high.R.ops_per_sec /. 1e3);
                 Report.us low.R.p99_us;
               ])
             (pairs runs)));
  }

(* Fixed bounds bracket the paper's Fig. 6 range; the adaptive row
   starts at B=8 so the sweep shows the controller actually moving
   (it must climb toward the ceiling under the echo load, not merely
   inherit a good static choice). *)
let batch_sweep =
  sweep "batch-sweep" ~title:"Batch sweep: fixed B vs adaptive controller (64B echo, 2 cores)"
    ~headers:[ "config"; "msgs/s"; "p99 us"; "mean batch"; "mean TX burst"; "B in effect" ]
    (fun ~scale ->
      List.map
        (fun (label, batch_bound, batch_mode) ->
          ( label,
            { Scenario.default with scale; cores = 2; client_hosts = 4; batch_bound; batch_mode;
              workload = echo ~msgs_per_conn:8 ~sessions:512 () } ))
        [
          ("B=1", 1, Ix_core.Batch.Fixed);
          ("B=8", 8, Ix_core.Batch.Fixed);
          ("B=64", 64, Ix_core.Batch.Fixed);
          ("adaptive 1..64", 8, Ix_core.Batch.Adaptive { floor = 1; ceiling = 64 });
        ])
    (fun (label, _, r) ->
      [
        label;
        Report.mps r.R.ops_per_sec;
        Report.us r.R.p99_us;
        Printf.sprintf "%.1f" r.R.mean_batch;
        Printf.sprintf "%.1f" r.R.mean_tx_burst;
        string_of_int r.R.batch_bound_end;
      ])

(* Design-choice ablations (DESIGN.md §5), each fully loaded
   (throughput, loaded p99) and nearly unloaded (path latency). *)
let ablations =
  {
    name = "ablations";
    points =
      (fun ~scale ->
        let base =
          { Scenario.default with scale; cores = 4; workload = echo ~msgs_per_conn:64 () }
        in
        List.concat_map
          (fun (label, (s : Scenario.t)) ->
            [ (label, s); (label, { s with workload = echo ~msgs_per_conn:64 ~sessions:8 () }) ])
          [
            ("IX baseline", base);
            ("batch bound B=1", { base with batch_bound = 1 });
            ("interrupts (no polling)", { base with polling = false });
            ("copying API (no zero-copy)", { base with zero_copy = false });
            ("uncoalesced PCIe doorbells", { base with uncoalesced_pcie = true });
          ]);
    table =
      (fun runs ->
        Report.table ~title:"Ablations (64B echo, n=64, 4 cores, 10GbE)"
          ~headers:[ "configuration"; "msgs/s"; "loaded p99 us"; "unloaded p99 us" ]
          (List.map
             (fun ((label, _, loaded), (_, _, unloaded)) ->
               [
                 label;
                 Report.mps loaded.R.ops_per_sec;
                 Report.us loaded.R.p99_us;
                 Report.us unloaded.R.p99_us;
               ])
             (pairs runs)));
  }

(* Incast (extension, per §6): a coarse 200 ms RTO (commodity kernel
   default), the 1 ms RTO the 16 us timing wheel makes practical [64],
   and DCTCP over an ECN-marking queue. *)
let incast =
  let fine = Ix_core.Ix_host.ix_tcp_config in
  {
    name = "incast";
    points =
      (fun ~scale ->
        grid [ 4; 8; 16; 32; 48 ]
          [
            ({ fine with Ixtcp.Tcb.min_rto_ns = 200_000_000 }, false);
            (fine, false);
            ({ fine with Ixtcp.Tcb.dctcp = true }, true);
          ]
          (fun senders (config, ecn) ->
            ( "IX",
              { Scenario.default with scale; cores = 4; tcp_config = Some config;
                workload = Incast { senders; block = 256 * 1024; ecn } } )));
    table =
      (fun runs ->
        let rec rows = function
          | (_, (s : Scenario.t), coarse) :: (_, _, fine) :: (_, _, dctcp) :: rest ->
              let senders = match s.workload with Incast { senders; _ } -> senders | _ -> 0 in
              (string_of_int senders
              :: List.concat_map
                   (fun r -> [ Report.gbps r.R.goodput_gbps; string_of_int r.R.tail_drops ])
                   [ coarse; fine; dctcp ]
              @ [ string_of_int dctcp.R.ce_marks ])
              :: rows rest
          | _ -> []
        in
        Report.table ~title:"Incast (extension, per paper-§6): 256KB fan-in, 64KB switch buffer"
          ~headers:
            [
              "senders"; "200ms Gbps"; "drops"; "1ms Gbps"; "drops"; "DCTCP Gbps"; "drops"; "marks";
            ]
          (rows runs));
  }

(* The quiescent dataplane either polls (the core never enters a
   low-power state) or sleeps in a C-state behind an interrupt, "at the
   cost of some additional latency" (§4.3): server power and energy per
   message across load levels, polling vs interrupt mode. *)
let active_w_per_core = 25.5
let idle_w_per_core = 8.0

let energy =
  sweep "energy"
    ~title:"Energy proportionality (extension, §4.3): polling vs interrupt-driven IX (4 cores)"
    ~headers:[ "sessions"; "mode"; "msgs/s"; "p99 us"; "cpu util"; "watts"; "uJ/msg" ]
    (fun ~scale ->
      grid [ 8; 96; 768 ] [ true; false ] (fun sessions polling ->
          ( (if polling then "IX-poll" else "IX-intr"),
            { Scenario.default with scale; cores = 4; polling;
              workload = echo ~msgs_per_conn:64 ~sessions () } )))
    (fun (label, (s : Scenario.t), r) ->
      let util = Float.min 1.0 r.R.cpu_util in
      let cores = float_of_int s.cores in
      let watts =
        if s.polling then cores *. active_w_per_core
        else cores *. ((util *. active_w_per_core) +. ((1. -. util) *. idle_w_per_core))
      in
      let _, _, sessions = echo_params s in
      [
        string_of_int sessions;
        label;
        Report.mps r.R.ops_per_sec;
        Report.us r.R.p99_us;
        Report.pct util;
        Printf.sprintf "%.0f" watts;
        Printf.sprintf "%.2f"
          (if r.R.ops_per_sec <= 0. then 0. else watts /. r.R.ops_per_sec *. 1e6);
      ])

(* ------------------------------------------------------------------ *)
(* Bespoke runs on the shared testbed                                  *)

(* Table-2-style per-stage accounting.  The tracer attributes every
   charged nanosecond to exactly one stage, so the rows sum to the busy
   total — the acceptance check in test_telemetry. *)
let echo_breakdown ~output ~cores ~msg_size ~scale =
  let s = { Scenario.default with scale; cores; client_hosts = 2; client_threads = 4 } in
  let cluster = Scenario.cluster s in
  Apps.Echo.server cluster.server ~port:7000 ~msg_size ~app_ns:150;
  let stop_after = Sim_time.ms (Scenario.scaled_ms s 6) in
  Scenario.spawn_echo cluster ~client_threads:s.client_threads (Apps.Echo.new_stats ())
    ~at:0 ~spacing:1_000 ~first:0 ~sessions:64 ~msg_size ~msgs_per_conn:32 ~stop_after;
  Sim.run ~until:stop_after cluster.sim;
  let host = Option.get cluster.server_ix in
  let tracers = Ix_core.Ix_host.tracers host in
  let rows = merge_breakdowns tracers in
  let label = Printf.sprintf "IX echo s=%dB, %d cores" msg_size cores in
  ( rows,
    Ix_core.Ix_host.total_kernel_ns host + Ix_core.Ix_host.total_user_ns host,
    breakdown_table ~label rows ^ dump_trace ~output tracers )

type elastic_result = {
  el_samples : Elastic.sample list;
  el_decisions : Elastic.decision list;
  el_peak_cores : int;
  el_final_cores : int;
  el_migrations : int;
  el_parked_frames : int;
  el_slo_p99_us : float;
  el_burst_breaches : int;
  el_energy_j : float;
  el_static_energy_j : float;
  el_msgs : int;
}

(* A light base load runs for the whole trace; a burst of closed-loop
   sessions arrives for the middle third. *)
let elastic_scaling ~output ~scale =
  let capacity = 4 in
  let s = { Scenario.default with scale; cores = capacity; client_hosts = 4; client_threads = 4 } in
  let cluster = Scenario.cluster s in
  let host = Option.get cluster.server_ix in
  let cp = Ix_core.Control_plane.create host in
  (* Start small: one live core; the rest is parked capacity. *)
  Ix_core.Control_plane.set_elastic_threads cp 1;
  Apps.Echo.server cluster.server ~port:7000 ~msg_size:64 ~app_ns:150;
  let stats = Apps.Echo.new_stats () in
  (* The probe drains the client latency histogram every controller
     interval, turning it into a per-interval window. *)
  let latency = stats.Apps.Echo.latency in
  let p99_probe () =
    if Ixtelemetry.Log_hist.is_empty latency then None
    else begin
      let p = Ixtelemetry.Log_hist.percentile latency 99. in
      Ixtelemetry.Log_hist.clear latency;
      Some (float_of_int p)
    end
  in
  let config = { Elastic.default_config with Elastic.max_cores = capacity } in
  let el = Elastic.start ~sim:cluster.sim ~cp ~config ~p99_probe () in
  let phase = Sim_time.ms (Scenario.scaled_ms s 4) in
  let stop_after = 3 * phase in
  let spawn ~at ~until ~first ~sessions =
    Scenario.spawn_echo cluster ~client_threads:s.client_threads stats ~at ~spacing:2_000
      ~first ~sessions ~msg_size:64 ~msgs_per_conn:64 ~stop_after:until
  in
  spawn ~at:0 ~until:stop_after ~first:0 ~sessions:6;
  spawn ~at:phase ~until:(2 * phase) ~first:6 ~sessions:56;
  Sim.run ~until:stop_after cluster.sim;
  Elastic.stop el;
  let samples = Elastic.samples el in
  (* SLO hold over the burst: count windows inside the burst phase,
     after the controller has had one hysteresis period to react, whose
     windowed p99 still exceeded the target. *)
  let settle = config.Elastic.interval_ns * config.Elastic.settle_checks in
  let breach (smp : Elastic.sample) =
    smp.at_ns > phase + (2 * settle)
    && smp.at_ns <= 2 * phase
    && (not (Float.is_nan smp.p99_ns))
    && smp.p99_ns > config.Elastic.slo_p99_ns
  in
  let r =
    {
      el_samples = samples;
      el_decisions = Elastic.decisions el;
      el_peak_cores = List.fold_left (fun acc smp -> max acc smp.Elastic.cores) 1 samples;
      el_final_cores = Ix_core.Control_plane.active_threads cp;
      el_migrations = Ix_core.Control_plane.migrations_completed cp;
      el_parked_frames = Metrics.counter_value (Ix_core.Ix_host.metrics host) "cp.parked_frames";
      el_slo_p99_us = config.Elastic.slo_p99_ns /. 1e3;
      el_burst_breaches = List.length (List.filter breach samples);
      el_energy_j =
        Elastic.energy_joules el ~capacity ~active_w:active_w_per_core ~idle_w:idle_w_per_core;
      el_static_energy_j =
        float_of_int capacity *. active_w_per_core *. Sim_time.to_float_s stop_after;
      el_msgs = stats.Apps.Echo.messages;
    }
  in
  let stride = max 1 (List.length samples / 16) in
  let curve =
    List.filteri (fun i _ -> i mod stride = 0 || i = List.length samples - 1) samples
    |> List.map (fun (smp : Elastic.sample) ->
           [
             Printf.sprintf "%.0f" (float_of_int smp.at_ns /. 1e3);
             string_of_int smp.cores;
             Report.pct smp.util;
             (if Float.is_nan smp.p99_ns then "-" else Report.us (smp.p99_ns /. 1e3));
           ])
  in
  ( r,
    Report.table
      ~title:
        (Printf.sprintf "Elastic scaling (burst trace, %d-core capacity, %.0f us p99 SLO)"
           capacity r.el_slo_p99_us)
      ~headers:[ "t us"; "cores"; "util"; "p99 us" ] curve
    ^ Report.table ~title:"Elastic scaling: summary" ~headers:[ "metric"; "value" ]
        [
          [ "scale decisions"; string_of_int (List.length r.el_decisions) ];
          [ "peak cores"; string_of_int r.el_peak_cores ];
          [ "final cores"; string_of_int r.el_final_cores ];
          [ "flow-group migrations"; string_of_int r.el_migrations ];
          [ "frames parked (all replayed)"; string_of_int r.el_parked_frames ];
          [ "burst windows over SLO (post-settle)"; string_of_int r.el_burst_breaches ];
          [ "messages echoed"; string_of_int r.el_msgs ];
          [ "energy (elastic)"; Printf.sprintf "%.3f J" r.el_energy_j ];
          [ "energy (static 4 cores)"; Printf.sprintf "%.3f J" r.el_static_energy_j ];
        ]
    ^ server_telemetry ~output ~label:"elastic scaling"
        (cluster.server.Netapi.Net_api.metrics ())
        (Ix_core.Ix_host.tracers host) )

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let figures =
  List.map (fun f -> Sweep f)
    [ fig2; fig3a; fig3b; fig3c; fig4; fig5; fig6; batch_sweep; table2; ablations; incast; energy ]
  @ [
      Single
        { name = "elastic"; run = (fun ~output ~scale -> snd (elastic_scaling ~output ~scale)) };
      Single
        {
          name = "breakdown";
          run =
            (fun ~output ~scale ->
              let _, _, text = echo_breakdown ~output ~cores:1 ~msg_size:64 ~scale in
              text);
        };
    ]

let figure_name = function Sweep { name; _ } | Single { name; _ } -> name

let select = function
  | "all" -> Some (List.filter (fun f -> figure_name f <> "fig5") figures)
  | name -> Option.map (fun f -> [ f ]) (List.find_opt (fun f -> figure_name f = name) figures)

let render ~output ~scale ~jobs = function
  | Sweep f ->
      let text, runs = run_points ~output ~jobs (f.points ~scale) in
      text ^ f.table runs
  | Single f -> f.run ~output ~scale
