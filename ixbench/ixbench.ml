(* The IX reproduction benchmark: four named workloads, seven gated
   end-to-end metrics (plus the failure ratio) from untraced
   repetitions, and a per-layer ledger from a separate traced run.
   See README.md in this directory.

     ixbench --workload NAME --seed N --seconds S --trace 0|1
     ixbench --smoke

   The last line of standard output is one JSON object. *)

open Measure
module Cluster = Harness.Cluster

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)

type size = Full | Smoke

let echo_cfg = function
  | Full ->
      {
        Loads.cores = 4; client_hosts = 4; client_threads = 8; sessions = 256;
        msgs_per_conn = 8; msg_size = 64; warmup_ms = 2; measure_ms = 12;
      }
  | Smoke ->
      {
        Loads.cores = 4; client_hosts = 2; client_threads = 4; sessions = 32;
        msgs_per_conn = 8; msg_size = 64; warmup_ms = 1; measure_ms = 1;
      }

let kv_cfg = function
  | Full ->
      {
        Loads.threads = 6; kv_client_hosts = 6; kv_client_threads = 8; conns = 1476;
        rps = 1.0e6; pipeline = 4; kv_warmup_ms = 4; kv_measure_ms = 40;
      }
  | Smoke ->
      {
        Loads.threads = 6; kv_client_hosts = 2; kv_client_threads = 4; conns = 96;
        rps = 1.0e5; pipeline = 4; kv_warmup_ms = 1; kv_measure_ms = 2;
      }

let churn_cfg = function
  | Full -> { Loads.churn_conns = 200_000; churn_events = 200_000; warm_conns = 20_000; warm_events = 20_000 }
  | Smoke -> { Loads.churn_conns = 4_000; churn_events = 4_000; warm_conns = 500; warm_events = 500 }

(* One sweep point: a small echo cluster.  The sweep runs 1/2/4/8 server
   cores, each under two seeds. *)
let sweep_point_cfg size cores =
  match size with
  | Full ->
      {
        Loads.cores; client_hosts = 2; client_threads = 4; sessions = 64;
        msgs_per_conn = 8; msg_size = 64; warmup_ms = 1; measure_ms = 3;
      }
  | Smoke -> { (echo_cfg Smoke) with Loads.cores; sessions = 16 }

let sweep_points ~seed = List.concat_map (fun cores -> [ (cores, seed); (cores, seed + 1) ]) [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* sweep-2dom: independent echo simulations over a two-domain pool      *)

type job = {
  rep : rep;
  main_domain : bool;
  busy_s : float;  (** wall time the job occupied its domain *)
  job_minor_words : float;  (** the job's own domain's allocation *)
  ledger : Ledger.t option;
}

let sweep_job ~traced size (cores, seed) () =
  let main_domain = Domain.is_main_domain () in
  let ledger = ref None in
  let on_build c =
    if traced then begin
      let l = Ledger.create ~capacity:6_000 ~now:(Cluster.now c) () in
      Ledger.attach l c;
      ledger := Some l
    end
  in
  let w0 = Gc.minor_words () and t0 = now_ns () in
  let rep = Loads.echo_rep ~on_build ~seed (sweep_point_cfg size cores) in
  {
    rep;
    main_domain;
    busy_s = seconds_between t0 (now_ns ());
    job_minor_words = Gc.minor_words () -. w0;
    ledger = !ledger;
  }

(* Counts add up over the points, high-water marks take the largest,
   and shares are averaged. *)
let sum_counters reps =
  let shares = [ "cpu_util"; "kernel_share" ] in
  let n = float_of_int (List.length reps) in
  List.fold_left
    (fun acc (r : rep) ->
      List.map
        (fun (k, v) ->
          let a = Layers.get acc k in
          if List.mem k shares then (k, a +. (v /. n))
          else if List.mem k Layers.levels then (k, Float.max v a)
          else (k, v +. a))
        r.counters)
    [] reps

(* The sequential result of every point, computed once per process: the
   parallel sweep must reproduce each of them exactly. *)
let sweep_reference size ~seed =
  List.map (fun p -> (sweep_job ~traced:false size p ()).rep.digest) (sweep_points ~seed)

type sweep_rep = { srep : rep; jobs : job list }

let sweep_rep ?(traced = false) ~reference size ~seed =
  let t0 = now_ns () in
  Engine.Domain_pool.with_pool ~jobs:2 (fun pool ->
      (* Set-up: the pool, warmed by one tiny point on each domain. *)
      let warm = (4, seed) in
      ignore (Engine.Domain_pool.map pool [ sweep_job ~traced:false Smoke warm; sweep_job ~traced:false Smoke warm ]);
      let t1 = now_ns () in
      let jobs =
        Engine.Domain_pool.map pool (List.map (sweep_job ~traced size) (sweep_points ~seed))
      in
      let t2 = now_ns () in
      List.iteri
        (fun i (j, d) ->
          check (j.rep.digest = d) "sweep-2dom: point %d differs from its sequential run" i)
        (List.combine jobs reference);
      let reps = List.map (fun j -> j.rep) jobs in
      let lat = Samples.create () in
      List.iter (fun (r : rep) -> Samples.append ~into:lat r.latencies) reps;
      let p50, p99, n = latency_summary lat in
      let mops = List.fold_left (fun acc (r : rep) -> acc +. r.model_ops_per_s) 0. reps in
      let total f = List.fold_left (fun acc (r : rep) -> acc + f r) 0 reps in
      let ops = total (fun r -> r.ops) and attempted = total (fun r -> r.attempted) in
      let failed = total (fun r -> r.failed) and events = total (fun r -> r.events) in
      let counters = sum_counters reps in
      let srep =
        {
          setup_s = seconds_between t0 t1;
          phases = [];
          measure_s = seconds_between t1 t2;
          probe_ns = 0.;
          ops;
          attempted;
          failed;
          minor_words = List.fold_left (fun acc j -> acc +. j.job_minor_words) 0. jobs;
          peak_rss_mb = peak_rss_mb ();
          major_words = List.fold_left (fun acc (r : rep) -> acc +. r.major_words) 0. reps;
          minor_gcs = total (fun r -> r.minor_gcs);
          events;
          model_ops_per_s = mops;
          model_p50_us = p50;
          model_p99_us = p99;
          model_samples = n;
          counters;
          latencies = lat;
          digest =
            digest_of ~ops ~attempted ~failed ~events ~model:(mops, p50, p99, n) ~counters;
        }
      in
      { srep; jobs })

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  port : int;  (** the server port the replays follow; 0 = no wire *)
  subseeds : int;
      (** repetitions cycle through this many seeds derived from the run's
          seed, and the model metrics pool them *)
  run : ?traced:bool -> size -> seed:int -> rep * Ledger.t option * job list;
}

let with_ledger run ~traced ~seed =
  let ledger = ref None in
  let on_build c =
    if traced then begin
      let l = Ledger.create ~now:(Cluster.now c) () in
      Ledger.attach l c;
      ledger := Some l
    end
  in
  let rep = run ~on_build ~seed in
  (rep, !ledger, [])

let workloads =
  let sweep_refs = Hashtbl.create 2 in
  [
    {
      name = "echo-64b-4core";
      port = Loads.echo_port;
      subseeds = 1;
      run =
        (fun ?(traced = false) size ~seed ->
          with_ledger ~traced ~seed (fun ~on_build ~seed ->
              Loads.echo_rep ~on_build ~seed (echo_cfg size)));
    };
    {
      name = "memcached-etc-open";
      port = Loads.kv_port;
      (* An open loop's tail depends on where the Poisson bursts fall;
         three independent arrival streams per run steady the p99. *)
      subseeds = 3;
      run =
        (fun ?(traced = false) size ~seed ->
          with_ledger ~traced ~seed (fun ~on_build ~seed ->
              Loads.kv_rep ~on_build ~seed (kv_cfg size)));
    };
    {
      name = "conn-churn";
      port = 0;
      subseeds = 1;
      run = (fun ?traced:_ size ~seed -> (Loads.churn_rep ~seed (churn_cfg size), None, []));
    };
    {
      name = "sweep-2dom";
      port = Loads.echo_port;
      subseeds = 1;
      run =
        (fun ?(traced = false) size ~seed ->
          let reference =
            match Hashtbl.find_opt sweep_refs (size, seed) with
            | Some r -> r
            | None ->
                let r = sweep_reference size ~seed in
                Hashtbl.replace sweep_refs (size, seed) r;
                r
          in
          let s = sweep_rep ~traced ~reference size ~seed in
          (* Replays follow the first 4-core point's captures. *)
          let ledger = Option.join (Option.map (fun j -> j.ledger) (List.nth_opt s.jobs 4)) in
          (s.srep, ledger, s.jobs));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Repetitions and their checks                                        *)

let fresh_heap () = Gc.compact ()

let subseed w ~seed i = seed + (i mod w.subseeds * 1_000_003)

(* Untraced repetitions: at least [min_reps] and one more than the
   subseeds, more while [seconds] of wall time remain.  Every
   repetition of one seed must simulate the same thing. *)
let repeat w size ~seed ~seconds ~min_reps =
  let min_reps = max min_reps (if w.subseeds > 1 then w.subseeds + 1 else 1) in
  let t0 = now_ns () in
  let reps = ref [] in
  let probe = ref (Probe.ns_per_lookup ()) in
  while
    List.length !reps < min_reps
    || (seconds_between t0 (now_ns ()) < seconds && List.length !reps < 200)
  do
    fresh_heap ();
    reset_peak_rss ();
    let r, _, _ = w.run size ~seed:(subseed w ~seed (List.length !reps)) in
    let after = Probe.ns_per_lookup () in
    reps := { r with probe_ns = (!probe +. after) /. 2. } :: !reps;
    probe := after
  done;
  let reps = Array.of_list (List.rev !reps) in
  Array.iteri
    (fun i (r : rep) ->
      let first = reps.(i mod w.subseeds) in
      check (r.digest = first.digest)
        "%s: repetition %d of seed %d simulated something else than repetition %d:\n  %s\n  %s"
        w.name i (subseed w ~seed i) (i mod w.subseeds) first.digest r.digest)
    reps;
  Array.to_list reps

let med f reps = median (List.map f reps)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

(* The model metrics of the first repetition of every subseed, pooled. *)
let model w (reps : rep list) =
  let pool = List.filteri (fun i _ -> i < w.subseeds) reps in
  match pool with
  | [ r ] -> (r.model_ops_per_s, r.model_p50_us, r.model_p99_us, r.model_samples)
  | _ ->
      let lat = Samples.create () in
      List.iter (fun (r : rep) -> Samples.append ~into:lat r.latencies) pool;
      let p50, p99, n = latency_summary lat in
      (med (fun r -> r.model_ops_per_s) pool, p50, p99, n)

(* A repetition's wall seconds in seconds of the probe's nominal host. *)
let host_s (r : rep) s = Probe.scale ~ns_per_lookup:r.probe_ns s

let sim_rate (r : rep) = float_of_int r.ops /. host_s r r.measure_s

let end_to_end w (reps : rep list) =
  let mops, p50, p99, _ = model w reps in
  [
    m "setup_s" "s" (med (fun r -> host_s r r.setup_s) reps);
    m "sim_ops_per_s" "ops/s" (med sim_rate reps);
    m "minor_words_per_op" "words" (med (fun r -> r.minor_words /. float_of_int r.ops) reps);
    m "peak_rss_mb" "MiB" (med (fun r -> r.peak_rss_mb) reps);
    m "model_ops_per_s" "ops/sim_s" mops;
    m "model_p50_us" "sim_us" p50;
    m "model_p99_us" "sim_us" p99;
  ]

let per_layer w ~(untraced : rep list) ~(traced : rep) ~traced_wall ~ledger ~jobs ~gc =
  let c = traced.counters in
  let g = Layers.get c in
  let ops = float_of_int traced.ops in
  let per_op k = ratio (g k) ops in
  let measure_ns = med (fun r -> r.measure_s) untraced *. 1e9 in
  let replays =
    match ledger with
    | None -> Ledger.no_replays
    | Some l ->
        Ledger.replay l ~server_ip:(Ixnet.Ip_addr.of_host_id 1) ~port:w.port
          ~latencies:traced.latencies
  in
  let ledgers =
    match jobs with [] -> Option.to_list ledger | _ -> List.filter_map (fun j -> j.ledger) jobs
  in
  let tap f = List.fold_left (fun acc l -> acc + f l) 0 ledgers in
  let srv_ns = tap (fun l -> l.Ledger.srv_ns) and srv_frames = tap (fun l -> l.Ledger.srv_frames) in
  let cli_ns = tap (fun l -> l.Ledger.cli_ns) and cli_frames = tap (fun l -> l.Ledger.cli_frames) in
  let rx_srv = g "nic.server.rx_frames" and rx_cli = g "nic.client.rx_frames" in
  let rx_frames = rx_srv +. rx_cli in
  let segs = g "tcp.rx_segs" +. g "tcp.client.rx_segs" in
  (* Wall time the replayed layer costs account for in the untraced
     measured phase. *)
  let explained =
    (per srv_ns srv_frames *. rx_srv)
    +. (per cli_ns cli_frames *. rx_cli)
    +. (replays.Ledger.decode.Ledger.ns_per_op *. rx_frames)
    +. (replays.Ledger.rss.Ledger.ns_per_op *. rx_frames)
    +. (replays.Ledger.mempool.Ledger.ns_per_op *. 2. *. rx_frames)
    +. (replays.Ledger.iov.Ledger.ns_per_op *. ops)
    +. (replays.Ledger.tcp.Ledger.cost.Ledger.ns_per_op *. segs)
    +. (replays.Ledger.wheel.Ledger.ns_per_op *. segs)
    +. (replays.Ledger.kv.Ledger.ns_per_op *. if w.port = Loads.kv_port then ops else 0.)
  in
  let traced_wall_s = seconds_between 0 traced_wall in
  let domain_ns main =
    List.fold_left (fun acc j -> if j.main_domain = main then acc +. j.busy_s else acc) 0. jobs
  in
  let busy_share main =
    match jobs with
    | [] -> if main then 1. else 0.
    | _ -> ratio (domain_ns main) traced.measure_s
  in
  (* Ring 0 is the main domain; the pool's worker owns one of the
     others. *)
  let stw ring_is_main =
    let ns =
      if ring_is_main then Gc_events.stw_ns gc 0
      else List.fold_left (fun acc i -> acc + Gc_events.stw_ns gc i) 0 (List.init 15 (( + ) 1))
    in
    ratio (float_of_int ns /. 1e6) traced_wall_s
  in
  let phase name = med (fun r -> Option.value (List.assoc_opt name r.phases) ~default:0.) untraced in
  let cost name unit_ (x : Ledger.cost) = m name unit_ x.Ledger.ns_per_op in
  [
    m "engine.events_per_op" "events" (per_op "sim.events");
    m "engine.ns_per_event" "ns" (ratio measure_ns (g "sim.events"));
    m "engine.gc.minor_collections_per_kop" "count" (ratio (1000. *. float_of_int traced.minor_gcs) ops);
    m "engine.gc.stw_ms_per_s.d0" "ms/s" (stw true);
    m "engine.gc.stw_ms_per_s.d1" "ms/s" (stw false);
    m "engine.gc.major_words_per_op" "words" (ratio traced.major_words ops);
    m "engine.domain_pool.busy_share.d0" "ratio" (busy_share true);
    m "engine.domain_pool.busy_share.d1" "ratio" (busy_share false);
    m "hw.nic.rx_ns_per_frame.server" "ns" (per srv_ns srv_frames);
    m "hw.nic.rx_ns_per_frame.client" "ns" (per cli_ns cli_frames);
    m "hw.nic.rx_frames_per_op" "frames" (ratio rx_frames ops);
    cost "hw.rss.ns_per_op" "ns" replays.Ledger.rss;
    m "hw.nic.rx_drops" "count" (g "nic.rx_drops");
    m "hw.nic.doorbells_per_frame" "ratio" (ratio (g "nic.server.doorbells") rx_srv);
    cost "net.decode.ns_per_frame" "ns" replays.Ledger.decode;
    m "net.decode.words_per_frame" "words" replays.Ledger.decode.Ledger.words_per_op;
    cost "net.checksum.ns_per_frame" "ns" replays.Ledger.checksum;
    cost "mem.mempool.ns_per_op" "ns" replays.Ledger.mempool;
    cost "mem.iov_deque.ns_per_op" "ns" replays.Ledger.iov;
    m "tcp.fast_path_ratio" "ratio" (ratio (g "tcp.fast") (g "tcp.fast" +. g "tcp.slow"));
    m "tcp.segs_per_op" "segs" (per_op "tcp.rx_segs");
    cost "tcp.input.ns_per_seg" "ns" replays.Ledger.tcp.Ledger.cost;
    m "tcp.input.words_per_seg" "words" replays.Ledger.tcp.Ledger.cost.Ledger.words_per_op;
    m "tcp.replay_fidelity" "ratio" replays.Ledger.tcp.Ledger.fidelity;
    m "tcp.bytes_per_conn" "bytes" (g "tcp.bytes_per_conn");
    m "tcp.time_wait_live" "count" (g "tcp.time_wait_live");
    m "tcp.cookie_valid_ratio" "ratio" (ratio (g "tcp.cookies_validated") (g "tcp.cookies_sent"));
    m "timerwheel.fired_per_op" "count" (per_op "wheel.fired");
    m "timerwheel.cascades_per_kop" "count" (1000. *. per_op "wheel.cascades");
    m "timerwheel.max_armed" "count" (g "wheel.max_armed");
    cost "timerwheel.ns_per_op" "ns" replays.Ledger.wheel;
  ]
  @ List.map
      (fun (_, s) -> m (Printf.sprintf "core.stage.%s_ns_per_op" s) "sim_ns" (per_op ("stage." ^ s)))
      Layers.stage_names
  @ [
      m "core.kernel_share" "ratio" (g "kernel_share");
      m "core.cpu_util" "ratio" (g "cpu_util");
      m "core.batch.mean" "packets" (ratio (g "batch.packets") (g "batch.cycles"));
      m "core.batch.mean_tx_burst" "packets" (ratio (g "batch.tx_packets") (g "batch.tx_bursts"));
      m "core.cycles_per_op" "count" (per_op "cycles");
      m "core.syscalls_per_op" "count" (per_op "syscalls");
      m "baselines.linux.irqs_per_op" "count" (per_op "linux.irqs");
      m "baselines.linux.wakeups_per_op" "count" (per_op "linux.wakeups");
      cost "apps.kv_protocol.parse_ns_per_req" "ns" replays.Ledger.kv;
      m "apps.memcached.get_hit_ratio" "ratio" (ratio (g "kv.hits") (g "kv.gets"));
      cost "telemetry.hist.ns_per_record" "ns" replays.Ledger.hist;
      m "harness.cluster_build_s" "s" (phase "harness.cluster_build_s");
      m "harness.preload_s" "s" (phase "harness.preload_s");
      m "harness.warmup_s" "s" (phase "harness.warmup_s");
      m "model.latency_samples" "count" (float_of_int traced.model_samples);
      m "attributed_share" "ratio" (ratio explained measure_ns);
      m "trace_overhead" "ratio" ((traced.measure_s /. (measure_ns /. 1e9)) -. 1.);
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-40s %22s %s\n" x.mname (json_number x.value) x.unit_) rows

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let totals reps =
  List.fold_left (fun (a, f) (r : rep) -> (a + r.attempted, f + r.failed)) (0, 0) reps

let failure_row reps =
  let a, f = totals reps in
  m "failed_op_ratio" "ratio" (per f a)

let run_untraced w size ~seed ~seconds =
  let reps = repeat w size ~seed ~seconds ~min_reps:3 in
  let metrics = end_to_end w reps in
  let r0 = List.hd reps in
  let _, _, _, samples = model w reps in
  Printf.printf "%s seed %d: %d repetitions, %d ops each\n" w.name seed (List.length reps) r0.ops;
  let by_rep f = String.concat " " (List.map f reps) in
  Printf.printf "  probe ns/lookup by repetition: %s\n" (by_rep (fun r -> Printf.sprintf "%.1f" r.probe_ns));
  Printf.printf "  wall ops/s by repetition:      %s\n"
    (by_rep (fun r -> Printf.sprintf "%.0f" (float_of_int r.ops /. r.measure_s)));
  Printf.printf "  scaled ops/s by repetition:    %s\n" (by_rep (fun r -> Printf.sprintf "%.0f" (sim_rate r)));
  print_table "end-to-end (medians over repetitions; times scaled to the probe's nominal host)"
    (metrics
    @ [
        failure_row reps;
        m "model_latency_samples" "count" (float_of_int samples);
        m "wall_setup_s" "s" (med (fun r -> r.setup_s) reps);
        m "wall_sim_ops_per_s" "ops/s" (med (fun r -> float_of_int r.ops /. r.measure_s) reps);
        m "probe_ns_per_lookup" "ns" (med (fun r -> r.probe_ns) reps);
      ]);
  let attempted, failed = totals reps in
  print_result ~attempted ~failed metrics

let run_traced w size ~seed ~seconds =
  let untraced = repeat w size ~seed ~seconds:(seconds /. 2.) ~min_reps:2 in
  fresh_heap ();
  let gc = Gc_events.create () in
  let t0 = now_ns () in
  let traced, ledger, jobs = w.run ~traced:true size ~seed in
  let traced_wall = now_ns () - t0 in
  Gc_events.poll gc;
  if Gc_events.lost gc > 0 then
    Printf.eprintf "ixbench: %d runtime events were lost; GC times are a lower bound\n%!"
      (Gc_events.lost gc);
  let u0 = List.hd untraced in
  check (traced.digest = u0.digest)
    "%s: the traced run simulated something else than the untraced runs:\n  %s\n  %s" w.name
    u0.digest traced.digest;
  let metrics = per_layer w ~untraced ~traced ~traced_wall ~ledger ~jobs ~gc in
  Gc_events.close gc;
  Printf.printf "%s seed %d: traced run, %d untraced repetitions\n" w.name seed (List.length untraced);
  print_table "per-layer ledger" metrics;
  let attempted, failed = totals (traced :: untraced) in
  print_result ~attempted ~failed metrics

(* Every workload at a tiny size with every check on: two repetitions
   and a traced run each, in a few seconds. *)
let smoke () =
  List.iter
    (fun w ->
      let reps = repeat w Smoke ~seed:1 ~seconds:0. ~min_reps:2 in
      let traced, _, _ = w.run ~traced:true Smoke ~seed:1 in
      check (traced.digest = (List.hd reps).digest) "%s: traced run differs" w.name;
      Printf.printf "smoke %-20s ok  %d ops, model %.0f ops/sim_s, p99 %.2f sim_us\n%!" w.name
        traced.ops traced.model_ops_per_s traced.model_p99_us)
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the generated load");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to keep repeating");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--smoke", Arg.Set smoke_mode, " every workload at a tiny size, every check on");
    ]
  in
  let usage = "ixbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  try
    if !smoke_mode then smoke ()
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | None ->
          Printf.eprintf "ixbench: unknown workload %S (known: %s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.name) workloads));
          exit 2
      | Some w ->
          if !trace = 1 then run_traced w Full ~seed:!seed ~seconds:!seconds
          else run_untraced w Full ~seed:!seed ~seconds:!seconds
  with Check_failed msg ->
    Printf.eprintf "ixbench: output check failed: %s\n%!" msg;
    exit 1
