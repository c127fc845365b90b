(* ixsim: command-line driver for the IX reproduction.

   [fig] regenerates every table and figure of the paper's evaluation
   (see DESIGN.md's per-experiment index) from the registry in
   Harness.Experiments; the other subcommands run single experiments
   with adjustable parameters.

     dune exec bin/ixsim.exe -- fig all      — the whole evaluation
     dune exec bin/ixsim.exe -- fig fig3b    — one experiment
     IX_BENCH_SCALE=0.3 dune exec ...        — shorter (noisier) windows *)

open Cmdliner
module Scenario = Harness.Scenario

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let log_term =
  Term.(const setup_logs $ Logs_cli.level ())

(* The CLIs read the environment once, at start-up. *)
let scale, env_jobs =
  match Harness.Experiments.env () with
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 2

(* --gc: report GC pressure per simulated event at exit. *)
let setup_gc enabled = if enabled then at_exit (Harness.Experiments.gc_meter "gc")

let gc_term =
  Term.(
    const setup_gc
    $ Arg.(
        value & flag
        & info [ "gc" ]
            ~doc:
              "Print GC counters (minor/major words, minor collections) per \
               million simulated events at exit."))

let kind_conv =
  let parse = function
    | "ix" -> Ok Harness.Cluster.Ix
    | "linux" -> Ok Harness.Cluster.Linux
    | "mtcp" -> Ok Harness.Cluster.Mtcp
    | s -> Error (`Msg (Printf.sprintf "unknown stack %S (ix|linux|mtcp)" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with
      | Harness.Cluster.Ix -> "ix"
      | Harness.Cluster.Linux -> "linux"
      | Harness.Cluster.Mtcp -> "mtcp")
  in
  Arg.conv (parse, print)

let kind_arg =
  Arg.(value & opt kind_conv Harness.Cluster.Ix & info [ "s"; "stack" ] ~doc:"Server stack: ix, linux or mtcp.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the server's cycle breakdown and metric snapshot after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the server's retained cycle spans as Chrome trace_event JSON \
           to $(docv) (open in chrome://tracing or Perfetto).")

(* The telemetry-output record threaded into each runner. *)
let output_term =
  Term.(
    const (fun metrics trace -> { Harness.Experiments.metrics; trace })
    $ metrics_arg $ trace_arg)

let jobs_arg =
  Arg.(
    value
    & opt int env_jobs
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan independent simulations over $(docv) worker domains \
           (default from IX_BENCH_JOBS, else 1).  Results are collected \
           in submission order and are bit-identical to a sequential \
           run with the same seeds.")

(* --fast-path=off: the escape hatch disabling TCP header prediction on
   every stack in the cluster; results must not change, only the
   fast/slow hit counters. *)
let fast_path_conv =
  let parse = function
    | "on" -> Ok true
    | "off" -> Ok false
    | s -> Error (`Msg (Printf.sprintf "expected on or off, got %S" s))
  in
  let print fmt b = Format.pp_print_string fmt (if b then "on" else "off") in
  Arg.conv (parse, print)

let fast_path_arg =
  Arg.(
    value & opt fast_path_conv true
    & info [ "fast-path" ] ~docv:"on|off"
        ~doc:
          "Enable ($(b,on), default) or disable ($(b,off)) the TCP \
           header-prediction receive fast path on every stack.  A pure \
           optimization: $(b,off) must reproduce identical results.")

let cores_arg = Arg.(value & opt int 8 & info [ "c"; "cores" ] ~doc:"Server cores.")

let elastic_arg =
  Arg.(
    value & flag
    & info [ "elastic" ]
        ~doc:
          "Arm the elastic core-allocation loop on an IX server: --cores \
           becomes provisioned capacity, the dataplane starts on one live \
           core and scales with load via no-drop flow-group migrations.")
let ports_arg = Arg.(value & opt int 1 & info [ "p"; "ports" ] ~doc:"Server NIC ports (1 or 4).")
let size_arg = Arg.(value & opt int 64 & info [ "m"; "msg-size" ] ~doc:"Message size in bytes.")
let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Round trips per connection.")
let batch_arg = Arg.(value & opt int 64 & info [ "b"; "batch" ] ~doc:"IX batch bound B (the start value when --adaptive-batch is given).")

(* --adaptive-batch FLOOR:CEILING arms the deterministic bound
   controller; without it the bound stays fixed at --batch. *)
let adaptive_batch_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some floor, Some ceiling when 1 <= floor && floor <= ceiling ->
            Ok (Ix_core.Batch.Adaptive { floor; ceiling })
        | _ -> Error (`Msg (Printf.sprintf "expected FLOOR:CEILING with 1 <= floor <= ceiling, got %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected FLOOR:CEILING, got %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Ix_core.Batch.Fixed -> "fixed"
      | Ix_core.Batch.Adaptive { floor; ceiling } ->
          Printf.sprintf "%d:%d" floor ceiling)
  in
  Arg.conv (parse, print)

let adaptive_batch_arg =
  Arg.(
    value
    & opt (some adaptive_batch_conv) None
    & info [ "adaptive-batch" ] ~docv:"FLOOR:CEILING"
        ~doc:
          "Let the batch bound self-tune within $(docv) (e.g. $(b,1:64)): \
           saturated windows double B toward the ceiling, light windows \
           halve it toward the floor, and congested TX bursts share \
           doorbells.  Off by default (fixed B from --batch).")

let echo_cmd =
  let run () output () kind fast_path elastic cores ports size n batch adaptive =
    let batch_mode = Option.value adaptive ~default:Ix_core.Batch.Fixed in
    let s =
      {
        Scenario.default with
        kind;
        ports;
        cores;
        batch_bound = batch;
        batch_mode;
        fast_path;
        elastic;
        scale;
        workload = Echo { msg_size = size; msgs_per_conn = n; sessions = 768 };
      }
    in
    let r = Scenario.run s in
    let label = Printf.sprintf "%s-%dG" (Scenario.kind_name kind) (10 * ports) in
    print_string (Harness.Experiments.telemetry ~output ~label s r);
    Printf.printf "%s: %.2f M msgs/s, %.2f Gbps goodput, p99 %.1f us\n" label
      (r.ops_per_sec /. 1e6) r.goodput_gbps r.p99_us;
    if kind = Harness.Cluster.Ix then
      Printf.printf
        "batch: mean %.1f pkts/cycle, mean TX burst %.1f, B in effect %d%s\n"
        r.mean_batch r.mean_tx_burst r.batch_bound_end
        (match batch_mode with
        | Ix_core.Batch.Fixed -> ""
        | Ix_core.Batch.Adaptive { floor; ceiling } ->
            Printf.sprintf " (adaptive %d..%d)" floor ceiling)
  in
  Cmd.v (Cmd.info "echo" ~doc:"Run the echo benchmark once (§5.3).")
    Term.(
      const run $ log_term $ output_term $ gc_term $ kind_arg $ fast_path_arg
      $ elastic_arg $ cores_arg $ ports_arg $ size_arg $ n_arg $ batch_arg
      $ adaptive_batch_arg)

let breakdown_cmd =
  let run () output () cores size =
    let _, _, text =
      Harness.Experiments.echo_breakdown ~output ~cores ~msg_size:size ~scale
    in
    print_string text
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:
         "Run a short IX echo and print its Table-2-style per-stage cycle \
          breakdown (combine with --trace for a Chrome trace).")
    Term.(const run $ log_term $ output_term $ gc_term $ cores_arg $ size_arg)

let memcached_cmd =
  let workload_arg =
    Arg.(value & opt string "USR" & info [ "w"; "workload" ] ~doc:"ETC or USR.")
  in
  let rps_arg =
    Arg.(value & opt float 500_000. & info [ "r"; "rps" ] ~doc:"Target requests/second.")
  in
  let run () output () kind fast_path cores workload rps batch =
    let profile = Workloads.Size_dist.by_name workload in
    let s =
      {
        Scenario.default with
        kind;
        cores;
        batch_bound = batch;
        fast_path;
        scale;
        workload = Memcached { profile; target_rps = rps };
      }
    in
    let r = Scenario.run s in
    print_string (Harness.Experiments.telemetry ~output ~label:"" s r);
    Printf.printf
      "%s/%s @%.0fK target: achieved %.0fK RPS, avg %.1f us, p99 %.1f us, kernel %.0f%%\n"
      workload
      (String.lowercase_ascii (Scenario.kind_name kind))
      (rps /. 1e3) (r.ops_per_sec /. 1e3) r.avg_us r.p99_us
      (100. *. r.kernel_share)
  in
  Cmd.v (Cmd.info "memcached" ~doc:"Run one memcached load point (§5.5).")
    Term.(
      const run $ log_term $ output_term $ gc_term $ kind_arg $ fast_path_arg
      $ cores_arg $ workload_arg $ rps_arg $ batch_arg)

let netpipe_cmd =
  let run () () kind fast_path size =
    let r =
      Scenario.run { Scenario.default with kind; fast_path; workload = Netpipe { size } }
    in
    Printf.printf "%s %dB: one-way %.1f us, goodput %.2f Gbps\n"
      (Scenario.kind_name kind) size r.avg_us r.goodput_gbps
  in
  Cmd.v (Cmd.info "netpipe" ~doc:"Run one NetPIPE ping-pong point (§5.2).")
    Term.(const run $ log_term $ gc_term $ kind_arg $ fast_path_arg $ size_arg)

let fig_cmd =
  let module E = Harness.Experiments in
  let fig_names = String.concat ", " (List.map E.figure_name E.figures @ [ "all" ]) in
  let fig_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE"
          ~doc:(Printf.sprintf "Which sweep to regenerate: %s." fig_names))
  in
  let run () output () jobs name =
    match E.select name with
    | Some figures ->
        List.iter (fun f -> print_string (E.render ~output ~scale ~jobs f)) figures
    | None ->
        Printf.eprintf "unknown figure %S (expected one of: %s)\n" name fig_names;
        exit 1
  in
  Cmd.v
    (Cmd.info "fig"
       ~doc:
         "Regenerate one of the paper's figure/table sweeps; independent \
          data points fan out over --jobs worker domains.")
    Term.(const run $ log_term $ output_term $ gc_term $ jobs_arg $ fig_arg)

let chaos_cmd =
  let faults_conv =
    let parse s =
      match Ix_faults.Fault_plan.parse s with
      | Ok spec -> Ok spec
      | Error msg -> Error (`Msg msg)
    in
    let print fmt spec =
      Format.pp_print_string fmt (Ix_faults.Fault_plan.to_string spec)
    in
    Arg.conv (parse, print)
  in
  let faults_arg =
    Arg.(
      value
      & opt faults_conv Ix_faults.Fault_plan.default
      & info [ "f"; "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan, e.g. \
             $(b,drop=0.003,corrupt=0.003,flap=4ms/300us,stall=3ms/200us,crash=0.0005) \
             — or $(b,default) / $(b,none).  Keys: drop, corrupt, truncate, \
             dup, reorder, crash (rates); reorder_delay, doorbell \
             (durations); flap, stall, exhaust (PERIOD/WINDOW durations).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base seed.  A plan is fully determined by (plan, seed): the \
             same invocation reproduces every fault and every metric \
             bit-for-bit, at any --jobs width.")
  in
  let soak_arg =
    Arg.(
      value & opt int 8
      & info [ "soak-ms" ] ~docv:"MS"
          ~doc:"Simulated soak length per leg, with faults armed.")
  in
  let legs_arg =
    Arg.(
      value & opt int 3
      & info [ "legs" ] ~docv:"N"
          ~doc:"Echo legs on distinct seeds (plus one memcached leg).")
  in
  let run () () jobs spec seed soak_ms legs =
    match Harness.Chaos.run ~jobs ~seed ~spec ~soak_ms ~echo_legs:legs () with
    | _ -> ()
    | exception Failure msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak: echo + memcached under a deterministic fault plan \
          (wire mangling, link flaps, ring stalls, mempool exhaustion, \
          handler crashes), ending in an end-of-run invariant audit \
          (frame conservation, close-reason balance, zero leaks).  \
          Exits nonzero if the audit fails.")
    Term.(
      const run $ log_term $ gc_term $ jobs_arg $ faults_arg $ seed_arg
      $ soak_arg $ legs_arg)

let conn_scale_cmd =
  let conns_arg =
    Arg.(
      value & opt int 100_000
      & info [ "conns" ] ~docv:"N" ~doc:"Connections to establish and sustain.")
  in
  let events_arg =
    Arg.(
      value & opt int 200_000
      & info [ "events" ] ~docv:"N"
          ~doc:"Churn events (Zipf-hot messages; every 16th closes a \
                connection and reconnects on the same tuple).")
  in
  let cookies_arg =
    Arg.(
      value & opt fast_path_conv true
      & info [ "syn-cookies" ] ~docv:"on|off"
          ~doc:
            "Listen path: $(b,on) (default) answers SYNs with stateless \
             cookie SYN-ACKs and materializes the TCB on the validated \
             handshake ACK; $(b,off) uses the classic SYN_RCVD state.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Workload seed; the result snapshot is a pure function of it.")
  in
  let flood_arg =
    Arg.(
      value & opt int 0
      & info [ "flood" ] ~docv:"SYNS"
          ~doc:
            "Also run a SYN flood of $(docv) never-completed handshakes \
             against a cookie listener and report its (zero) TCB cost.")
  in
  let run () () fast_path syn_cookies conns events seed flood =
    let module CS = Workloads.Conn_scale in
    let r = CS.run ~syn_cookies ~fast_path ~conns ~events ~seed () in
    Printf.printf
      "conn-scale: %d conns sustained (store %d/%d), %d churn events\n\
      \  established %d, closes %d, reconnects %d, TIME_WAIT live %d\n\
      \  cookies sent/validated/rejected %d/%d/%d, rsts %d\n\
      \  fast/slow path %d/%d, %.1f resident B/conn, minor words/event %.2f\n\
      \  snapshot: %s\n"
      r.CS.r_connection_count r.CS.r_store_live r.CS.r_store_capacity
      r.CS.r_events r.CS.r_established r.CS.r_closes r.CS.r_reconnects
      r.CS.r_time_wait_live r.CS.r_cookies_sent r.CS.r_cookies_validated
      r.CS.r_cookies_rejected r.CS.r_rsts r.CS.r_fast_hits r.CS.r_slow_hits
      r.CS.r_bytes_per_conn r.CS.r_churn_minor_words_per_event
      r.CS.r_snapshot;
    if flood > 0 then begin
      let f = CS.syn_flood ~syns:flood ~seed () in
      Printf.printf
        "syn-flood: %d SYNs -> %d cookies, %d TCBs allocated, %d \
         connections, %.2f minor words/SYN\n"
        f.CS.f_syns f.CS.f_cookies_sent f.CS.f_tcbs_allocated
        f.CS.f_connections f.CS.f_minor_words_per_syn
    end
  in
  Cmd.v
    (Cmd.info "conn-scale"
       ~doc:
         "Million-connection churn: one endpoint sustains --conns \
          connections in the unboxed SoA TCB store under Zipf-hot traffic \
          with server-side closes, TIME_WAIT recycling and same-tuple \
          reconnects.  Reports resident bytes per connection and \
          allocation per event.")
    Term.(
      const run $ log_term $ gc_term $ fast_path_arg $ cookies_arg $ conns_arg
      $ events_arg $ seed_arg $ flood_arg)

let ping_cmd =
  let run () () =
    (* A 2-host IX cluster; thread 0 of the server pings the client. *)
    let server = Harness.Cluster.server_spec ~threads:1 Harness.Cluster.Ix in
    let cluster = Harness.Cluster.build ~client_hosts:1 ~client_threads:1
        ~client_kind:Harness.Cluster.Ix ~server () in
    let host = Option.get cluster.Harness.Cluster.server_ix in
    let dp = Ix_core.Ix_host.dataplane host 0 in
    Ix_core.Dataplane.set_ping_handler dp (fun ~src_ip reply ->
        Printf.printf "reply from %s: icmp_seq=%d time=%.1f us\n"
          (Format.asprintf "%a" Ixnet.Ip_addr.pp src_ip)
          reply.Ixnet.Icmp_packet.seq
          (Engine.Sim_time.to_float_us (Engine.Sim.now cluster.Harness.Cluster.sim)));
    let target = List.hd cluster.Harness.Cluster.client_ips in
    for seq = 1 to 3 do
      Ix_core.Dataplane.ping dp ~dst:target ~ident:1 ~seq
    done;
    Engine.Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Harness.Cluster.sim
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"ICMP echo across the simulated fabric (dataplane ICMP).")
    Term.(const run $ log_term $ gc_term)

let main =
  Cmd.group
    (Cmd.info "ixsim" ~version:"1.0"
       ~doc:"Simulated reproduction of IX (OSDI '14): dataplane OS experiments.")
    [ echo_cmd; breakdown_cmd; memcached_cmd; netpipe_cmd; fig_cmd; chaos_cmd;
      conn_scale_cmd; ping_cmd ]

let () =
  (* 32 MB minor heap (the 256 K-word default forces a minor
     collection — in OCaml 5 a stop-the-world rendezvous across every
     running domain — every couple of milliseconds of simulation).
     The simulations' allocation rate is low, so a larger nursery
     directly cuts collection count. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  exit (Cmd.eval main)
