(* Tests for lib/telemetry: the metrics registry, the per-thread cycle
   tracer and its Chrome trace_event exporter — plus the end-to-end
   acceptance checks: a 64 B echo's per-stage breakdown sums to the
   cores' busy time, and all three stacks answer the portable metrics /
   close-reason API.  The log-linear histogram has its own suite,
   test_log_hist. *)

module Metrics = Ixtelemetry.Metrics
module Tracer = Ixtelemetry.Tracer
module Trace_export = Ixtelemetry.Trace_export
module Net_api = Netapi.Net_api
module Cluster = Harness.Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Metrics registry ---------------- *)

let test_missing_reads_zero () =
  let t = Metrics.create () in
  check_int "absent counter reads 0" 0 (Metrics.counter_value t "no.such.counter");
  Alcotest.(check (float 0.)) "absent gauge reads 0." 0. (Metrics.gauge_value t "no.such.gauge");
  (* Reads never create metrics. *)
  check_int "registry still empty" 0 (List.length (Metrics.snapshot t))

let test_counters_and_hierarchy () =
  let t = Metrics.create () in
  let rx = Metrics.counter t "dataplane.0.rx_pkts" in
  let db = Metrics.counter t "nic.1.q3.doorbells" in
  Metrics.incr rx;
  Metrics.add rx 9;
  Metrics.incr db;
  check_int "cell value" 10 (Metrics.value rx);
  check_int "by name" 10 (Metrics.counter_value t "dataplane.0.rx_pkts");
  (* Re-registering returns the same cell. *)
  Metrics.incr (Metrics.counter t "dataplane.0.rx_pkts");
  check_int "same cell" 11 (Metrics.value rx);
  let snap = Metrics.snapshot t in
  let names = List.map fst snap in
  Alcotest.(check (list string))
    "snapshot sorted by hierarchical name"
    [ "dataplane.0.rx_pkts"; "nic.1.q3.doorbells" ]
    names;
  check_int "snap_counter" 11 (Metrics.snap_counter snap "dataplane.0.rx_pkts");
  (* Prefix filtering: component boundary, not string prefix. *)
  ignore (Metrics.counter t "nic.1.rx_frames");
  ignore (Metrics.counter t "nic.10.rx_frames");
  let under = Metrics.snapshot ~prefix:"nic.1" t in
  Alcotest.(check (list string))
    "prefix respects dot boundaries"
    [ "nic.1.q3.doorbells"; "nic.1.rx_frames" ]
    (List.map fst under)

let test_kind_mismatch_raises () =
  let t = Metrics.create () in
  ignore (Metrics.counter t "x.y");
  let raised =
    try
      ignore (Metrics.histogram t "x.y");
      false
    with Invalid_argument _ -> true
  in
  check_bool "histogram over counter name raises" true raised;
  let raised_g =
    try
      Metrics.set_gauge t "x.y" 1.0;
      false
    with Invalid_argument _ -> true
  in
  check_bool "gauge over counter name raises" true raised_g

let test_probe_gauges () =
  let t = Metrics.create () in
  let level = ref 0.25 in
  Metrics.probe t "kernel_share" (fun () -> !level);
  Alcotest.(check (float 1e-9)) "probe sampled" 0.25 (Metrics.gauge_value t "kernel_share");
  level := 0.75;
  Alcotest.(check (float 1e-9))
    "probe re-sampled at snapshot" 0.75
    (Metrics.snap_gauge (Metrics.snapshot t) "kernel_share")

(* ---------------- Cycle tracer ---------------- *)

let test_tracer_ordering () =
  let tr = Tracer.create ~capacity:64 ~thread:3 () in
  Tracer.span tr Tracer.Rx_driver ~start:0 ~stop:100;
  Tracer.span tr Tracer.Tcp_in ~start:100 ~stop:400;
  Tracer.span tr Tracer.Tcp_in ~start:400 ~stop:400 (* zero-length: dropped *);
  Tracer.span tr Tracer.User_phase ~start:400 ~stop:650;
  check_int "zero-length spans dropped" 3 (Tracer.recorded tr);
  let spans = Tracer.spans tr in
  check_bool "oldest first, non-decreasing starts" true
    (List.for_all2
       (fun (a : Tracer.span) (b : Tracer.span) -> a.Tracer.start <= b.Tracer.start)
       (List.filteri (fun i _ -> i < List.length spans - 1) spans)
       (List.tl spans));
  check_int "busy is the span sum" 650 (Tracer.busy_ns tr);
  let ns_of stage =
    let _, ns, _ = List.find (fun (s, _, _) -> s = stage) (Tracer.breakdown tr) in
    ns
  in
  check_int "tcp-in total" 300 (ns_of Tracer.Tcp_in);
  check_int "idle stage present at zero" 0 (ns_of Tracer.Timer)

let test_tracer_ring_wrap () =
  let tr = Tracer.create ~capacity:4 ~thread:0 () in
  for i = 0 to 9 do
    Tracer.span tr Tracer.Syscall ~start:(i * 10) ~stop:((i * 10) + 5)
  done;
  check_int "all-time recorded" 10 (Tracer.recorded tr);
  check_int "only capacity retained" 4 (List.length (Tracer.spans tr));
  (* Retained window is the most recent spans, oldest first. *)
  (match Tracer.spans tr with
  | first :: _ -> check_int "window starts at span 6" 60 first.Tracer.start
  | [] -> Alcotest.fail "no spans retained");
  (* Totals survive the wrap: all 10 spans counted. *)
  check_int "totals cover wrapped spans" 50 (Tracer.busy_ns tr);
  let _, ns, n =
    List.find (fun (s, _, _) -> s = Tracer.Syscall) (Tracer.breakdown tr)
  in
  check_int "stage ns" 50 ns;
  check_int "stage count" 10 n

(* ---------------- Chrome trace_event export ---------------- *)

(* Minimal scanner for the exporter's fixed-shape JSON: the i-th
   occurrence of each key belongs to the i-th event. *)
let occurrences json needle =
  let n = String.length json and m = String.length needle in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub json i m = needle then go (i + m) ((i + m) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let numbers_after json key =
  List.map
    (fun start ->
      let stop = ref start in
      while
        !stop < String.length json
        && (match json.[!stop] with
           | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string (String.sub json start (!stop - start)))
    (occurrences json ("\"" ^ key ^ "\":"))

let run_small_ix_echo () =
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster = Cluster.build ~seed:5 ~client_hosts:1 ~client_threads:2 ~server () in
  Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
  let stats = Apps.Echo.new_stats () in
  Apps.Echo.client
    (List.hd cluster.Cluster.clients)
    ~now:(Cluster.now cluster) ~thread:0 ~server_ip:cluster.Cluster.server_ip
    ~port:7 ~msg_size:64 ~msgs_per_conn:64 ~stats
    ~stop_after:(Engine.Sim_time.ms 5);
  Engine.Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Cluster.sim;
  (cluster, stats)

let test_trace_export () =
  let cluster, stats = run_small_ix_echo () in
  check_bool "echo made progress" true (stats.Apps.Echo.messages > 0);
  let host = Option.get cluster.Cluster.server_ix in
  let tracers = Ix_core.Ix_host.tracers host in
  let json = Trace_export.to_json tracers in
  check_bool "wrapped in traceEvents" true
    (String.length json > 16
    && String.sub json 0 16 = "{\"traceEvents\":["
    && String.sub json (String.length json - 2) 2 = "]}");
  let n_events =
    List.fold_left (fun acc tr -> acc + List.length (Tracer.spans tr)) 0 tracers
  in
  check_bool "spans were recorded" true (n_events > 0);
  check_int "one X event per retained span" n_events
    (List.length (occurrences json "\"ph\":\"X\""));
  let ts = numbers_after json "ts"
  and dur = numbers_after json "dur"
  and tid = numbers_after json "tid" in
  check_int "ts per event" n_events (List.length ts);
  check_int "dur per event" n_events (List.length dur);
  check_int "tid per event" n_events (List.length tid);
  List.iter
    (fun d -> check_bool "durations positive" true (d > 0.))
    dur;
  (* Within each thread's track, complete events appear in time order. *)
  let last = Hashtbl.create 4 in
  List.iter2
    (fun tid ts ->
      let prev = try Hashtbl.find last tid with Not_found -> neg_infinity in
      check_bool "timestamps monotonic per tid" true (ts >= prev);
      Hashtbl.replace last tid ts)
    tid ts;
  (* write_file produces the same bytes. *)
  let path = Filename.temp_file "ixtrace" ".json" in
  Trace_export.write_file path tracers;
  let ic = open_in_bin path in
  let from_file = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file matches to_json" json from_file

(* ---------------- Table-2-style breakdown (acceptance) ---------------- *)

let test_echo_breakdown_sums_to_busy () =
  let rows, busy, _ =
    Harness.Experiments.echo_breakdown ~output:Harness.Experiments.default_output ~cores:2
      ~msg_size:64 ~scale:1.0
  in
  let total = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 rows in
  check_bool "server did work" true (busy > 0);
  check_int "per-stage breakdown sums to total busy ns" busy total;
  let ns_of stage =
    let _, ns, _ = List.find (fun (s, _, _) -> s = stage) rows in
    ns
  in
  (* The run-to-completion steps that must show up for an echo load. *)
  List.iter
    (fun stage ->
      check_bool
        (Printf.sprintf "stage %s nonzero" (Tracer.stage_name stage))
        true
        (ns_of stage > 0))
    [
      Tracer.Rx_driver; Tracer.Tcp_in; Tracer.Event_delivery; Tracer.User_phase;
      Tracer.Syscall; Tracer.Timer; Tracer.Tx_driver; Tracer.Crossing;
    ]

(* ---------------- Portable stack API ---------------- *)

let test_stack_metrics_portable () =
  List.iter
    (fun (kind, counter_prefix) ->
      let server = Cluster.server_spec ~threads:2 kind in
      let cluster =
        Cluster.build ~seed:9 ~client_hosts:1 ~client_threads:2 ~server ()
      in
      Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
      let stats = Apps.Echo.new_stats () in
      Apps.Echo.client
        (List.hd cluster.Cluster.clients)
        ~now:(Cluster.now cluster) ~thread:0
        ~server_ip:cluster.Cluster.server_ip ~port:7 ~msg_size:64
        ~msgs_per_conn:32 ~stats ~stop_after:(Engine.Sim_time.ms 5);
      Engine.Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Cluster.sim;
      let snap = cluster.Cluster.server.Net_api.metrics () in
      check_bool (counter_prefix ^ ": snapshot non-empty") true (snap <> []);
      check_bool (counter_prefix ^ ": has own hierarchical counters") true
        (List.exists
           (fun (name, v) ->
             (match v with Metrics.Counter n -> n > 0 | _ -> false)
             && String.length name > String.length counter_prefix
             && String.sub name 0 (String.length counter_prefix) = counter_prefix)
           snap);
      (* Shared TCP engine counters surface through the same registry. *)
      check_bool (counter_prefix ^ ": tcp counters present") true
        (List.exists
           (fun (name, _) ->
             String.length name > 4 && String.sub name 0 4 = "tcp.")
           snap);
      let kshare = Net_api.kernel_share cluster.Cluster.server in
      check_bool (counter_prefix ^ ": kernel share in [0,1]") true
        (kshare >= 0. && kshare <= 1.);
      check_bool (counter_prefix ^ ": busy_ns positive") true
        (Net_api.busy_ns cluster.Cluster.server > 0))
    [ (Cluster.Ix, "dataplane."); (Cluster.Linux, "linux."); (Cluster.Mtcp, "mtcp.") ]

let test_close_reasons_portable () =
  List.iter
    (fun kind ->
      let name = match kind with
        | Cluster.Ix -> "ix" | Cluster.Linux -> "linux" | Cluster.Mtcp -> "mtcp"
      in
      let server = Cluster.server_spec ~threads:1 kind in
      let cluster =
        Cluster.build ~seed:3 ~client_hosts:1 ~client_threads:1
          ~client_kind:kind ~server ()
      in
      let reasons = ref [] in
      cluster.Cluster.server.Net_api.listen ~port:9100 (fun ~thread:_ _conn ->
          {
            Net_api.null_handlers with
            Net_api.on_closed =
              (fun _ reason -> reasons := reason :: !reasons);
          });
      let connect_then after =
        cluster.Cluster.clients |> List.hd |> fun client ->
        client.Net_api.connect ~thread:0 ~ip:cluster.Cluster.server_ip
          ~port:9100
          {
            Net_api.null_handlers with
            Net_api.on_connected =
              (fun conn ~ok ->
                if ok then begin
                  ignore (conn.Net_api.send "ping");
                  after conn
                end);
          }
      in
      (* Orderly client close -> server observes Normal. *)
      connect_then (fun conn -> conn.Net_api.close ());
      Engine.Sim.run ~until:(Engine.Sim_time.ms 50) cluster.Cluster.sim;
      Alcotest.(check (list string))
        (name ^ ": orderly close reports Normal")
        [ "normal" ]
        (List.map Net_api.close_reason_name !reasons);
      (* Client RST -> server observes Reset. *)
      reasons := [];
      connect_then (fun conn -> conn.Net_api.abort ());
      Engine.Sim.run ~until:(Engine.Sim_time.ms 100) cluster.Cluster.sim;
      Alcotest.(check (list string))
        (name ^ ": abort reports Reset")
        [ "reset" ]
        (List.map Net_api.close_reason_name !reasons))
    [ Cluster.Ix; Cluster.Linux; Cluster.Mtcp ]

(* ---------------- counter registry ---------------- *)

let test_counter_registry () =
  (* The counter idiom: register one cell by name, update it in place. *)
  let t = Metrics.create () in
  let c = Metrics.counter t "a.b" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "cell reads back" 5 (Metrics.counter_value t "a.b");
  check_int "missing reads 0" 0 (Metrics.counter_value t "nope");
  Alcotest.(check (list (pair string int)))
    "snapshot filtered to counters"
    [ ("a.b", 5) ]
    (List.filter_map
       (fun (name, v) ->
         match v with Metrics.Counter n -> Some (name, n) | _ -> None)
       (Metrics.snapshot t))

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "missing reads zero" `Quick test_missing_reads_zero;
          Alcotest.test_case "hierarchy + sorting" `Quick test_counters_and_hierarchy;
          Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
          Alcotest.test_case "probe gauges" `Quick test_probe_gauges;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "span ordering" `Quick test_tracer_ordering;
          Alcotest.test_case "ring wrap" `Quick test_tracer_ring_wrap;
        ] );
      ( "trace export",
        [ Alcotest.test_case "chrome json" `Quick test_trace_export ] );
      ( "breakdown",
        [
          Alcotest.test_case "sums to busy time" `Quick
            test_echo_breakdown_sums_to_busy;
        ] );
      ( "portable api",
        [
          Alcotest.test_case "metrics across stacks" `Quick
            test_stack_metrics_portable;
          Alcotest.test_case "close reasons across stacks" `Quick
            test_close_reasons_portable;
        ] );
      ( "counter registry",
        [ Alcotest.test_case "counters" `Quick test_counter_registry ] );
    ]
