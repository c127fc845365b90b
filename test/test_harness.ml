(* Tests for the experiment harness: report formatting, testbed
   construction invariants, the CLIs' environment parsing and pinned
   figure output. *)

module Cluster = Harness.Cluster
module E = Harness.Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Report ---------------- *)

let test_report_alignment () =
  let text =
    Harness.Report.table ~title:"t"
      ~headers:[ "a"; "long-header"; "c" ]
      [ [ "xxxxxxxx"; "1"; "2" ]; [ "y"; "22"; "333" ] ]
  in
  let lines = String.split_on_char '\n' text in
  let rows = List.filter (fun l -> String.length l > 0 && l.[0] <> '=') lines in
  (* All printed rows share one width (trailing pad included). *)
  match rows with
  | header :: rule :: data ->
      check_bool "rule matches header width" true
        (String.length rule >= String.length (String.trim header));
      List.iter
        (fun row -> check_bool "row no wider than content demands" true (String.length row < 80))
        data
  | _ -> Alcotest.fail "expected header + rule"

let test_report_formatters () =
  Alcotest.(check string) "mps" "3.81M" (Harness.Report.mps 3_810_000.);
  Alcotest.(check string) "kps" "1550K" (Harness.Report.kps 1_550_000.);
  Alcotest.(check string) "pct" "75.0%" (Harness.Report.pct 0.75);
  Alcotest.(check string) "us" "5.7" (Harness.Report.us 5.7)

(* ---------------- Cluster ---------------- *)

let test_cluster_shapes () =
  let server = Cluster.server_spec ~threads:4 ~nic_ports:4 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:3 ~client_threads:2 ~server () in
  check_int "client stacks" 3 (List.length cluster.Cluster.clients);
  check_int "client ips" 3 (List.length cluster.Cluster.client_ips);
  check_int "bonded server ports" 4 (Array.length cluster.Cluster.server_nics);
  check_int "one rx link per port" 4 (List.length cluster.Cluster.server_rx_links);
  check_bool "ix server exposed" true (Option.is_some cluster.Cluster.server_ix);
  check_int "no drops at rest" 0 (Cluster.server_rx_drops cluster);
  Alcotest.(check (pair int int)) "no marks or drops at rest" (0, 0)
    (Cluster.server_link_stats cluster);
  (* Bonded NIC ports share one MAC (802.3ad). *)
  let macs =
    Array.to_list (Array.map Ixhw.Nic.mac cluster.Cluster.server_nics)
    |> List.sort_uniq compare
  in
  check_int "single bond MAC" 1 (List.length macs)

let test_cluster_kinds () =
  List.iter
    (fun kind ->
      let server = Cluster.server_spec ~threads:2 kind in
      let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
      check_bool "stack name set" true
        (String.length cluster.Cluster.server.Netapi.Net_api.name > 0);
      check_int "capacity surface" 2 (Netapi.Net_api.capacity cluster.Cluster.server);
      check_int "live = capacity when static" 2
        (Netapi.Net_api.live_threads cluster.Cluster.server))
    [ Cluster.Ix; Cluster.Linux; Cluster.Mtcp ]

let test_mtcp_rejects_bonding () =
  let server = Cluster.server_spec ~threads:2 ~nic_ports:4 Cluster.Mtcp in
  Alcotest.check_raises "mTCP cannot bond (§5.1)"
    (Invalid_argument "Mtcp_stack.create: mTCP does not support NIC bonding")
    (fun () -> ignore (Cluster.build ~client_hosts:1 ~client_threads:1 ~server ()))

let test_deterministic_runs () =
  (* Identical seeds must give bit-identical experiment outcomes. *)
  let run () =
    let server = Cluster.server_spec ~threads:2 Cluster.Ix in
    let cluster = Cluster.build ~seed:123 ~client_hosts:1 ~client_threads:1 ~server () in
    Apps.Echo.server cluster.Cluster.server ~port:7 ~msg_size:64 ~app_ns:100;
    let stats = Apps.Echo.new_stats () in
    Apps.Echo.client
      (List.hd cluster.Cluster.clients)
      ~now:(Cluster.now cluster) ~thread:0 ~server_ip:cluster.Cluster.server_ip
      ~port:7 ~msg_size:64 ~msgs_per_conn:64 ~stats
      ~stop_after:(Engine.Sim_time.ms 5);
    Engine.Sim.run ~until:(Engine.Sim_time.ms 10) cluster.Cluster.sim;
    ( stats.Apps.Echo.messages,
      Ixtelemetry.Log_hist.percentile stats.Apps.Echo.latency 99.,
      Engine.Sim.events_executed cluster.Cluster.sim )
  in
  let a = run () and b = run () in
  check_bool "bit-identical outcome" true (a = b)

(* ---------------- Environment settings ---------------- *)

let result = Alcotest.(result (float 0.) string)
let is_error = function Ok _ -> false | Error _ -> true

let test_parse_scale () =
  Alcotest.check result "plain" (Ok 0.5) (E.parse_scale "0.5");
  Alcotest.check result "padded" (Ok 2.) (E.parse_scale " 2 ");
  Alcotest.check result "raised to the 0.05 floor" (Ok 0.05) (E.parse_scale "0.01");
  List.iter
    (fun bad -> check_bool (Printf.sprintf "%S rejected" bad) true (is_error (E.parse_scale bad)))
    [ "abc"; ""; "1x"; "0"; "-1"; "nan"; "inf" ]

let test_parse_jobs () =
  Alcotest.(check (result int string)) "plain" (Ok 2) (E.parse_jobs "2");
  List.iter
    (fun bad -> check_bool (Printf.sprintf "%S rejected" bad) true (is_error (E.parse_jobs bad)))
    [ "abc"; ""; "1.5"; "0"; "-3" ]

let test_env_names_variable () =
  let contains hay needle =
    let n = String.length needle in
    let rec at i = i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let env_error name value =
    Unix.putenv name value;
    let r = E.env () in
    Unix.putenv name "1";
    match r with
    | Error msg -> check_bool (name ^ " named in the error") true (contains msg name)
    | Ok _ -> Alcotest.failf "%s=%s accepted" name value
  in
  env_error "IX_BENCH_SCALE" "abc";
  env_error "IX_BENCH_JOBS" "0";
  Alcotest.(check (result (pair (float 0.) int) string)) "both set" (Ok (0.25, 3))
    (Unix.putenv "IX_BENCH_SCALE" "0.25";
     Unix.putenv "IX_BENCH_JOBS" "3";
     E.env ())

(* ---------------- Pinned figure output ---------------- *)

(* MD5 digests of figure text at scale 0.05.  Any change to a scenario,
   a runner or a formatter that moves a printed digit shows up here;
   re-record a digest only for an intended change of that figure. *)
let check_digest what expected text =
  Alcotest.(check string) what expected (Digest.to_hex (Digest.string text))

let figure name =
  match E.select name with Some [ f ] -> f | _ -> Alcotest.failf "no figure %s" name

let render name = E.render ~output:E.default_output ~scale:0.05 ~jobs:1 (figure name)

let test_golden_fig2_prefix () =
  match figure "fig2" with
  | E.Sweep sweep ->
      let points = List.filteri (fun i _ -> i < 3) (sweep.points ~scale:0.05) in
      check_digest "fig2, first three points" "f06fde4b51075e7447b9a87903efcc6d"
        (sweep.table (List.map (fun (l, s) -> (l, s, Harness.Scenario.run s)) points))
  | E.Single _ -> Alcotest.fail "fig2 is a sweep"

let test_golden_batch_sweep () =
  check_digest "batch-sweep" "06a2c9ab8d375f4527346ee524f92ddd" (render "batch-sweep")

let test_golden_elastic () =
  check_digest "elastic" "c0d98f640c9d1829092d3ac772b503ae" (render "elastic")

let test_golden_breakdown () =
  check_digest "breakdown" "15315530e56753e11324cba87dcc85ec" (render "breakdown")

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "alignment" `Quick test_report_alignment;
          Alcotest.test_case "formatters" `Quick test_report_formatters;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "shapes" `Quick test_cluster_shapes;
          Alcotest.test_case "all kinds build" `Quick test_cluster_kinds;
          Alcotest.test_case "mtcp bonding rejected" `Quick test_mtcp_rejects_bonding;
          Alcotest.test_case "determinism" `Quick test_deterministic_runs;
        ] );
      ( "env",
        [
          Alcotest.test_case "IX_BENCH_SCALE values" `Quick test_parse_scale;
          Alcotest.test_case "IX_BENCH_JOBS values" `Quick test_parse_jobs;
          Alcotest.test_case "error names the variable" `Quick test_env_names_variable;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fig2 prefix" `Quick test_golden_fig2_prefix;
          Alcotest.test_case "batch-sweep" `Quick test_golden_batch_sweep;
          Alcotest.test_case "elastic" `Quick test_golden_elastic;
          Alcotest.test_case "breakdown" `Quick test_golden_breakdown;
        ] );
    ]
