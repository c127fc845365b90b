(* The parallel harness's determinism invariant: fanning a figure's
   independent data points over a domain pool (jobs=4) must produce
   bit-identical results to the sequential path (jobs=1) — same seeds,
   same points, same order.  Runs reduced slices of fig2/fig4/fig5 at
   jobs=4, and of batch-sweep, conn-scale and migration at jobs=2, both
   ways and compares with structural equality at full float precision.

   [Stdlib.compare x y = 0] rather than [=]: netpipe points carry NaN
   when a transfer misses the horizon, and NaN <> NaN would mask a real
   comparison. *)

module E = Harness.Experiments
module Scenario = Harness.Scenario

let check_bool = Alcotest.(check bool)

let bit_identical what a b =
  check_bool (what ^ ": parallel run bit-identical to sequential") true
    (Stdlib.compare a b = 0)

(* A reduced slice of one figure's own points, at tiny windows (this
   test is about equality, not model fidelity), run both ways; the
   whole result records are compared, telemetry included. *)
let check_figure name keep =
  let points =
    match List.find (fun f -> E.figure_name f = name) E.figures with
    | E.Sweep sweep -> List.filter (fun (_, s) -> keep s) (sweep.points ~scale:0.05)
    | E.Single _ -> Alcotest.fail "expected a sweep"
  in
  let thunks = List.map (fun (_, s) () -> Scenario.run s) points in
  check_bool "slice not empty" true (thunks <> []);
  bit_identical name
    (Engine.Domain_pool.map_jobs ~jobs:1 thunks)
    (Engine.Domain_pool.map_jobs ~jobs:4 thunks)

let test_fig2 () =
  check_figure "fig2" (fun s ->
      match s.workload with Netpipe { size } -> List.mem size [ 1_024; 16_384 ] | _ -> false)

let test_fig4 () =
  check_figure "fig4" (fun s ->
      match s.workload with Conn_scaling { conns; _ } -> conns <= 1_000 | _ -> false)

let test_fig5 () =
  check_figure "fig5" (fun s ->
      match s.workload with
      | Memcached { profile; target_rps } ->
          profile == Workloads.Size_dist.usr && target_rps = 100e3
      | _ -> false)

(* The other smoke-size slices, all in one jobs=2 batch so different
   kinds run side by side on separate domains: the three batch-sweep
   modes, the self-clocked million-connection churn workload and a live
   flow-group migration.  Each thunk returns its event count and a
   full-precision snapshot. *)
let test_smoke_slices () =
  let batch (key, batch_bound, batch_mode) () =
    let r =
      Scenario.run
        { Scenario.default with scale = 0.05; cores = 2; client_hosts = 2; client_threads = 4;
          batch_bound; batch_mode; workload = Echo { msg_size = 64; msgs_per_conn = 8; sessions = 96 } }
    in
    ( r.events,
      Printf.sprintf "%s:msgs_per_sec=%.17g,p99_us=%.17g,mean_batch=%.17g,mean_tx_burst=%.17g,bound=%d"
        key r.ops_per_sec r.p99_us r.mean_batch r.mean_tx_burst r.batch_bound_end )
  in
  let conn_scale () =
    let module CS = Workloads.Conn_scale in
    let r = CS.run ~syn_cookies:true ~conns:2_000 ~events:6_000 () in
    (r.CS.r_client_segs, r.CS.r_snapshot)
  in
  let thunks =
    List.map batch
      [
        ("b1", 1, Ix_core.Batch.Fixed);
        ("b64", 64, Ix_core.Batch.Fixed);
        ("adaptive", 8, Ix_core.Batch.Adaptive { floor = 1; ceiling = 64 });
      ]
    @ [ conn_scale; (fun () -> Migration_run.run ~fast_path:true) ]
  in
  let seq = List.map (fun f -> f ()) thunks in
  List.iter (fun (events, snapshot) -> check_bool (snapshot ^ ": ran events") true (events > 0)) seq;
  bit_identical "smoke slices" seq (Engine.Domain_pool.map_jobs ~jobs:2 thunks)

let () =
  Alcotest.run "determinism"
    [
      ( "parallel-vs-sequential",
        [
          Alcotest.test_case "fig2 reduced slice" `Quick test_fig2;
          Alcotest.test_case "fig4 reduced slice" `Quick test_fig4;
          Alcotest.test_case "fig5 reduced slice" `Quick test_fig5;
          Alcotest.test_case "smoke slices at jobs=2" `Quick test_smoke_slices;
        ] );
    ]
