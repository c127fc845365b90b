(* The parallel harness's determinism invariant: fanning a figure's
   independent data points over a domain pool (jobs=4) must produce
   bit-identical results to the sequential path (jobs=1) — same seeds,
   same points, same order.  Runs reduced slices of fig2/fig4/fig5 both
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

let test_perf_slices () =
  (* The bench perf harness's own invariant, in miniature: the metric
     snapshots of the perf slices must not depend on whether the slices
     run sequentially or concurrently on separate domains. *)
  let slices =
    List.filteri
      (fun i _ -> i < 2)
      (List.map
         (fun slice () -> (slice ()).E.perf_snapshot)
         (E.perf_slices ~smoke:true ~scale:0.05 ~fast_path:true))
  in
  let seq = List.map (fun f -> f ()) slices in
  let par = Engine.Domain_pool.map_jobs ~jobs:2 slices in
  bit_identical "perf snapshots" seq par

let () =
  Alcotest.run "determinism"
    [
      ( "parallel-vs-sequential",
        [
          Alcotest.test_case "fig2 reduced slice" `Quick test_fig2;
          Alcotest.test_case "fig4 reduced slice" `Quick test_fig4;
          Alcotest.test_case "fig5 reduced slice" `Quick test_fig5;
          Alcotest.test_case "perf slice snapshots" `Quick test_perf_slices;
        ] );
    ]
