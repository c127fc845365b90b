(* Trend tests: small-scale versions of the paper's headline claims.
   These run the real experiment harness with short windows (scale
   0.25) and assert orderings and rough factors rather than absolute
   numbers — the same fidelity targets DESIGN.md commits to. *)

module Cluster = Harness.Cluster
module Scenario = Harness.Scenario

let check_bool = Alcotest.(check bool)
let run s = Scenario.run { s with Scenario.scale = 0.25 }

let echo kind ports cores n =
  (run
     {
       Scenario.default with
       kind;
       ports;
       cores;
       workload = Echo { msg_size = 64; msgs_per_conn = n; sessions = 768 };
     })
    .ops_per_sec

(* §5.3: at high n, IX > mTCP > Linux in message rate. *)
let test_throughput_ordering () =
  let ix = echo Cluster.Ix 1 8 128 in
  let mtcp = echo Cluster.Mtcp 1 8 128 in
  let linux = echo Cluster.Linux 1 8 128 in
  check_bool "ix beats mtcp" true (ix > mtcp);
  check_bool "mtcp beats linux" true (mtcp > linux);
  check_bool "ix >= 1.5x mtcp" true (ix > 1.5 *. mtcp);
  check_bool "ix >= 5x linux" true (ix > 5. *. linux)

(* §5.3: IX approaches the 10GbE line rate for 64B messages (8.8M/s). *)
let test_ix_line_rate () =
  let ix = echo Cluster.Ix 1 8 512 in
  check_bool "within 15% of line rate" true (ix > 7.5e6)

(* §5.3: IX saturates 10GbE with few cores — adding cores beyond ~4
   brings little at n=1 because the wire is the limit. *)
let test_ix_early_saturation () =
  let three = echo Cluster.Ix 1 3 1 in
  let eight = echo Cluster.Ix 1 8 1 in
  check_bool "3 cores already near the 8-core rate" true (three > 0.6 *. eight)

(* §5.3: 4x10GbE scales IX beyond a single port. *)
let test_ix_40g_scaling () =
  let one = echo Cluster.Ix 1 8 512 in
  let four = echo Cluster.Ix 4 8 512 in
  check_bool "bonding adds capacity" true (four > 1.2 *. one)

(* §5.2: unloaded one-way latency ordering (IX < Linux < mTCP). *)
let test_latency_ordering () =
  let one_way kind =
    (run { Scenario.default with kind; workload = Netpipe { size = 64 } }).avg_us
  in
  let ix = one_way Cluster.Ix and linux = one_way Cluster.Linux in
  let mtcp = one_way Cluster.Mtcp in
  check_bool "ix < linux" true (ix < linux);
  check_bool "linux < mtcp" true (linux < mtcp);
  check_bool "ix at least 2.5x better than linux" true (linux > 2.5 *. ix);
  check_bool "mtcp an order of magnitude worse than ix" true (mtcp > 8. *. ix)

(* §6 / Fig. 6: larger batch bounds raise saturated throughput. *)
let echo_with_bound batch_bound =
  (run
     {
       Scenario.default with
       cores = 4;
       batch_bound;
       workload = Echo { msg_size = 64; msgs_per_conn = 64; sessions = 768 };
     })
    .ops_per_sec

let test_batch_bound () =
  let b1 = echo_with_bound 1 in
  let b64 = echo_with_bound 64 in
  check_bool "B=64 beats B=1 at saturation" true (b64 > 1.15 *. b1)

(* §5.5: memcached on IX sustains more load at low latency than Linux. *)
let test_memcached_gap () =
  let profile = Workloads.Size_dist.usr in
  let memcached kind cores =
    run
      {
        Scenario.default with
        kind;
        cores;
        workload = Memcached { profile; target_rps = 500e3 };
      }
  in
  let ix = memcached Cluster.Ix 6 and linux = memcached Cluster.Linux 8 in
  check_bool "both achieve the moderate target" true
    (ix.ops_per_sec > 400e3 && linux.ops_per_sec > 400e3);
  check_bool "ix p99 well below linux p99" true (ix.p99_us *. 2. < linux.p99_us);
  check_bool "linux mostly kernel time" true (linux.kernel_share > 0.6);
  check_bool "ix mostly application time" true (ix.kernel_share < 0.5)

(* §5.4: throughput falls once connection state outgrows the L3. *)
let test_connection_count_decline () =
  let rate conns =
    (run
       {
         Scenario.default with
         cores = 8;
         ports = 4;
         workload = Conn_scaling { conns; workers = 384 };
       })
      .ops_per_sec
  in
  let peak = rate 1_000 and big = rate 100_000 in
  check_bool "decline at high connection counts" true (big < 0.85 *. peak);
  check_bool "but still a large fraction of peak" true (big > 0.3 *. peak)

let () =
  Alcotest.run "trends"
    [
      ( "echo",
        [
          Alcotest.test_case "throughput ordering" `Slow test_throughput_ordering;
          Alcotest.test_case "ix line rate" `Slow test_ix_line_rate;
          Alcotest.test_case "early core saturation" `Slow test_ix_early_saturation;
          Alcotest.test_case "4x10GbE scaling" `Slow test_ix_40g_scaling;
        ] );
      ("netpipe", [ Alcotest.test_case "latency ordering" `Slow test_latency_ordering ]);
      ("batching", [ Alcotest.test_case "B sweep" `Slow test_batch_bound ]);
      ("memcached", [ Alcotest.test_case "ix vs linux" `Slow test_memcached_gap ]);
      ( "connections",
        [ Alcotest.test_case "L3 decline" `Slow test_connection_count_decline ] );
    ]
