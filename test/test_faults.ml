(* The fault-injection subsystem's contract, end to end:

   - the plan language round-trips ([parse (to_string s) = s]) and
     rejects malformed input with errors, not exceptions;
   - a chaos leg is fully determined by [(spec, seed)]: the same seed
     reproduces the full-precision metric snapshot byte-for-byte, with
     faults armed, for both workloads;
   - fanning legs over a domain pool (jobs=4) is bit-identical to the
     sequential path (jobs=1);
   - the end-of-run invariant audit passes across a wide seed sweep —
     no seed's particular interleaving of drops, flaps, stalls,
     exhaustions and handler crashes leaks an mbuf, loses a frame from
     the conservation ledger, or escapes containment;
   - a mempool driven to exhaustion and back never raises: counted
     failures while empty, full service after recovery. *)

module FP = Ix_faults.Fault_plan
module Chaos = Harness.Chaos
module Mempool = Ixmem.Mempool
module Mbuf = Ixmem.Mbuf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- Plan syntax ---------------- *)

let test_parse_named () =
  check_bool "none" true (FP.parse "none" = Ok FP.none);
  check_bool "empty = none" true (FP.parse "" = Ok FP.none);
  check_bool "default" true (FP.parse "default" = Ok FP.default);
  check_string "none prints as none" "none" (FP.to_string FP.none)

let test_default_roundtrip () =
  match FP.parse (FP.to_string FP.default) with
  | Ok spec -> check_bool "default round-trips" true (spec = FP.default)
  | Error e -> Alcotest.failf "default round-trip failed: %s" e

let test_parse_durations () =
  match FP.parse "flap=4ms/300us,doorbell=5us,reorder_delay=50000" with
  | Error e -> Alcotest.failf "duration parse failed: %s" e
  | Ok spec ->
      check_int "ms period" 4_000_000 spec.FP.flap_period_ns;
      check_int "us window" 300_000 spec.FP.flap_down_ns;
      check_int "us duration" 5_000 spec.FP.doorbell_delay_ns;
      check_int "bare ns" 50_000 spec.FP.reorder_delay_ns

let expect_error what s =
  match FP.parse s with
  | Ok _ -> Alcotest.failf "%s: %S parsed but should be rejected" what s
  | Error _ -> ()

let test_parse_errors () =
  expect_error "unknown key" "explode=0.5";
  expect_error "rate above 1" "drop=1.5";
  expect_error "negative rate" "drop=-0.1";
  expect_error "rate not a float" "drop=often";
  expect_error "missing value" "drop";
  expect_error "window without slash" "flap=4ms";
  expect_error "window >= period" "flap=1ms/1ms";
  expect_error "zero period" "stall=0ns/0ns";
  expect_error "bad duration unit" "doorbell=5furlongs"

(* Specs drawn from short decimal rates and exact integer durations:
   [to_string] prints rates with %g, and a double parsed from a short
   decimal re-prints to that same decimal, so round-trips are exact. *)
let spec_gen =
  let open QCheck.Gen in
  let rate = map (fun k -> float_of_int k /. 1000.) (int_bound 999) in
  let dur = map (fun k -> 1 + k) (int_bound 10_000_000) in
  let window =
    oneof
      [
        return (0, 0);
        (int_range 2 10_000_000 >>= fun p ->
         int_range 1 (p - 1) >>= fun w -> return (p, w));
      ]
  in
  rate >>= fun drop_rate ->
  rate >>= fun corrupt_rate ->
  rate >>= fun truncate_rate ->
  rate >>= fun duplicate_rate ->
  rate >>= fun reorder_rate ->
  dur >>= fun reorder_delay_ns ->
  window >>= fun (flap_period_ns, flap_down_ns) ->
  window >>= fun (stall_period_ns, stall_ns) ->
  window >>= fun (exhaust_period_ns, exhaust_ns) ->
  dur >>= fun doorbell_delay_ns ->
  rate >>= fun app_crash_rate ->
  rate >>= fun hostile_rst_rate ->
  rate >>= fun hostile_syn_rate ->
  rate >>= fun hostile_olddup_rate ->
  rate >>= fun hostile_ack_rate ->
  return
    {
      FP.drop_rate;
      corrupt_rate;
      truncate_rate;
      duplicate_rate;
      reorder_rate;
      reorder_delay_ns;
      flap_period_ns;
      flap_down_ns;
      stall_period_ns;
      stall_ns;
      exhaust_period_ns;
      exhaust_ns;
      doorbell_delay_ns;
      app_crash_rate;
      hostile_rst_rate;
      hostile_syn_rate;
      hostile_olddup_rate;
      hostile_ack_rate;
    }

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"parse (to_string spec) = spec" ~count:200
    (QCheck.make ~print:FP.to_string spec_gen)
    (fun spec ->
      match FP.parse (FP.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

(* ---------------- Determinism with faults armed ---------------- *)

(* Short soaks: these tests are about byte equality and audit outcomes,
   not soak coverage (`ixsim chaos --soak-ms 20` runs the long soak). *)

let test_echo_leg_deterministic () =
  let a = Chaos.echo_leg ~seed:5 ~soak_ms:3 () in
  let b = Chaos.echo_leg ~seed:5 ~soak_ms:3 () in
  check_string "echo: same seed, byte-identical snapshot" a.Chaos.snapshot
    b.Chaos.snapshot;
  let c = Chaos.echo_leg ~seed:6 ~soak_ms:3 () in
  check_bool "echo: different seed, different run" true
    (a.Chaos.snapshot <> c.Chaos.snapshot)

let test_memcached_leg_deterministic () =
  let a = Chaos.memcached_leg ~seed:5 ~spec:FP.default ~soak_ms:3 () in
  let b = Chaos.memcached_leg ~seed:5 ~spec:FP.default ~soak_ms:3 () in
  check_string "memcached: same seed, byte-identical snapshot"
    a.Chaos.snapshot b.Chaos.snapshot

let test_jobs_bit_identical () =
  let snaps legs = List.map (fun l -> l.Chaos.snapshot) legs in
  let seq = Chaos.run ~jobs:1 ~seed:11 ~soak_ms:3 ~quiet:true () in
  let par = Chaos.run ~jobs:4 ~seed:11 ~soak_ms:3 ~quiet:true () in
  check_bool "jobs=4 bit-identical to jobs=1" true (snaps seq = snaps par)

let test_faults_actually_fire () =
  (* The default cocktail on a soak this short must still inject
     something on the wire — otherwise the determinism checks above
     would be vacuous. *)
  let leg = Chaos.echo_leg ~seed:5 ~soak_ms:3 () in
  check_bool "wire losses occurred" true (leg.Chaos.wire_losses > 0);
  check_bool "messages still flowed" true (leg.Chaos.messages > 0)

(* ---------------- Zero-copy wire path, pinned ---------------- *)

(* NICs transmit borrowed, refcounted views over the sender's mbuf,
   which must be observationally invisible.  A copy path (every NIC
   snapshotting frames at transmit) used to be kept alongside to prove
   it: its snapshots matched the borrow path's byte for byte, faults
   armed.  golden/faults.expected holds the full-precision borrow-path
   snapshots for the fixed seeds under the default cocktail, checked
   equal to the copy path's when they were pinned.  Re-pins since then
   moved only host CPU accounting, no frame or wire counter, so the
   equivalence still holds. *)

let pinned_seeds = [ 3; 7; 17; 23 ]
let snapshot seed () = (Chaos.echo_leg ~seed ~soak_ms:3 ()).Chaos.snapshot
let snapshots = lazy (List.map (fun seed -> snapshot seed ()) pinned_seeds)

let test_zero_copy_pinned () =
  List.iter2
    (fun seed snap -> Golden.record (Printf.sprintf "echo leg, seed %d" seed) snap)
    pinned_seeds (Lazy.force snapshots)

let test_zero_copy_cow_fires () =
  (* Guard against vacuity: under the default cocktail the soak must
     actually mangle frames in flight, so the pinned snapshots cover
     the COW branch and not just clean forwarding. *)
  let leg = Chaos.echo_leg ~seed:7 ~soak_ms:3 () in
  check_bool "faults fired" true (leg.Chaos.wire_losses > 0)

let test_zero_copy_pinned_jobs4 () =
  (* The borrow path holds refcounts across link-propagation events;
     fan the pinned legs over 4 domains to show each snapshot survives
     domain-parallel execution. *)
  let par = Engine.Domain_pool.map_jobs ~jobs:4 (List.map snapshot pinned_seeds) in
  Alcotest.(check (list string)) "jobs=4 snapshots = jobs=1" (Lazy.force snapshots) par

(* ---------------- The audit, across seeds ---------------- *)

let test_audit_seed_sweep () =
  (* 25 seeds x (echo + memcached) = 50 audited legs.  Every one must
     drain clean: conservation ledgers balanced, no leaked mbufs, no
     surviving flows, every crash contained, every close accounted. *)
  for seed = 0 to 24 do
    let check (leg : Chaos.leg) =
      if leg.Chaos.audit_failures <> [] then
        Alcotest.failf "seed %d, %s:\n  %s" seed leg.Chaos.leg_name
          (String.concat "\n  " leg.Chaos.audit_failures)
    in
    check (Chaos.echo_leg ~seed ~soak_ms:3 ());
    check (Chaos.memcached_leg ~seed ~spec:FP.default ~soak_ms:3 ())
  done

(* ---------------- Mempool exhaustion regression ---------------- *)

let test_mempool_empty_and_back () =
  (* Drive a pool to capacity exhaustion and back: while empty, alloc
     returns None and counts a failure — never raises — and after the
     mbufs come back the pool serves at full capacity again. *)
  let pool = Mempool.create ~capacity:64 ~name:"regress" () in
  let live = ref [] in
  for _ = 1 to 64 do
    match Mempool.alloc pool with
    | Some m -> live := m :: !live
    | None -> Alcotest.fail "pool exhausted before capacity"
  done;
  check_int "all live" 64 (Mempool.live_count pool);
  let failures_before = Mempool.stat_failures pool in
  for _ = 1 to 10 do
    match Mempool.alloc pool with
    | None -> ()
    | Some _ -> Alcotest.fail "alloc succeeded past capacity"
  done;
  check_int "denials counted" (failures_before + 10)
    (Mempool.stat_failures pool);
  List.iter Mbuf.decref !live;
  live := [];
  check_int "all returned" 0 (Mempool.live_count pool);
  (* Recovery: the full complement allocates again. *)
  for _ = 1 to 64 do
    match Mempool.alloc pool with
    | Some m -> live := m :: !live
    | None -> Alcotest.fail "pool did not recover after refill"
  done;
  List.iter Mbuf.decref !live

let test_mempool_gate_never_raises () =
  (* The exhaustion-window fault path: a closed gate behaves exactly
     like an empty pool (counted failure, None), and reopening restores
     service with nothing leaked. *)
  let pool = Mempool.create ~capacity:64 ~name:"gated" () in
  let open_gate = ref true in
  Mempool.set_alloc_gate pool (Some (fun () -> !open_gate));
  (match Mempool.alloc pool with
  | Some m -> Mbuf.decref m
  | None -> Alcotest.fail "gate open but alloc failed");
  open_gate := false;
  let failures_before = Mempool.stat_failures pool in
  for _ = 1 to 5 do
    match Mempool.alloc pool with
    | None -> ()
    | Some _ -> Alcotest.fail "alloc succeeded through a closed gate"
  done;
  check_int "gated denials counted" (failures_before + 5)
    (Mempool.stat_failures pool);
  open_gate := true;
  (match Mempool.alloc pool with
  | Some m -> Mbuf.decref m
  | None -> Alcotest.fail "pool did not recover after the gate reopened");
  Mempool.set_alloc_gate pool None;
  check_int "nothing leaked" 0 (Mempool.live_count pool)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Golden.run "faults"
    [
      ( "plan-syntax",
        [
          Alcotest.test_case "named plans" `Quick test_parse_named;
          Alcotest.test_case "default round-trips" `Quick test_default_roundtrip;
          Alcotest.test_case "duration units" `Quick test_parse_durations;
          Alcotest.test_case "malformed plans rejected" `Quick test_parse_errors;
          qt prop_spec_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "echo leg same-seed identical" `Quick
            test_echo_leg_deterministic;
          Alcotest.test_case "memcached leg same-seed identical" `Quick
            test_memcached_leg_deterministic;
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Quick
            test_jobs_bit_identical;
          Alcotest.test_case "faults actually fire" `Quick
            test_faults_actually_fire;
        ] );
      ( "zero-copy",
        [
          Alcotest.test_case "pinned borrow-path digests" `Quick
            test_zero_copy_pinned;
          Alcotest.test_case "COW branch is exercised" `Quick
            test_zero_copy_cow_fires;
          Alcotest.test_case "pinned digests at jobs=4" `Quick
            test_zero_copy_pinned_jobs4;
        ] );
      ( "audit",
        [ Alcotest.test_case "50-leg seed sweep drains clean" `Quick test_audit_seed_sweep ] );
      ( "mempool",
        [
          Alcotest.test_case "empty and back, never raises" `Quick
            test_mempool_empty_and_back;
          Alcotest.test_case "alloc gate, never raises" `Quick
            test_mempool_gate_never_raises;
        ] );
    ]
