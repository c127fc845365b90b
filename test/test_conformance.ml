(* Conformance of the production TCP against the pure-functional model
   ([Ixtcp_model.Model_tcp]): identical segment schedules — with wire
   loss/dup/delay and hostile forgeries — must produce identical
   observable traces with the fast path on and off, plus a negative
   control (a seeded header mutation must be caught) and a jobs-width
   determinism check on the trace digests. *)

module Conformance = Harness.Conformance
module Tcb = Ixtcp.Tcb

(* A hostile batch must reach every hardening branch at least once —
   otherwise the regime proves nothing.  The challenge-ACK limiter never
   trips in these legs; test_tcp's rate-limit case covers it. *)
let hardening_events =
  Tcb.
    [
      Challenge_ack_sent;
      Dsack_sent;
      Rst_accepted;
      Dsack_dupack_ignored;
      Local_abort;
      Tw_rst_dropped;
    ]

let check_hardening_fires ~label reports =
  let fired ev =
    List.exists
      (fun r -> List.mem (Conformance.T_ev ev) r.Conformance.trace_real)
      reports
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s fires" label
           (Conformance.show_tr (Conformance.T_ev ev)))
        true (fired ev))
    hardening_events

let check_legs ~label ~fast_path ~faults ~hostile seeds =
  let reports =
    List.map
      (fun seed ->
        let r = Conformance.run_leg ~seed ~fast_path ~faults ~hostile () in
        (match r.Conformance.detail with
        | Some d ->
            Printf.printf "%s seed=%d diverged:\n%s\n%!" label seed d
        | None -> ());
        Alcotest.(check bool)
          (Printf.sprintf "%s seed=%d trace equality" label seed)
          true r.Conformance.equal;
        Alcotest.(check bool)
          (Printf.sprintf "%s seed=%d non-trivial trace" label seed)
          true
          (r.Conformance.trace_len > 0);
        r)
      seeds
  in
  if hostile then check_hardening_fires ~label reports

let seq_seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* 520 legs across the four regimes x two fast-path settings: the
   acceptance floor is >= 500 random legs with fast path on AND off. *)

let test_clean_fast () =
  check_legs ~label:"clean/fast" ~fast_path:true ~faults:false ~hostile:false
    (seq_seeds 1 40)

let test_clean_slow () =
  check_legs ~label:"clean/slow" ~fast_path:false ~faults:false ~hostile:false
    (seq_seeds 1 40)

let test_faulty_fast () =
  check_legs ~label:"faulty/fast" ~fast_path:true ~faults:true ~hostile:false
    (seq_seeds 100 199)

let test_faulty_slow () =
  check_legs ~label:"faulty/slow" ~fast_path:false ~faults:true ~hostile:false
    (seq_seeds 100 199)

let test_hostile_fast () =
  check_legs ~label:"hostile/fast" ~fast_path:true ~faults:true ~hostile:true
    (seq_seeds 300 369)

let test_hostile_slow () =
  check_legs ~label:"hostile/slow" ~fast_path:false ~faults:true ~hostile:true
    (seq_seeds 300 369)

let test_mutation_caught () =
  (* the first model-emitted header is perturbed: the oracle must
     report inequality, proving the comparator has teeth *)
  let r =
    Conformance.run_leg ~seed:7 ~fast_path:true ~faults:false ~hostile:false
      ~mutate:true ()
  in
  Alcotest.(check bool) "mutated leg diverges" false r.Conformance.equal;
  Alcotest.(check bool)
    "divergence is reported" true
    (r.Conformance.detail <> None)

(* One [seed regime fast_path digest] line per leg, recorded in
   golden/conformance.expected: any change to traced TCP behaviour
   moves a leg's digest, even one the model follows in lockstep, so it
   cannot pass unnoticed.  Re-pin only for an intended behaviour change,
   and name the moved legs. *)
let legs ~seeds ~fast_path ~faults ~hostile ~jobs =
  let regime = if not faults then "clean" else if hostile then "hostile" else "lossy" in
  let mode = if fast_path then "fast" else "slow" in
  Conformance.digest_legs ~seeds ~fast_path ~faults ~hostile ~jobs ()
  |> List.map2 (fun seed d -> Printf.sprintf "%d %s %s %d\n" seed regime mode d) seeds
  |> String.concat ""

let test_jobs_determinism () =
  let legs jobs =
    legs ~seeds:(seq_seeds 500 539) ~fast_path:true ~faults:true ~hostile:true ~jobs
  in
  let lines = legs 1 in
  Alcotest.(check string) "digests identical at jobs=1 and jobs=4" lines (legs 4);
  Golden.record "hostile legs, seeds 500-539" lines

(* Every leg of seeds 0-259 in the three batched regimes, fast path on
   and off: 1,560 legs, any divergence fails [digest_legs]. *)
let test_full_sweep () =
  let seeds = seq_seeds 0 259 in
  Golden.record "full sweep, seeds 0-259"
    (String.concat ""
       (List.concat_map
          (fun (faults, hostile) ->
            List.map
              (fun fast_path -> legs ~seeds ~fast_path ~faults ~hostile ~jobs:1)
              [ true; false ])
          [ (true, false); (true, true); (false, false) ]))

(* A leg that never quiesces fails at the step budget, in well under a
   second.  Seed 212 with a hostile peer and no wire faults is one: two
   TIME_WAIT remnants re-ACK each other's re-ACKs (ROADMAP item 1).
   Fixing the remnant's reply rule turns this case into an equal leg. *)
let test_runaway_leg_fails_fast () =
  match
    Conformance.run_leg ~seed:212 ~fast_path:true ~faults:false ~hostile:true ()
  with
  | _ -> Alcotest.fail "seed 212 quiesced"
  | exception Failure msg ->
      Alcotest.(check string)
        "budget failure" "conformance: leg failed to quiesce within the step budget" msg

let () =
  Golden.run "conformance"
    [
      ( "trace-equality",
        [
          Alcotest.test_case "clean, fast path on" `Quick test_clean_fast;
          Alcotest.test_case "clean, fast path off" `Quick test_clean_slow;
          Alcotest.test_case "lossy wire, fast path on" `Quick
            test_faulty_fast;
          Alcotest.test_case "lossy wire, fast path off" `Quick
            test_faulty_slow;
          Alcotest.test_case "hostile peer, fast path on" `Quick
            test_hostile_fast;
          Alcotest.test_case "hostile peer, fast path off" `Quick
            test_hostile_slow;
        ] );
      ( "oracle-integrity",
        [
          Alcotest.test_case "seeded mutation is caught" `Quick
            test_mutation_caught;
          Alcotest.test_case "digest determinism across jobs" `Quick
            test_jobs_determinism;
          Alcotest.test_case "full sweep, seeds 0-259" `Quick test_full_sweep;
          Alcotest.test_case "a runaway leg fails at the step budget" `Quick
            test_runaway_leg_fails_fast;
        ] );
    ]
