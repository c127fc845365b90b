(* Unit and property tests for the discrete-event engine. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Sim_time ---------------- *)

let test_time_units () =
  check_int "us" 1_000 (Sim_time.us 1);
  check_int "ms" 1_000_000 (Sim_time.ms 1);
  check_int "s" 1_000_000_000 (Sim_time.s 1);
  check_int "of_float_us rounds" 1_500 (Sim_time.of_float_us 1.5);
  Alcotest.(check (float 1e-9)) "to_float_us" 2.5 (Sim_time.to_float_us 2_500)

let test_time_pp () =
  let str t = Format.asprintf "%a" Sim_time.pp t in
  check_bool "ns unit" true (String.length (str 12) > 0);
  Alcotest.(check string) "us formatting" "5.70us" (str 5_700)

(* ---------------- Event_queue ---------------- *)

(* Pop the earliest entry as (time, payload), or [None] when empty. *)
let pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.min_time_exn q in
    Some (time, Event_queue.pop_min_exn q)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 3;
  Event_queue.push q ~time:10 1;
  Event_queue.push q ~time:20 2;
  let first = Event_queue.pop_min_exn q in
  let second = Event_queue.pop_min_exn q in
  let third = Event_queue.pop_min_exn q in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5 i
  done;
  let order = List.init 10 (fun _ -> Event_queue.pop_min_exn q) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_queue_min_time_mem () =
  let q = Event_queue.create () in
  check_bool "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:42 0;
  check_int "min time" 42 (Event_queue.min_time_exn q);
  check_bool "queued payload" true (Event_queue.mem q 0);
  check_bool "other payload" false (Event_queue.mem q 1);
  check_int "popped" 0 (Event_queue.pop_min_exn q);
  check_bool "no longer queued" false (Event_queue.mem q 0);
  check_bool "empty again" true (Event_queue.is_empty q);
  Alcotest.check_raises "min time of an empty queue"
    (Invalid_argument "Event_queue.min_time_exn: empty") (fun () ->
      ignore (Event_queue.min_time_exn q))

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> Event_queue.push q ~time i) times;
      let rec drain acc =
        match pop q with
        | None -> List.rev acc
        | Some (time, _) -> drain (time :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* Model-based properties: the SoA heap (and the Sim cell pool and
   wakeups built on it) against a naive sorted-list reference. *)

let prop_queue_model =
  (* Random push/pop interleavings vs a reference list ordered by
     (time, insertion seq). *)
  QCheck.Test.make ~name:"event_queue matches sorted-list model" ~count:300
    QCheck.(list (pair bool (int_bound 1_000)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] (* (time, seq, payload), sorted *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, time) ->
          if is_push then begin
            let payload = !seq in
            Event_queue.push q ~time payload;
            let entry = (time, !seq, payload) in
            incr seq;
            model := List.merge compare !model [ entry ]
          end
          else begin
            match (pop q, !model) with
            | None, [] -> ()
            | Some (t, v), (mt, _, mv) :: rest ->
                if t <> mt || v <> mv then ok := false;
                model := rest
            | Some _, [] | None, _ :: _ -> ok := false
          end)
        ops;
      (* Drain and compare the remainder. *)
      List.iter
        (fun (mt, _, mv) ->
          match pop q with
          | Some (t, v) when t = mt && v = mv -> ()
          | _ -> ok := false)
        !model;
      !ok && Event_queue.is_empty q)

let prop_queue_move_remove =
  (* Random pushes, re-pushes of queued payloads (moves), removals and
     pops over a few payloads, against the same reference: a move drops
     the old entry and adds one with a fresh seq, a removal drops it. *)
  QCheck.Test.make ~name:"event_queue moves and removals match sorted-list model"
    ~count:300
    QCheck.(list (triple (int_bound 3) (int_bound 7) (int_bound 100)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] (* (time, seq, payload), sorted *) in
      let seq = ref 0 in
      let ok = ref true in
      let drop v = List.filter (fun (_, _, mv) -> mv <> v) in
      List.iter
        (fun (op, v, time) ->
          (match op with
          | 0 | 1 ->
              Event_queue.push q ~time v;
              model := List.merge compare (drop v !model) [ (time, !seq, v) ];
              incr seq
          | 2 ->
              Event_queue.remove q v;
              model := drop v !model
          | _ -> (
              match (pop q, !model) with
              | None, [] -> ()
              | Some (t, pv), (mt, _, mv) :: rest ->
                  if t <> mt || pv <> mv then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false));
          for p = 0 to 7 do
            if Event_queue.mem q p <> List.exists (fun (_, _, mv) -> mv = p) !model then
              ok := false
          done)
        ops;
      List.iter
        (fun (mt, _, mv) ->
          match pop q with
          | Some (t, v) when t = mt && v = mv -> ()
          | _ -> ok := false)
        !model;
      !ok && Event_queue.is_empty q)

(* One step of a random [Sim] run: times are relative to now, and [k]
   names one of three wakeups. *)
type sim_op = At of int | Arm of int * int | Disarm of int | Run of int

let sim_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun dt -> At dt) (int_bound 50);
        map2 (fun k dt -> Arm (k, dt)) (int_bound 2) (int_bound 50);
        map (fun k -> Disarm k) (int_bound 2);
        map (fun dt -> Run dt) (int_bound 30);
      ])

let prop_sim_wakeup_model =
  (* Random interleavings of one-shot [at]s, [arm]s of a pending or
     fired wakeup, [disarm]s and partial runs over three wakeups: the
     events fire in the reference's (time, schedule-order) sequence, a
     wakeup at its last armed time.  [pending] agrees with the reference
     after every step, and [events_executed] at the end.  Each event
     records its label: one-shot events count up from 0, wakeup [k] is
     [-(k+1)]. *)
  QCheck.Test.make ~name:"sim wakeups match a sorted-list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) sim_op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let fired = ref [] in
      let wakeups =
        Array.init 3 (fun k -> Sim.wakeup sim (fun () -> fired := -(k + 1) :: !fired))
      in
      let model = ref [] (* (time, seq, label), sorted *) in
      let expected = ref [] in
      let seq = ref 0 and next_id = ref 0 in
      let add time label =
        model := List.merge compare !model [ (time, !seq, label) ];
        incr seq
      in
      let drop label = model := List.filter (fun (_, _, l) -> l <> label) !model in
      let ok = ref true in
      List.iter
        (fun op ->
          let now = Sim.now sim in
          (match op with
          | At dt ->
              let id = !next_id in
              incr next_id;
              Sim.at sim (now + dt) (fun () -> fired := id :: !fired);
              add (now + dt) id
          | Arm (k, dt) ->
              Sim.arm wakeups.(k) (now + dt);
              drop (-(k + 1));
              add (now + dt) (-(k + 1))
          | Disarm k ->
              Sim.disarm wakeups.(k);
              drop (-(k + 1))
          | Run dt ->
              Sim.run ~until:(now + dt) sim;
              let due, later = List.partition (fun (t, _, _) -> t <= now + dt) !model in
              expected := List.rev_append (List.map (fun (_, _, l) -> l) due) !expected;
              model := later);
          Array.iteri
            (fun k w ->
              if Sim.pending w <> List.exists (fun (_, _, l) -> l = -(k + 1)) !model then
                ok := false)
            wakeups)
        ops;
      Sim.run sim;
      let expected = List.rev_append !expected (List.map (fun (_, _, l) -> l) !model) in
      !ok
      && List.rev !fired = expected
      && Sim.events_executed sim = List.length expected)

let prop_sim_rearm_after_fire =
  (* Arming or disarming a wakeup that already fired must touch no other
     event, even once the one-shot cells freed by the same run are
     reused by later schedules. *)
  QCheck.Test.make ~name:"sim arm or disarm after fire touches no other event" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 100))
    (fun times ->
      let sim = Sim.create () in
      let woken = Array.make 3 0 in
      let wakeups =
        Array.init 3 (fun k -> Sim.wakeup sim (fun () -> woken.(k) <- woken.(k) + 1))
      in
      List.iter (fun time -> Sim.at sim time ignore) times;
      Array.iteri (fun k w -> Sim.arm w (List.nth times (k mod List.length times))) wakeups;
      Sim.run sim;
      (* All fired; the one-shot cells are back on the free list.  A
         second wave reuses them, then every wakeup is disarmed and one
         is armed again. *)
      let fired = ref 0 in
      let base = Sim.now sim + 200 in
      List.iter (fun time -> Sim.at sim (base + time) (fun () -> incr fired)) times;
      Array.iter Sim.disarm wakeups;
      Sim.arm wakeups.(1) base;
      Sim.run sim;
      !fired = List.length times && woken = [| 1; 2; 1 |])

(* ---------------- Sim ---------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 100 (fun () -> log := "b" :: !log);
  Sim.at sim 50 (fun () -> log := "a" :: !log);
  Sim.at sim 150 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "execution order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 150 (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let w = Sim.wakeup sim (fun () -> fired := true) in
  Sim.arm w 10;
  check_bool "armed wakeup is pending" true (Sim.pending w);
  Sim.disarm w;
  check_bool "disarmed wakeup is not" false (Sim.pending w);
  Sim.run sim;
  check_bool "disarmed wakeup did not fire" false !fired

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.after sim 10 tick
  in
  Sim.after sim 10 tick;
  Sim.run ~until:100 sim;
  check_int "ten ticks in 100ns" 10 !count;
  check_int "clock parked at horizon" 100 (Sim.now sim)

(* A wakeup disarmed at the head of the queue must not carry [run] past
   its horizon: the event behind it, due later, stays queued and the
   clock parks at the horizon, so a later event cannot move the clock
   backwards. *)
let test_sim_until_skips_disarmed () =
  let sim = Sim.create () in
  let fired = ref false and later = ref (-1) in
  let w = Sim.wakeup sim ignore in
  Sim.arm w 1;
  Sim.at sim 100 (fun () -> fired := true);
  Sim.disarm w;
  Sim.run ~until:10 sim;
  check_bool "event beyond the horizon did not run" false !fired;
  check_int "clock parked at horizon" 10 (Sim.now sim);
  Sim.at sim 50 (fun () -> later := Sim.now sim);
  Sim.run sim;
  check_int "a later event runs at its own time" 50 !later;
  check_bool "then the held-back event" true !fired;
  check_int "clock at last event" 100 (Sim.now sim)

(* The engine loop itself allocates nothing: 10k events that each
   reschedule a cached thunk, drained by [run ~until] with a
   preallocated horizon, allocate no word.  A per-step
   option (peeking the next time) or a per-call [Fun.protect] would
   show up here. *)
let test_sim_run_until_allocates_nothing () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.after sim 1 tick
  in
  Sim.after sim 1 tick;
  (* Warm-up: grow the cell pool and the heap to their steady size. *)
  Sim.run ~until:100 sim;
  let until = Some (Sim.now sim + 10_000) in
  let fired_before = !count in
  Alloc_gate.none "words over 10k events" (fun () -> Sim.run ?until sim);
  check_int "every event ran" 10_000 (!count - fired_before)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let result = ref 0 in
  Sim.at sim 5 (fun () -> Sim.after sim 5 (fun () -> result := Sim.now sim));
  Sim.run sim;
  check_int "nested event at 10" 10 !result

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let xs = List.init 16 (fun _ -> Rng.int a 1000) in
  let ys = List.init 16 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 8 (fun _ -> Rng.int a 1000) in
  let ys = List.init 8 (fun _ -> Rng.int b 1000) in
  check_bool "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "int in bounds" true (v >= 0 && v < 17);
    let f = Rng.float rng 2.5 in
    check_bool "float in bounds" true (f >= 0. && f < 2.5);
    let u = Rng.uniform_range rng ~lo:5 ~hi:9 in
    check_bool "range inclusive" true (u >= 5 && u <= 9)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean within 5%" true (mean > 95. && mean < 105.)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "sim_time",
        [
          Alcotest.test_case "unit conversions" `Quick test_time_units;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "pops in time order" `Quick test_queue_order;
          Alcotest.test_case "FIFO on equal times" `Quick test_queue_fifo_ties;
          Alcotest.test_case "min_time/mem/is_empty" `Quick test_queue_min_time_mem;
          qt prop_queue_sorted;
          qt prop_queue_model;
          qt prop_queue_move_remove;
        ] );
      ( "sim",
        [
          Alcotest.test_case "executes in order" `Quick test_sim_ordering;
          Alcotest.test_case "cancel suppresses event" `Quick test_sim_cancel;
          Alcotest.test_case "run ~until stops at horizon" `Quick test_sim_until;
          Alcotest.test_case "run ~until stops behind a cancelled event" `Quick
            test_sim_until_skips_disarmed;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run ~until allocates nothing" `Quick
            test_sim_run_until_allocates_nothing;
          qt prop_sim_wakeup_model;
          qt prop_sim_rearm_after_fire;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic by seed" `Quick test_rng_determinism;
          Alcotest.test_case "split streams" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
    ]
