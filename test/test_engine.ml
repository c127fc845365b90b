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

(* The first 16 values of [int], [float] and [exponential] on three
   streams, as the generator produced them when its state was a boxed
   Int64 field: keeping the state unboxed must not move one bit of any
   stream.  [int] draws
   below [max_int] show all 62 bits; floats are compared bit for bit. *)
let rng_pins =
  [
    ( "seed 1",
      (fun () -> Rng.create ~seed:1),
      [|
        3457603482011350492; 1717361541646166673; 2021227762714211881;
        4400086718694418251; 931835874657720878; 2747494643000335897;
        2101864950107900286; 857522058586991323; 1452024965492620143;
        4068567495939744465; 2375297743655821729; 2460862104762392994;
        4255540332154841467; 930770776204252489; 714345195597446422;
        2518289453620838583
      |],
      [|
        0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
        0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
        0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
        0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
        0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
        0x1.179617532576p-1
      |],
      [|
        0x1.26ee23d6d010fp-2; 0x1.f9c17f684222bp-1; 0x1.a657c56a05e58p-1;
        0x1.80c5b384c277bp-5; 0x1.9964a74cdfa0ep+0; 0x1.092ab8acb2f48p-1;
        0x1.92503fa86e09cp-1; 0x1.aeab564cbdea9p+0; 0x1.27d7a8201a9fcp+0;
        0x1.009e9f90382a3p-3; 0x1.53b26f57477e3p-1; 0x1.4193ef7bf5e67p-1;
        0x1.4933eb387a9b5p-4; 0x1.99af9ace945abp+0; 0x1.dd6f7e059a478p+0;
        0x1.35c458f9ebee9p-1
      |] );
    ( "split of seed 1",
      (fun () -> Rng.split (Rng.create ~seed:1)),
      [|
        4339281941979455995; 3647782827937566540; 1287045426741897101;
        499113739298992400; 517105313538641634; 1857107341709267943;
        3067904507744927115; 3952271325676424628; 95938736210558539;
        2314287987013651342; 4535755030132713672; 3939981898128335761;
        68421102638273490; 3060667603501723667; 3756409486428728109;
        3401637106404764046
      |],
      [|
        0x1.e1c1cf7c5f9fp-1; 0x1.94fc393de7e87p-1; 0x1.1dc80ff1ebde6p-2;
        0x1.bb4d534b5bbcp-4; 0x1.cb4822bf3c038p-4; 0x1.9c5c549b459d2p-2;
        0x1.549b1729a7a5ep-1; 0x1.b6ca4ea5373e6p-1; 0x1.54d7c5b407bep-6;
        0x1.00f0054cef385p-1; 0x1.f791e958fa034p-1; 0x1.b56d054a9b451p-1;
        0x1.e62942bbca24p-7; 0x1.53cd67c112218p-1; 0x1.a10b94346bef5p-1;
        0x1.79a85767b0594p-1
      |],
      [|
        0x1.f2c456e4554d2p-5; 0x1.e033e52a77463p-3; 0x1.46b7f239f78abp+0;
        0x1.1c9c22008d6dap+1; 0x1.1813bbfedfc0ap+1; 0x1.d1b39c046600fp-1;
        0x1.a16191f4bf3c9p-2; 0x1.3c0341e57a739p-3; 0x1.efb2a24cb1ecap+1;
        0x1.610505d36ed8dp-1; 0x1.1001ac7c9a157p-6; 0x1.42640cb089a29p-3;
        0x1.0d7b938eb4f07p+2; 0x1.a3ccac97c645ep-2; 0x1.a41b2af538a72p-3;
        0x1.37a40a6ce9c13p-2
      |] );
    ( "seed 42",
      (fun () -> Rng.create ~seed:42),
      [|
        2749113066540076570; 739554815828047797; 767374426118319285;
        221479889520321091; 4523206237176398889; 1084310982420964528;
        1288224301085851122; 705096088656582996; 3508032700170470195;
        1124334894917578461; 3525383132830741061; 4086949034143292357;
        4150417550033776723; 370735096921512237; 175046579690018138;
        3938296023606899261
      |],
      [|
        0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
        0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
        0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
        0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
        0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
        0x1.b53d1af09b619p-1
      |],
      [|
        0x1.08dd891c79e19p-1; 0x1.d48e9111d715cp+0; 0x1.cb1a8e17c467bp+0;
        0x1.849c348ce2ecep+1; 0x1.3d65e08d2698ep-6; 0x1.72991c2fd9938p+0;
        0x1.467bf21a47d0ap+0; 0x1.e0c5927234f96p+0; 0x1.181a60d02dadap-2;
        0x1.6951a1f19b6c5p+0; 0x1.130d082b6babdp-2; 0x1.eec6839c8f7efp-4;
        0x1.afa7bd079d33bp-4; 0x1.42ab92e441911p+1; 0x1.a2b9d9990ec86p+1;
        0x1.43446f418ad0fp-3
      |] );
  ]

let test_rng_pinned_streams () =
  let check_bits msg expected actual =
    Alcotest.(check int64) msg (Int64.bits_of_float expected) (Int64.bits_of_float actual)
  in
  List.iter
    (fun (name, make, ints, floats, exps) ->
      let r = make () in
      Array.iteri (fun i v -> check_int (Printf.sprintf "%s: int %d" name i) v (Rng.int r max_int)) ints;
      let r = make () in
      Array.iteri (fun i v -> check_bits (Printf.sprintf "%s: float %d" name i) v (Rng.float r 1.0)) floats;
      let r = make () in
      Array.iteri
        (fun i v -> check_bits (Printf.sprintf "%s: exponential %d" name i) v (Rng.exponential r ~mean:1.0))
        exps)
    rng_pins

(* A draw keeps its state and its result unboxed: 10k of each kind, and
   10k Zipf samples on top of them, allocate nothing. *)
let test_rng_allocates_nothing () =
  let r = Rng.create ~seed:5 and n = 10_000 in
  let ints =
    Alloc_gate.none "words over 10k int draws" (fun () ->
        let acc = ref 0 in
        for _ = 1 to n do
          acc := !acc + Rng.int r 1_000
        done;
        !acc)
  in
  let floats =
    Alloc_gate.none "words over 10k float draws" (fun () ->
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. Rng.float r 1.0
        done;
        int_of_float !acc)
  in
  let exps =
    Alloc_gate.none "words over 10k exponential draws" (fun () ->
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. Rng.exponential r ~mean:1.0
        done;
        int_of_float !acc)
  in
  let zipf = Workloads.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let ranks =
    Alloc_gate.none "words over 10k Zipf samples" (fun () ->
        let acc = ref 0 in
        for _ = 1 to n do
          acc := !acc + Workloads.Zipf.sample zipf r
        done;
        !acc)
  in
  check_bool "the draws ran" true (ints > 0 && floats > 0 && exps > 0 && ranks >= n)

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
          Alcotest.test_case "streams keep their pinned values" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws and Zipf samples allocate nothing" `Quick
            test_rng_allocates_nothing;
        ] );
    ]
