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

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5 i
  done;
  let order = List.init 10 (fun _ -> match Event_queue.pop q with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_queue_peek_len () =
  let q = Event_queue.create () in
  check_bool "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:42 ();
  Alcotest.(check (option int)) "peek" (Some 42) (Event_queue.peek_time q);
  check_int "length" 1 (Event_queue.length q);
  Event_queue.clear q;
  check_bool "cleared" true (Event_queue.is_empty q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> Event_queue.push q ~time time) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, _) -> drain (time :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* Model-based properties: the SoA heap (and the Sim free-list/lazy
   purge built on it) against a naive sorted-list reference. *)

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
            match (Event_queue.pop q, !model) with
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
          match Event_queue.pop q with
          | Some (t, v) when t = mt && v = mv -> ()
          | _ -> ok := false)
        !model;
      !ok && Event_queue.is_empty q)

let prop_queue_compact =
  (* Dropping a random subset via [compact ~keep] must preserve the pop
     order of the survivors. *)
  QCheck.Test.make ~name:"event_queue compact preserves survivor order" ~count:300
    QCheck.(pair (list (pair (int_bound 1_000) bool)) (int_bound 500))
    (fun (entries, pops_before) ->
      let q = Event_queue.create () in
      List.iteri (fun i (time, keep) -> Event_queue.push q ~time (i, keep)) entries;
      (* Pop a random prefix first so compact also runs on heaps whose
         arrays hold stale popped values. *)
      let pops = min pops_before (Event_queue.length q) in
      let popped = ref [] in
      for _ = 1 to pops do
        match Event_queue.pop q with
        | Some (_, v) -> popped := v :: !popped
        | None -> ()
      done;
      let expected =
        (* Reference: kept entries still in the heap, in (time, seq) order. *)
        List.mapi (fun i (time, keep) -> (time, i, keep)) entries
        |> List.filter (fun (_, i, keep) ->
               keep && not (List.exists (fun (j, _) -> j = i) !popped))
        |> List.sort compare
        |> List.map (fun (time, i, _) -> (time, i))
      in
      Event_queue.compact q ~keep:(fun (_, keep) -> keep);
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, (i, _)) -> drain ((time, i) :: acc)
      in
      drain [] = expected)

let prop_sim_cancel_model =
  (* Random schedule/cancel interleavings: exactly the uncancelled
     actions fire, in (time, schedule-order) sequence — including when
     enough cancellations pile up to trigger heap compaction. *)
  QCheck.Test.make ~name:"sim fires exactly the uncancelled events in order"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 400) (pair (int_bound 5_000) (int_bound 3)))
    (fun specs ->
      let sim = Sim.create () in
      let fired = ref [] in
      (* cancel 3 in 4: enough dead entries to cross the >50% lazy-purge
         compaction threshold on larger heaps. *)
      List.iteri
        (fun i (time, cancel_mod) ->
          let handle = Sim.at sim time (fun () -> fired := i :: !fired) in
          if cancel_mod < 3 then begin
            Sim.cancel sim handle;
            (* Double-cancel must be a no-op. *)
            Sim.cancel sim handle
          end)
        specs;
      let live =
        List.mapi (fun i (time, cancel_mod) -> (time, i, cancel_mod >= 3)) specs
        |> List.filter (fun (_, _, keep) -> keep)
        |> List.sort compare
        |> List.map (fun (_, i, _) -> i)
      in
      Sim.run sim;
      List.rev !fired = live)

let prop_sim_cancel_after_fire_inert =
  (* A handle whose event already ran must stay inert even after its
     pooled cell is reused by later schedules. *)
  QCheck.Test.make ~name:"stale sim handles are no-ops" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 100))
    (fun times ->
      let sim = Sim.create () in
      let stale = ref [] in
      List.iter
        (fun time -> stale := Sim.at sim time (fun () -> ()) :: !stale)
        times;
      Sim.run sim;
      (* All fired; cells are back on the free list.  Schedule a second
         wave reusing the cells, then cancel every stale handle. *)
      let fired = ref 0 in
      let wave2 =
        List.map (fun time -> Sim.at sim (200 + time) (fun () -> incr fired)) times
      in
      List.iter (fun h -> Sim.cancel sim h) !stale;
      Sim.run sim;
      ignore wave2;
      !fired = List.length times)

(* ---------------- Sim ---------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 100 (fun () -> log := "b" :: !log));
  ignore (Sim.at sim 50 (fun () -> log := "a" :: !log));
  ignore (Sim.at sim 150 (fun () -> log := "c" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "execution order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 150 (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let handle = Sim.at sim 10 (fun () -> fired := true) in
  Sim.cancel sim handle;
  Sim.run sim;
  check_bool "cancelled event did not fire" false !fired

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.after sim 10 tick)
  in
  ignore (Sim.after sim 10 tick);
  Sim.run ~until:100 sim;
  check_int "ten ticks in 100ns" 10 !count;
  check_int "clock parked at horizon" 100 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let result = ref 0 in
  ignore
    (Sim.at sim 5 (fun () -> ignore (Sim.after sim 5 (fun () -> result := Sim.now sim))));
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
          Alcotest.test_case "peek/length/clear" `Quick test_queue_peek_len;
          qt prop_queue_sorted;
          qt prop_queue_model;
          qt prop_queue_compact;
        ] );
      ( "sim",
        [
          Alcotest.test_case "executes in order" `Quick test_sim_ordering;
          Alcotest.test_case "cancel suppresses event" `Quick test_sim_cancel;
          Alcotest.test_case "run ~until stops at horizon" `Quick test_sim_until;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_schedule;
          qt prop_sim_cancel_model;
          qt prop_sim_cancel_after_fire_inert;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic by seed" `Quick test_rng_determinism;
          Alcotest.test_case "split streams" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ] );
    ]
