(* Tests for the hierarchical timing wheel. *)

module Wheel = Timerwheel.Timer_wheel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let tick = Wheel.default_tick_ns

let test_fires_at_deadline () =
  let w = Wheel.create ~now:0 () in
  let fired_at = ref (-1) in
  ignore (Wheel.schedule w ~deadline:(10 * tick) (fun () -> fired_at := Wheel.now w));
  Wheel.advance w ~now:(9 * tick);
  check_int "not yet" (-1) !fired_at;
  Wheel.advance w ~now:(10 * tick);
  check_int "fired at its tick" (10 * tick) !fired_at

let test_cancel () =
  let w = Wheel.create ~now:0 () in
  let fired = ref false in
  let timer = Wheel.schedule w ~deadline:(5 * tick) (fun () -> fired := true) in
  Wheel.cancel w timer;
  check_int "pending drops at cancel" 0 (Wheel.pending w);
  check_int "tombstone still resident" 1 (Wheel.stats w).Wheel.resident.(0);
  Wheel.advance w ~now:(6 * tick);
  check_bool "cancelled did not fire" false !fired;
  check_int "still none pending" 0 (Wheel.pending w)

let test_past_deadline_fires_next_tick () =
  let w = Wheel.create ~now:(100 * tick) () in
  let fired = ref false in
  ignore (Wheel.schedule w ~deadline:0 (fun () -> fired := true));
  Wheel.advance w ~now:(101 * tick);
  check_bool "past deadline fired promptly" true !fired

let test_long_range_cascade () =
  let w = Wheel.create ~now:0 () in
  (* Far enough to sit two levels up. *)
  let deadline = 300 * 300 * tick in
  let fired_at = ref (-1) in
  ignore (Wheel.schedule w ~deadline (fun () -> fired_at := Wheel.now w));
  Wheel.advance w ~now:(deadline - tick);
  check_int "not early" (-1) !fired_at;
  Wheel.advance w ~now:(deadline + tick);
  check_bool "fired on time (within a tick)" true
    (abs (!fired_at - deadline) <= tick)

let test_high_resolution () =
  (* 16 us resolution: two timers 16 us apart must fire separately. *)
  let w = Wheel.create ~now:0 () in
  let log = ref [] in
  ignore (Wheel.schedule w ~deadline:16_000 (fun () -> log := 1 :: !log));
  ignore (Wheel.schedule w ~deadline:32_000 (fun () -> log := 2 :: !log));
  Wheel.advance w ~now:16_000;
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  Wheel.advance w ~now:32_000;
  Alcotest.(check (list int)) "then second" [ 1; 2 ] (List.rev !log)

let test_next_expiry_bound () =
  let w = Wheel.create ~now:0 () in
  check_int "no timers" Wheel.no_expiry (Wheel.next_expiry w);
  ignore (Wheel.schedule w ~deadline:(7 * tick) ignore);
  check_bool "bound not after deadline" true (Wheel.next_expiry w <= 7 * tick)

let test_reschedule_in_callback () =
  let w = Wheel.create ~now:0 () in
  let count = ref 0 in
  let rec again () =
    incr count;
    if !count < 5 then
      ignore (Wheel.schedule w ~deadline:(Wheel.now w + tick) again)
  in
  ignore (Wheel.schedule w ~deadline:tick again);
  Wheel.advance w ~now:(10 * tick);
  check_int "periodic rescheduling" 5 !count

let prop_timers_fire_in_order =
  QCheck.Test.make ~name:"timers fire in nondecreasing deadline order" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 64) (int_range 1 100_000))
    (fun deadlines_ticks ->
      let w = Wheel.create ~now:0 () in
      let fired = ref [] in
      List.iter
        (fun d ->
          let deadline = d * tick in
          ignore (Wheel.schedule w ~deadline (fun () -> fired := deadline :: !fired)))
        deadlines_ticks;
      Wheel.advance w ~now:(101_000 * tick);
      let order = List.rev !fired in
      List.length order = List.length deadlines_ticks
      && order = List.sort compare order)

let prop_all_fire_exactly_once =
  QCheck.Test.make ~name:"every armed timer fires exactly once" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (int_range 1 70_000))
    (fun deadlines_ticks ->
      let w = Wheel.create ~now:0 () in
      let count = ref 0 in
      List.iter
        (fun d ->
          ignore (Wheel.schedule w ~deadline:(d * tick) (fun () -> incr count)))
        deadlines_ticks;
      Wheel.advance w ~now:(80_000 * tick);
      !count = List.length deadlines_ticks && Wheel.pending w = 0)

let prop_cancelled_never_fire =
  QCheck.Test.make ~name:"cancelled timers never fire" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 1 10_000) bool))
    (fun specs ->
      let w = Wheel.create ~now:0 () in
      let bad = ref false in
      List.iter
        (fun (d, cancel) ->
          let timer =
            Wheel.schedule w ~deadline:(d * tick) (fun () -> if cancel then bad := true)
          in
          if cancel then Wheel.cancel w timer)
        specs;
      Wheel.advance w ~now:(20_000 * tick);
      not !bad)

(* ---------------- pooled cells ---------------- *)

let test_stale_cancel_after_reuse () =
  let w = Wheel.create ~now:0 () in
  let a = Wheel.schedule w ~deadline:tick ignore in
  Wheel.advance w ~now:tick;
  (* [a] fired and its cell went back to the pool; [b] reuses it. *)
  let fired = ref false in
  let _b = Wheel.schedule w ~deadline:(3 * tick) (fun () -> fired := true) in
  Wheel.cancel w a;
  check_int "stale cancel left the new timer armed" 1 (Wheel.pending w);
  check_int "nothing counted as cancelled" 0 (Wheel.stats w).Wheel.cancelled;
  Wheel.advance w ~now:(3 * tick);
  check_bool "reused cell's timer fired" true !fired;
  (* Same for a cancelled handle whose tombstone was reclaimed. *)
  let c = Wheel.schedule w ~deadline:(4 * tick) ignore in
  Wheel.cancel w c;
  Wheel.advance w ~now:(4 * tick);
  let fired = ref false in
  let _d = Wheel.schedule w ~deadline:(6 * tick) (fun () -> fired := true) in
  Wheel.cancel w c;
  Wheel.cancel w Wheel.null;
  Wheel.advance w ~now:(6 * tick);
  check_bool "second reuse fired" true !fired

(* The TCP re-arm pattern — cancel and re-schedule a cached closure on
   every ACK — plus a one-shot that fires each tick, in steady state. *)
let test_rearm_allocates_nothing () =
  let w = Wheel.create ~now:0 () in
  let fires = ref 0 in
  let action () = incr fires in
  let rearmed = ref Wheel.null in
  let step () =
    Wheel.cancel w !rearmed;
    rearmed := Wheel.schedule w ~deadline:(Wheel.now w + (4 * tick)) action;
    ignore (Wheel.schedule w ~deadline:(Wheel.now w + tick) action);
    Wheel.advance w ~now:(Wheel.now w + tick)
  in
  for _ = 1 to 1_000 do
    step ()
  done;
  let fired_before = !fires in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    step ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k re-arms" 0. words;
  check_int "every one-shot fired" 10_000 (!fires - fired_before)

(* Three timers over 10^6 ticks, one [advance]: the wheel visits the
   three occupied slots and the 3,906 lap boundaries it must tick for
   cascades, not a million empty slots. *)
let sparse_span = 1_000_000
let sparse_deadlines = [ 1_000; 500_000; sparse_span - 1 ]

(* Recursive rather than [List.iter], so arming allocates no closure. *)
let rec arm_sparse w action = function
  | [] -> ()
  | d :: rest ->
      ignore (Wheel.schedule w ~deadline:(Wheel.now w + (d * tick)) action);
      arm_sparse w action rest

(* The same schedule stepped one tick per [advance]: a step onto an
   empty slot that is no boundary is skipped, so the visits match one
   long jump's. *)
let stepped_visits () =
  let w = Wheel.create ~now:0 () in
  arm_sparse w ignore sparse_deadlines;
  for t = 1 to sparse_span do
    Wheel.advance w ~now:(t * tick)
  done;
  (Wheel.stats w).Wheel.slot_visits

let test_sparse_advance_visits () =
  let w = Wheel.create ~now:0 () in
  let fired = ref [] in
  arm_sparse w (fun () -> fired := (Wheel.now w / tick) :: !fired) sparse_deadlines;
  Wheel.advance w ~now:(sparse_span * tick);
  Alcotest.(check (list int)) "each fired at its tick" sparse_deadlines (List.rev !fired);
  let visits = (Wheel.stats w).Wheel.slot_visits in
  let bound = List.length sparse_deadlines + (sparse_span / 256) in
  if visits > bound then
    Alcotest.failf "visited %d level-0 slots over %d ticks (bound %d)" visits sparse_span bound;
  check_int "every level-1 and level-2 boundary still cascades"
    ((sparse_span / 256) + (sparse_span / 65_536))
    (Wheel.stats w).Wheel.cascades;
  check_int "one-tick steps visit what one jump visits" visits (stepped_visits ())

let test_sparse_advance_allocates_nothing () =
  let w = Wheel.create ~now:0 () in
  let fires = ref 0 in
  let action () = incr fires in
  let span () =
    arm_sparse w action sparse_deadlines;
    Wheel.advance w ~now:(Wheel.now w + (sparse_span * tick))
  in
  span ();
  let before = Gc.minor_words () in
  for _ = 1 to 3 do
    span ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over three sparse spans" 0. words;
  check_int "every timer fired" 12 !fires

(* 256 armed level-0 timers, one or two in every slot ahead, each
   re-arming itself 255 ticks on when it fires: timer [i] is due at
   ticks [1 + (i mod 255) + 255k].  Each round cancels the timers of
   the next slot, leaving a tombstone-only slot the query must rescan
   and pass over, queries, re-arms them, queries again and advances one
   tick, which reclaims the tombstones. *)
let test_next_expiry_allocates_nothing () =
  let w = Wheel.create ~now:0 () in
  let timers = Array.make 256 Wheel.null in
  let actions = Array.make 256 ignore in
  Array.iteri
    (fun i _ ->
      actions.(i) <-
        (fun () -> timers.(i) <- Wheel.schedule w ~deadline:(Wheel.now w + (255 * tick)) actions.(i)))
    actions;
  Array.iteri (fun i a -> timers.(i) <- Wheel.schedule w ~deadline:((1 + (i mod 255)) * tick) a) actions;
  let rearm i c = timers.(i) <- Wheel.schedule w ~deadline:((c + 1) * tick) actions.(i) in
  let round () =
    let c = Wheel.now w / tick in
    let j = c mod 255 in
    Wheel.cancel w timers.(j);
    if j = 0 then Wheel.cancel w timers.(255);
    ignore (Wheel.next_expiry w);
    rearm j c;
    if j = 0 then rearm 255 c;
    ignore (Wheel.next_expiry w);
    Wheel.advance w ~now:((c + 1) * tick)
  in
  for _ = 1 to 1_000 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 20k queries" 0. words;
  check_int "still 256 armed" 256 (Wheel.pending w);
  check_int "tombstones reclaimed" 256 (Array.fold_left ( + ) 0 (Wheel.stats w).Wheel.resident)

(* A list-based reference wheel: per-slot OCaml lists, LIFO placement,
   [List.rev] at slot visit, cascades in list order, cancelled entries
   left in place.  The pooled wheel must fire in exactly its order. *)
module Ref_wheel = struct
  type timer = { deadline : int; action : unit -> unit; mutable armed : bool }

  type t = {
    lists : timer list array array;
    mutable current : int;
    mutable live : int;
  }

  let bits = 8
  let n = 1 lsl bits
  let levels = 4
  let create () = { lists = Array.init levels (fun _ -> Array.make n []); current = 0; live = 0 }

  let place t tm =
    let delta = max 1 (tm.deadline - t.current) in
    let rec level l span =
      if delta < span * n || l = levels - 1 then l else level (l + 1) (span * n)
    in
    let l = level 0 1 in
    let slot = (tm.deadline lsr (bits * l)) land (n - 1) in
    t.lists.(l).(slot) <- tm :: t.lists.(l).(slot)

  let schedule t ~deadline action =
    let d = (deadline + tick - 1) / tick in
    let tm = { deadline = (if d <= t.current then t.current + 1 else d); action; armed = true } in
    place t tm;
    t.live <- t.live + 1;
    tm

  let cancel t tm =
    if tm.armed then begin
      tm.armed <- false;
      t.live <- t.live - 1
    end

  let take t l slot =
    let entries = t.lists.(l).(slot) in
    t.lists.(l).(slot) <- [];
    entries

  let step t =
    t.current <- t.current + 1;
    let l = ref 1 in
    while !l < levels && (t.current lsr (bits * (!l - 1))) land (n - 1) = 0 do
      let slot = (t.current lsr (bits * !l)) land (n - 1) in
      List.iter (fun tm -> if tm.armed then place t tm) (take t !l slot);
      incr l
    done;
    List.iter
      (fun tm ->
        if tm.armed then
          if tm.deadline <= t.current then begin
            tm.armed <- false;
            t.live <- t.live - 1;
            tm.action ()
          end
          else place t tm)
      (List.rev (take t 0 (t.current land (n - 1))))

  let advance t ~now =
    let target = now / tick in
    while t.current < target && t.live > 0 do
      step t
    done;
    if t.current < target then t.current <- target

  let now t = t.current * tick

  (* The earliest live level-0 deadline over every list, bounded by the
     next lap boundary: the definition [Wheel.next_expiry] answers
     without the scan. *)
  let next_expiry t =
    if t.live = 0 then Wheel.no_expiry
    else
      let best =
        Array.fold_left
          (List.fold_left (fun acc tm -> if tm.armed then min acc tm.deadline else acc))
          max_int t.lists.(0)
      in
      min best (((t.current lsr bits) + 1) lsl bits) * tick

  let resident t =
    Array.map (Array.fold_left (fun acc l -> acc + List.length l) 0) t.lists
end

(* One op of a random schedule.  [Arm (ticks, ns, child)] arms a timer
   [ticks] ticks (minus [ns]) ahead; when it fires it arms [child]
   ticks ahead in turn.  [Cancel i] cancels the i-th handle ever issued
   (mod the count), fired or not. *)
type op = Arm of int * int * int option | Cancel of int | Advance of int

let pp_op = function
  | Arm (d, ns, c) ->
      Printf.sprintf "Arm(%d,%d,%s)" d ns
        (match c with None -> "-" | Some c -> string_of_int c)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Advance d -> Printf.sprintf "Advance %d" d

let gen_ops =
  let open QCheck.Gen in
  (* Mostly level 0 with many equal deadlines; some level 1 and 2. *)
  let delta =
    frequency
      [ (7, int_range 0 40); (2, int_range 0 600); (1, int_range 0 70_000); (1, int_range 0 100_000) ]
  in
  let child = frequency [ (4, return None); (1, map Option.some delta) ] in
  let op =
    frequency
      [
        (5, map3 (fun d ns c -> Arm (d, ns, c)) delta (int_range 0 (tick - 1)) child);
        (2, map (fun i -> Cancel i) (int_range 0 10_000));
        (* Long jumps cross level-1 boundaries and laps, sometimes a
           level-2 boundary, in one [advance]. *)
        ( 3,
          map
            (fun d -> Advance d)
            (frequency [ (4, int_range 0 8); (1, int_range 0 2_000); (1, int_range 0 150_000) ]) );
      ]
  in
  list_size (int_range 1 120) op

(* Drive a wheel (given as its operations) through [ops], then drain
   it; returns every fire as (timer id, wheel time) in order, plus
   [observe ()] after each op. *)
let run_ops ~schedule ~cancel ~advance ~now ~observe ops =
  let fires = ref [] and states = ref [] in
  let handles = Hashtbl.create 64 in
  let rec arm deadline child =
    let id = Hashtbl.length handles in
    let fire () =
      fires := (id, now ()) :: !fires;
      Option.iter (fun d -> arm (now () + (d * tick)) None) child
    in
    Hashtbl.replace handles id (schedule ~deadline fire)
  in
  List.iter
    (fun op ->
      (match op with
      | Arm (d, ns, child) -> arm (now () + (d * tick) - ns) child
      | Cancel i ->
          let count = Hashtbl.length handles in
          if count > 0 then cancel (Hashtbl.find handles (i mod count))
      | Advance d -> advance (now () + (d * tick)));
      states := observe () :: !states)
    ops;
  advance (now () + (500_000 * tick));
  (List.rev !fires, List.rev !states, observe ())

let print_ops ops = String.concat "; " (List.map pp_op ops)

(* Both wheels through [ops], each observed by its own function. *)
let run_both ops ~observe ~observe_ref =
  let w = Wheel.create ~now:0 () in
  let pooled =
    run_ops ops
      ~schedule:(fun ~deadline f -> Wheel.schedule w ~deadline f)
      ~cancel:(Wheel.cancel w)
      ~advance:(fun now -> Wheel.advance w ~now)
      ~now:(fun () -> Wheel.now w)
      ~observe:(fun () -> observe w)
  in
  let r = Ref_wheel.create () in
  let reference =
    run_ops ops
      ~schedule:(fun ~deadline f -> Ref_wheel.schedule r ~deadline f)
      ~cancel:(Ref_wheel.cancel r)
      ~advance:(fun now -> Ref_wheel.advance r ~now)
      ~now:(fun () -> Ref_wheel.now r)
      ~observe:(fun () -> observe_ref r)
  in
  pooled = reference

let prop_matches_reference_wheel =
  QCheck.Test.make ~name:"pooled wheel fires exactly like a list-based wheel" ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (run_both
       ~observe:(fun w -> (Wheel.pending w, (Wheel.stats w).Wheel.resident))
       ~observe_ref:(fun r -> (r.Ref_wheel.live, Ref_wheel.resident r)))

let prop_next_expiry_matches_full_scan =
  QCheck.Test.make ~name:"next_expiry equals a full scan of the reference wheel" ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (run_both ~observe:Wheel.next_expiry ~observe_ref:Ref_wheel.next_expiry)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "timerwheel"
    [
      ( "wheel",
        [
          Alcotest.test_case "fires at deadline" `Quick test_fires_at_deadline;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "past deadline" `Quick test_past_deadline_fires_next_tick;
          Alcotest.test_case "multi-level cascade" `Quick test_long_range_cascade;
          Alcotest.test_case "16us resolution" `Quick test_high_resolution;
          Alcotest.test_case "next_expiry bound" `Quick test_next_expiry_bound;
          Alcotest.test_case "reschedule in callback" `Quick test_reschedule_in_callback;
          qt prop_timers_fire_in_order;
          qt prop_all_fire_exactly_once;
          qt prop_cancelled_never_fire;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stale cancel after reuse" `Quick test_stale_cancel_after_reuse;
          Alcotest.test_case "re-arm allocates nothing" `Quick test_rearm_allocates_nothing;
          Alcotest.test_case "sparse advance visits few slots" `Quick test_sparse_advance_visits;
          Alcotest.test_case "sparse advance allocates nothing" `Quick
            test_sparse_advance_allocates_nothing;
          Alcotest.test_case "next_expiry allocates nothing" `Quick
            test_next_expiry_allocates_nothing;
          qt prop_matches_reference_wheel;
          qt prop_next_expiry_matches_full_scan;
        ] );
    ]
