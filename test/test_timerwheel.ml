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
  check_int "cancel frees the cell" 0 (Wheel.stats w).Wheel.resident.(0);
  ignore (Wheel.schedule w ~deadline:(5 * tick) ignore);
  check_int "the next schedule reuses the cell" 1 (Wheel.stats w).Wheel.cells;
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

(* A callback cancels a timer due in the same tick that it has not run
   yet: that timer must not fire, and its cell goes back to the pool. *)
let test_cancel_later_in_same_slot () =
  let w = Wheel.create ~now:0 () in
  let later = ref Wheel.null and fired = ref false in
  ignore (Wheel.schedule w ~deadline:(5 * tick) (fun () -> Wheel.cancel w !later));
  later := Wheel.schedule w ~deadline:(5 * tick) (fun () -> fired := true);
  Wheel.advance w ~now:(5 * tick);
  check_bool "cancelled timer did not fire" false !fired;
  check_int "counted as cancelled" 1 (Wheel.stats w).Wheel.cancelled;
  check_int "none pending" 0 (Wheel.pending w);
  ignore (Wheel.schedule w ~deadline:(7 * tick) ignore);
  ignore (Wheel.schedule w ~deadline:(7 * tick) ignore);
  check_int "both cells reused" 2 (Wheel.stats w).Wheel.cells;
  Wheel.cancel w !later;
  check_int "its stale handle is inert" 1 (Wheel.stats w).Wheel.cancelled

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
  (* Same for a cancelled handle, whose cell went straight back. *)
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
  Alloc_gate.none "words over 10k re-arms" (fun () ->
      for _ = 1 to 10_000 do
        step ()
      done);
  check_int "every one-shot fired" 10_000 (!fires - fired_before)

(* Linux clients arm a 200 ms RTO, which sits in level 1, and cancel it
   on the next ACK.  A cancelled timer frees its cell at once, so 100k
   such rounds reuse one cell; a cell left in its slot until the slot
   cascades would grow the pool to the ~12.5k rounds that span. *)
let test_cancel_far_timer_allocates_nothing () =
  let w = Wheel.create ~now:0 () in
  let rto = 200_000_000 in
  let round () =
    Wheel.cancel w (Wheel.schedule w ~deadline:(Wheel.now w + rto) ignore);
    Wheel.advance w ~now:(Wheel.now w + tick)
  in
  for _ = 1 to 1_000 do
    round ()
  done;
  Alloc_gate.none "words over 100k arm/cancel rounds" (fun () ->
      for _ = 1 to 100_000 do
        round ()
      done);
  check_int "one cell" 1 (Wheel.stats w).Wheel.cells

(* Three timers over 10^6 ticks, one [advance]: the wheel stops only
   where work is due, not at a million empty slots or the 3,906 empty
   lap boundaries.  The timer at 1,000 ticks sits in level-1 slot 3 and
   cascades at tick 768.  The one at 500,000 sits in level-2 slot 7: it
   cascades at 458,752 (a level-2 boundary, so the empty level-1 slot 0
   cascades too) into level-1 slot 161, which cascades at 499,968.  The
   one at 999,999 does the same through level-2 slot 15 (983,040) and
   level-1 slot 66 (999,936).  Eight stops, seven cascades. *)
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
  check_int "three deadlines and five cascade ticks visited" 8 visits;
  check_int "cascades only at occupied slots' ticks" 7 (Wheel.stats w).Wheel.cascades;
  check_int "one-tick steps visit what one jump visits" visits (stepped_visits ())

(* A 1 ns wheel, as the conformance driver's real side runs, with one
   timer 2 ms away: the timer sits in level-2 slot 30, so the next tick
   with work is that slot's cascade at 30 * 65,536 ns, not the empty lap
   boundary 256 ns ahead.  [advance] stops there and at the deadline
   only. *)
let test_next_expiry_skips_empty_boundaries () =
  let w = Wheel.create ~tick_ns:1 ~now:0 () in
  let deadline = 2_000_000 in
  let fired_at = ref (-1) in
  ignore (Wheel.schedule w ~deadline (fun () -> fired_at := Wheel.now w));
  check_int "next expiry is the level-2 cascade" (30 * 65_536) (Wheel.next_expiry w);
  Wheel.advance w ~now:(Wheel.next_expiry w);
  check_int "next expiry is the level-1 cascade" (deadline land lnot 255) (Wheel.next_expiry w);
  Wheel.advance w ~now:(Wheel.next_expiry w);
  check_int "next expiry is the deadline" deadline (Wheel.next_expiry w);
  Wheel.advance w ~now:deadline;
  check_int "fired at its deadline" deadline !fired_at;
  check_int "three stops" 3 (Wheel.stats w).Wheel.slot_visits

let test_sparse_advance_allocates_nothing () =
  let w = Wheel.create ~now:0 () in
  let fires = ref 0 in
  let action () = incr fires in
  let span () =
    arm_sparse w action sparse_deadlines;
    Wheel.advance w ~now:(Wheel.now w + (sparse_span * tick))
  in
  span ();
  Alloc_gate.none "words over three sparse spans" (fun () ->
      for _ = 1 to 3 do
        span ()
      done);
  check_int "every timer fired" 12 !fires

(* 256 armed level-0 timers, one or two in every slot ahead, each
   re-arming itself 255 ticks on when it fires: timer [i] is due at
   ticks [1 + (i mod 255) + 255k].  Each round cancels the timers of
   the next slot, leaving it empty for the query to pass over, queries,
   re-arms them, queries again and advances one tick. *)
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
  Alloc_gate.none "words over 20k queries" (fun () ->
      for _ = 1 to 10_000 do
        round ()
      done);
  check_int "still 256 armed" 256 (Wheel.pending w);
  check_int "256 resident" 256 (Array.fold_left ( + ) 0 (Wheel.stats w).Wheel.resident)

(* A list-based reference wheel: per-slot OCaml lists, LIFO placement,
   [List.rev] at slot visit, cascades in list order, cancelled entries
   removed from their list.  The pooled wheel must fire in exactly its
   order and hold exactly its entries on every level. *)
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

  (* An entry cancelled while it waits in the slot being fired is in no
     list; [step] skips it. *)
  let cancel t tm =
    if tm.armed then begin
      tm.armed <- false;
      t.live <- t.live - 1;
      Array.iter (fun lists -> Array.iteri (fun i l -> lists.(i) <- List.filter (( != ) tm) l) lists) t.lists
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
      List.iter (place t) (take t !l slot);
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

  (* The first tick after [current] at which [step] cascades slot
     [slot] of level [l]: a multiple of n^l whose level-[l] digit is
     [slot]. *)
  let rec cascade_tick l slot c =
    let span = 1 lsl (bits * l) in
    if c mod span = 0 && (c / span) land (n - 1) = slot then c
    else cascade_tick l slot (c + span - (c mod span))

  (* The earliest of every live level-0 deadline and the cascade tick of
     every occupied higher-level slot, over every list: the definition
     [Wheel.next_expiry] answers without the scan. *)
  let next_expiry t =
    if t.live = 0 then Wheel.no_expiry
    else
      let best =
        Array.fold_left (List.fold_left (fun acc tm -> min acc tm.deadline)) max_int t.lists.(0)
      in
      let best = ref best in
      for l = 1 to levels - 1 do
        Array.iteri
          (fun slot entries ->
            if entries <> [] then best := min !best (cascade_tick l slot (t.current + 1)))
          t.lists.(l)
      done;
      !best * tick

  let resident t =
    Array.map (Array.fold_left (fun acc l -> acc + List.length l) 0) t.lists
end

(* One op of a random schedule.  [Arm (ticks, ns, follow)] arms a timer
   [ticks] ticks (minus [ns]) ahead; when it fires it does [follow]:
   nothing, arm a child [d] ticks ahead, or cancel the handle issued [k]
   after its own (mod the count) — often a timer due in the same tick
   that has not run yet.  [Cancel i] cancels the i-th handle ever issued
   (mod the count), fired or not. *)
type follow = Stop | Then_arm of int | Then_cancel of int
type op = Arm of int * int * follow | Cancel of int | Advance of int

let pp_op = function
  | Arm (d, ns, f) ->
      Printf.sprintf "Arm(%d,%d,%s)" d ns
        (match f with Stop -> "-" | Then_arm d -> "+" ^ string_of_int d | Then_cancel k -> "x" ^ string_of_int k)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Advance d -> Printf.sprintf "Advance %d" d

let gen_ops =
  let open QCheck.Gen in
  (* Mostly level 0 with many equal deadlines; some level 1 and 2. *)
  let delta =
    frequency
      [ (7, int_range 0 40); (2, int_range 0 600); (1, int_range 0 70_000); (1, int_range 0 100_000) ]
  in
  let follow =
    frequency
      [ (4, return Stop); (1, map (fun d -> Then_arm d) delta); (1, map (fun k -> Then_cancel k) (int_range 1 4)) ]
  in
  let op =
    frequency
      [
        (5, map3 (fun d ns f -> Arm (d, ns, f)) delta (int_range 0 (tick - 1)) follow);
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
  let rec arm deadline follow =
    let id = Hashtbl.length handles in
    let fire () =
      fires := (id, now ()) :: !fires;
      match follow with
      | Stop -> ()
      | Then_arm d -> arm (now () + (d * tick)) Stop
      | Then_cancel k -> cancel (Hashtbl.find handles ((id + k) mod Hashtbl.length handles))
    in
    Hashtbl.replace handles id (schedule ~deadline fire)
  in
  List.iter
    (fun op ->
      (match op with
      | Arm (d, ns, follow) -> arm (now () + (d * tick) - ns) follow
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
          Alcotest.test_case "cancel later in same slot" `Quick test_cancel_later_in_same_slot;
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
          Alcotest.test_case "cancelling a far timer allocates nothing" `Quick
            test_cancel_far_timer_allocates_nothing;
          Alcotest.test_case "sparse advance visits few slots" `Quick test_sparse_advance_visits;
          Alcotest.test_case "next_expiry skips empty level boundaries" `Quick
            test_next_expiry_skips_empty_boundaries;
          Alcotest.test_case "sparse advance allocates nothing" `Quick
            test_sparse_advance_allocates_nothing;
          Alcotest.test_case "next_expiry allocates nothing" `Quick
            test_next_expiry_allocates_nothing;
          qt prop_matches_reference_wheel;
          qt prop_next_expiry_matches_full_scan;
        ] );
    ]
