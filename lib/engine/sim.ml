(* The hot path of the whole simulator: every packet delivery, timer
   and dataplane cycle goes through [at]/[run].

   Event cells are pooled and reused.  The queue itself stores only the
   unboxed cell index, so a schedule/execute round trip in steady state
   allocates nothing beyond the caller's closure: the cell comes off a
   free stack and the heap entry is four flat-array writes.

   A wakeup owns its cell for good: the cell never goes back on the
   free stack, so the queue's position index, keyed by cell, says
   whether the wakeup is pending and lets [arm] move it and [disarm]
   remove it in place.  Nothing else leaves the queue before it
   fires. *)

type cell = {
  mutable action : unit -> unit;
  mutable owned : bool; (* by a wakeup: kept when it fires *)
}

let no_action () = ()

type t = {
  mutable clock : Sim_time.t;
  queue : Event_queue.t;
  mutable executed : int;
  mutable cells : cell array;
  mutable cell_count : int; (* cells.(0 .. cell_count-1) are initialized *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
}

let create () =
  {
    clock = Sim_time.zero;
    queue = Event_queue.create ();
    executed = 0;
    cells = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
  }

let now t = t.clock

let push_free t idx =
  if t.free_top = Array.length t.free then begin
    let capacity' = Int.max 64 (2 * Array.length t.free) in
    let free' = Array.make capacity' 0 in
    Array.blit t.free 0 free' 0 t.free_top;
    t.free <- free'
  end;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

(* Recycle a cell, dropping the closure so the GC can reclaim its
   environment. *)
let release_cell t idx =
  t.cells.(idx).action <- no_action;
  push_free t idx

let alloc_cell t action =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let idx = t.free.(t.free_top) in
    t.cells.(idx).action <- action;
    idx
  end
  else begin
    if t.cell_count = Array.length t.cells then begin
      let capacity' = if t.cell_count = 0 then 64 else 2 * t.cell_count in
      let cells' =
        Array.init capacity' (fun i ->
            if i < t.cell_count then t.cells.(i) else { action = no_action; owned = false })
      in
      t.cells <- cells'
    end;
    let idx = t.cell_count in
    t.cell_count <- idx + 1;
    t.cells.(idx).action <- action;
    idx
  end

let at t time action =
  assert (time >= t.clock);
  Event_queue.push t.queue ~time (alloc_cell t action)

let after t delay action = at t (Sim_time.add t.clock delay) action

type wakeup = { sim : t; cell : int }

let wakeup sim action =
  let cell = alloc_cell sim action in
  sim.cells.(cell).owned <- true;
  { sim; cell }

let arm w time =
  assert (time >= w.sim.clock);
  Event_queue.push w.sim.queue ~time w.cell

let disarm w = Event_queue.remove w.sim.queue w.cell
let pending w = Event_queue.mem w.sim.queue w.cell

(* Process-wide count of executed events, across every [t] and every
   domain — lets the benchmark harness meter events/sec for a run
   without threading the simulation handle through each experiment.
   It is an [Atomic.t] so concurrent sims (Domain_pool fan-out) can
   share the meter; the hot loop in [run] stays atomic-free by
   counting into the per-sim [executed] field and flushing the delta
   once per [run] call. *)
let global_executed = Atomic.make 0
let global_events () = Atomic.get global_executed

(* Pop and run the earliest event; the queue must be non-empty. *)
let step_unmetered t =
  t.clock <- Event_queue.min_time_exn t.queue;
  let idx = Event_queue.pop_min_exn t.queue in
  let c = t.cells.(idx) in
  let action = c.action in
  (* Release before running: the action may schedule, and so reuse the
     cell. *)
  if not c.owned then release_cell t idx;
  t.executed <- t.executed + 1;
  action ()

let flush_executed t e0 =
  let delta = t.executed - e0 in
  if delta > 0 then ignore (Atomic.fetch_and_add global_executed delta)

let drain t = function
  | None ->
      while not (Event_queue.is_empty t.queue) do
        step_unmetered t
      done
  | Some horizon ->
      (* The root time against the horizon: no option per step. *)
      while
        (not (Event_queue.is_empty t.queue))
        && Event_queue.min_time_exn t.queue <= horizon
      do
        step_unmetered t
      done

(* Allocation-free when the caller's [until] is preallocated and every
   event reuses a cached thunk: the meter is flushed on both exits
   without the closures [Fun.protect] would build per call. *)
let run ?until t =
  let e0 = t.executed in
  (try drain t until
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     flush_executed t e0;
     Printexc.raise_with_backtrace e bt);
  flush_executed t e0;
  match until with
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | Some _ | None -> ()

let events_executed t = t.executed
