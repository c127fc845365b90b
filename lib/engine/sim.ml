(* The hot path of the whole simulator: every packet delivery, timer
   and dataplane cycle goes through [at]/[run].

   Event cells are pooled and reused.  The queue itself stores only the
   unboxed cell index, so a schedule/execute round trip in steady state
   allocates nothing beyond the caller's closure: the cell comes off a
   free stack, the heap entry is three flat-array writes, and the
   handle is an immediate int packing (cell index, generation).  The
   generation makes cancellation of an already-fired (hence reused)
   handle a no-op, as before.

   Cancellation is lazy: [cancel] only marks the cell and drops its
   closure.  Dead entries are skipped at pop time, and once more than
   half the heap is dead it is compacted in O(n) — so cancel-heavy TCP
   runs (every retransmit timer that gets answered) stop paying heap
   space and sift depth for tombstones. *)

type cell = {
  mutable action : unit -> unit;
  mutable cancelled : bool;
  mutable gen : int;
}

type handle = int

let gen_bits = 30
let gen_mask = (1 lsl gen_bits) - 1
let no_action () = ()

(* Its cell index lies beyond any pool, so [cancel] ignores it. *)
let no_handle = -1

type t = {
  mutable clock : Sim_time.t;
  queue : Event_queue.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable cells : cell array;
  mutable cell_count : int; (* cells.(0 .. cell_count-1) are initialized *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
  mutable dead : int; (* cancelled entries still in the queue *)
}

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    queue = Event_queue.create ();
    root_rng = Rng.create ~seed;
    executed = 0;
    cells = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
    dead = 0;
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

(* Recycle a cell: bump the generation so stale handles go inert, drop
   the closure so the GC can reclaim its environment. *)
let release_cell t idx =
  let c = t.cells.(idx) in
  c.action <- no_action;
  c.cancelled <- false;
  c.gen <- (c.gen + 1) land gen_mask;
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
            if i < t.cell_count then t.cells.(i)
            else { action = no_action; cancelled = false; gen = 0 })
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
  let idx = alloc_cell t action in
  Event_queue.push t.queue ~time idx;
  (idx lsl gen_bits) lor t.cells.(idx).gen

let after t delay action = at t (Sim_time.add t.clock delay) action

let maybe_compact t =
  let len = Event_queue.length t.queue in
  if len >= 128 && 2 * t.dead > len then begin
    Event_queue.compact t.queue ~keep:(fun idx ->
        let c = t.cells.(idx) in
        if c.cancelled then begin
          release_cell t idx;
          false
        end
        else true);
    t.dead <- 0
  end

let cancel t handle =
  let idx = handle lsr gen_bits in
  if idx < t.cell_count then begin
    let c = t.cells.(idx) in
    if c.gen = handle land gen_mask && not c.cancelled then begin
      c.cancelled <- true;
      c.action <- no_action;
      t.dead <- t.dead + 1;
      maybe_compact t
    end
  end

(* Process-wide count of executed events, across every [t] and every
   domain — lets the benchmark harness meter events/sec for a run
   without threading the simulation handle through each experiment.
   It is an [Atomic.t] so concurrent sims (Domain_pool fan-out) can
   share the meter; the hot loop in [run] stays atomic-free by
   counting into the per-sim [executed] field and flushing the delta
   once per [run] call. *)
let global_executed = Atomic.make 0
let global_events () = Atomic.get global_executed

(* Pop and run the earliest event; the queue must be non-empty.  A
   cancelled cell is only released: the caller re-checks its horizon
   before popping again, so a tombstone never lets a later event past
   [run]'s [until]. *)
let step_unmetered t =
  let time = Event_queue.min_time_exn t.queue in
  let idx = Event_queue.pop_min_exn t.queue in
  let c = t.cells.(idx) in
  if c.cancelled then begin
    t.dead <- t.dead - 1;
    release_cell t idx
  end
  else begin
    t.clock <- time;
    let action = c.action in
    (* Release before running: the action may schedule (and so reuse
       the cell); the bumped generation keeps old handles inert. *)
    release_cell t idx;
    t.executed <- t.executed + 1;
    action ()
  end

let flush_executed t e0 =
  let delta = t.executed - e0 in
  if delta > 0 then ignore (Atomic.fetch_and_add global_executed delta)

let drain t = function
  | None ->
      while not (Event_queue.is_empty t.queue) do
        step_unmetered t
      done
  | Some horizon ->
      (* The root time against the horizon: no [peek_time] option per
         step. *)
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
