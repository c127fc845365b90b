let default_tick_ns = 16_000
let slot_bits = 8
let slots = 1 lsl slot_bits (* 256 *)
let levels = 4

(* Timers are pooled cells, like [Engine.Sim]'s event cells: the
   per-cell fields live in flat arrays inside the wheel, each slot's
   list is linked through [next] by cell index, and freed cells go on a
   free stack.  Arming a timer in steady state is therefore a handful
   of array writes — no record, no cons cell.  The handle is an
   immediate int packing (cell index, generation); the generation makes
   cancelling a handle whose cell has since been reused a no-op. *)
type timer = int

let gen_bits = 30
let gen_mask = (1 lsl gen_bits) - 1

(* Inert sentinel: lets timer holders use a plain [timer] field (no
   option box per arm).  Its index is out of range, so [cancel] on it
   is a no-op. *)
let null = -1

let nil = -1 (* end of an index-linked slot list *)

(* A cell's [meta] packs its generation and state: [gen lsl 2 lor
   state].  A cell sits in exactly one slot list while [armed] or
   [cancelled] (a tombstone awaiting its slot visit), and on the free
   stack while [free]. *)
let st_free = 0
let st_armed = 1
let st_cancelled = 2
let st_mask = 3
let no_action () = ()

type t = {
  tick_ns : int;
  heads : int array; (* level * slots + slot -> first cell, [nil] = empty *)
  mutable deadline : int array; (* cell -> deadline, in ticks *)
  mutable action : (unit -> unit) array;
  mutable meta : int array; (* cell -> generation and state *)
  mutable next : int array; (* cell -> next cell in its slot list *)
  mutable cell_count : int; (* cells 0 .. cell_count-1 have been handed out *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
  mutable current : int; (* wheel time, in ticks *)
  mutable armed : int;
  (* [next_expiry] runs once per dataplane cycle when idle, so it must
     not walk 256 slot lists of armed timers.  Level-0 bookkeeping kept
     alongside the lists makes it O(occupied slots):
     - [l0_mask]: occupancy bitmap (8 × 32-bit words), bit set = the
       slot's list may be non-empty;
     - [l0_min]: per-slot minimum armed deadline (max_int when empty),
       maintained exactly on placement;
     - [l0_dirty]: set when a cancellation may have removed the slot's
       minimum, forcing a rescan of that one list on the next query. *)
  l0_mask : int array;
  l0_min : int array;
  l0_dirty : Bytes.t;
  (* Occupancy statistics (million-timer audit).  [resident] counts
     list entries per level — live timers *and* cancelled tombstones,
     i.e. actual memory residency; the difference against [armed] is
     the tombstone backlog awaiting slot visits. *)
  mutable max_armed : int;
  mutable n_scheduled : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable n_cascades : int;
  mutable n_cascaded : int;
  resident : int array;
}

let mask_words = slots / 32

let create ?(tick_ns = default_tick_ns) ~now () =
  {
    tick_ns;
    heads = Array.make (levels * slots) nil;
    deadline = [||];
    action = [||];
    meta = [||];
    next = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
    current = now / tick_ns;
    armed = 0;
    l0_mask = Array.make mask_words 0;
    l0_min = Array.make slots max_int;
    l0_dirty = Bytes.make slots '\000';
    max_armed = 0;
    n_scheduled = 0;
    n_fired = 0;
    n_cancelled = 0;
    n_cascades = 0;
    n_cascaded = 0;
    resident = Array.make levels 0;
  }

let now t = t.current * t.tick_ns
let pending t = t.armed

(* ------------------------------------------------------------------ *)
(* Cell pool                                                           *)

let grow_array a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Double every per-cell array (and the free stack, which can hold
   every cell).  Only reached while the pool is still warming up. *)
let grow t =
  let n = max 64 (2 * t.cell_count) in
  t.deadline <- grow_array t.deadline n 0;
  t.action <- grow_array t.action n no_action;
  t.meta <- grow_array t.meta n st_free;
  t.next <- grow_array t.next n nil;
  t.free <- grow_array t.free n 0

let alloc_cell t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    if t.cell_count = Array.length t.meta then grow t;
    let c = t.cell_count in
    t.cell_count <- c + 1;
    c
  end

(* Recycle a cell: bump the generation so stale handles go inert, drop
   the closure so the GC can reclaim its environment. *)
let release_cell t c =
  t.action.(c) <- no_action;
  t.meta.(c) <- (((t.meta.(c) lsr 2) + 1) land gen_mask) lsl 2;
  t.free.(t.free_top) <- c;
  t.free_top <- t.free_top + 1

(* Reverse an index-linked list in place; returns the new head. *)
let rec rev_chain next prev c =
  if c = nil then prev
  else begin
    let n = next.(c) in
    next.(c) <- prev;
    rev_chain next c n
  end

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)

(* Level l covers deltas in [256^l, 256^(l+1)). *)
let rec level_of delta l span =
  if delta < span * slots || l = levels - 1 then l
  else level_of delta (l + 1) (span * slots)

(* Push a cell onto the slot list matching its distance from
   [current] (LIFO; [fire_slot] restores arming order). *)
let place t c =
  let deadline = t.deadline.(c) in
  let delta = deadline - t.current in
  let l = level_of (if delta < 1 then 1 else delta) 0 1 in
  let slot = (deadline lsr (slot_bits * l)) land (slots - 1) in
  t.resident.(l) <- t.resident.(l) + 1;
  if l = 0 then begin
    t.l0_mask.(slot lsr 5) <- t.l0_mask.(slot lsr 5) lor (1 lsl (slot land 31));
    if deadline < t.l0_min.(slot) then t.l0_min.(slot) <- deadline
  end;
  let head = (l lsl slot_bits) lor slot in
  t.next.(c) <- t.heads.(head);
  t.heads.(head) <- c

let schedule t ~deadline action =
  let deadline_tick =
    let tick = (deadline + t.tick_ns - 1) / t.tick_ns in
    if tick <= t.current then t.current + 1 else tick
  in
  let c = alloc_cell t in
  t.deadline.(c) <- deadline_tick;
  t.action.(c) <- action;
  let gen = t.meta.(c) lsr 2 in
  t.meta.(c) <- (gen lsl 2) lor st_armed;
  place t c;
  t.armed <- t.armed + 1;
  t.n_scheduled <- t.n_scheduled + 1;
  if t.armed > t.max_armed then t.max_armed <- t.armed;
  (c lsl gen_bits) lor gen

let cancel t timer =
  let c = timer asr gen_bits in
  if c >= 0 && c < t.cell_count && t.meta.(c) = ((timer land gen_mask) lsl 2) lor st_armed
  then begin
    (* The cell stays in its slot list as a tombstone, closure and all,
       until its slot is visited. *)
    t.meta.(c) <- t.meta.(c) lxor (st_armed lxor st_cancelled);
    (* The armed count drops NOW, not when the tombstone's slot is
       eventually visited.  (Million-connection audit: with the
       decrement deferred, [advance] saw [armed > 0] for wheels holding
       nothing but tombstones and ground through them tick by tick —
       and [pending]/[next_expiry] overstated live work to idle
       hosts.) *)
    t.armed <- t.armed - 1;
    t.n_cancelled <- t.n_cancelled + 1;
    (* If this timer defined its level-0 slot's minimum, that slot
       needs a rescan.  (If it lives at a higher level — or another
       slot's timer merely shares the deadline — this is a spurious
       but harmless rescan of one list.) *)
    let deadline = t.deadline.(c) in
    let slot = deadline land (slots - 1) in
    if t.l0_min.(slot) = deadline then Bytes.unsafe_set t.l0_dirty slot '\001'
  end

(* ------------------------------------------------------------------ *)
(* Advancing                                                           *)

(* Visit a level-0 slot: fire timers due at exactly [current].  The
   list is detached first and each successor is read before its cell
   is touched, so callbacks may freely arm (reusing freed cells) and
   cancel timers. *)
let fire_slot t =
  let slot = t.current land (slots - 1) in
  let head = t.heads.(slot) in
  t.heads.(slot) <- nil;
  t.l0_mask.(slot lsr 5) <-
    t.l0_mask.(slot lsr 5) land lnot (1 lsl (slot land 31));
  t.l0_min.(slot) <- max_int;
  Bytes.unsafe_set t.l0_dirty slot '\000';
  (* Cells were pushed in LIFO order; restore arming order so equal
     deadlines fire FIFO. *)
  let c = ref (rev_chain t.next nil head) in
  while !c <> nil do
    let cell = !c in
    c := t.next.(cell);
    t.resident.(0) <- t.resident.(0) - 1;
    if t.meta.(cell) land st_mask <> st_armed then
      release_cell t cell (* tombstone: already counted out *)
    else if t.deadline.(cell) <= t.current then begin
      let action = t.action.(cell) in
      release_cell t cell;
      t.armed <- t.armed - 1;
      t.n_fired <- t.n_fired + 1;
      action ()
    end
    else
      (* A stale resident from a previous lap of the wheel: re-place. *)
      place t cell
  done

(* Cascade one slot of level [l] down into lower levels, in list
   order. *)
let cascade t l =
  let head = (l lsl slot_bits) lor ((t.current lsr (slot_bits * l)) land (slots - 1)) in
  let c = ref t.heads.(head) in
  t.heads.(head) <- nil;
  t.n_cascades <- t.n_cascades + 1;
  while !c <> nil do
    let cell = !c in
    c := t.next.(cell);
    t.resident.(l) <- t.resident.(l) - 1;
    if t.meta.(cell) land st_mask <> st_armed then release_cell t cell
    else begin
      t.n_cascaded <- t.n_cascaded + 1;
      place t cell
    end
  done

let tick t =
  t.current <- t.current + 1;
  (* At each level boundary, pull the next higher-level slot down. *)
  let l = ref 1 in
  while !l < levels && (t.current lsr (slot_bits * (!l - 1))) land (slots - 1) = 0 do
    cascade t !l;
    incr l
  done;
  fire_slot t

let advance t ~now =
  let target = now / t.tick_ns in
  while t.current < target && t.armed > 0 do
    tick t
  done;
  if t.current < target then t.current <- target

let rescan_slot t slot =
  let min_deadline = ref max_int in
  let c = ref t.heads.(slot) in
  while !c <> nil do
    let cell = !c in
    if t.meta.(cell) land st_mask = st_armed && t.deadline.(cell) < !min_deadline
    then min_deadline := t.deadline.(cell);
    c := t.next.(cell)
  done;
  t.l0_min.(slot) <- !min_deadline;
  Bytes.unsafe_set t.l0_dirty slot '\000'

let rec bit_index b i = if b = 1 then i else bit_index (b lsr 1) (i + 1)

let next_expiry t =
  if t.armed = 0 then None
  else begin
    (* Earliest live deadline in level 0: the tracked per-slot minima
       of the occupied slots, rescanning only slots whose minimum was
       cancelled since the last query. *)
    let best = ref max_int in
    for w = 0 to mask_words - 1 do
      let m = ref t.l0_mask.(w) in
      while !m <> 0 do
        let bit = !m land - !m in
        m := !m lxor bit;
        let slot = (w lsl 5) + bit_index bit 0 in
        if Bytes.unsafe_get t.l0_dirty slot = '\001' then rescan_slot t slot;
        if t.l0_min.(slot) < !best then best := t.l0_min.(slot)
      done
    done;
    (* Next level boundary where a cascade could reveal earlier timers. *)
    let boundary = ((t.current lsr slot_bits) + 1) lsl slot_bits in
    let tick = min !best boundary in
    Some (tick * t.tick_ns)
  end

(* Defined after every function that touches [t]'s fields: several
   field names are shared with [t], and a later definition would win
   type-directed disambiguation. *)
type stats = {
  armed : int;
  max_armed : int;
  scheduled : int;
  fired : int;
  cancelled : int;
  cascades : int;
  cascaded_timers : int;
  resident : int array;
}

let stats (t : t) : stats =
  {
    armed = t.armed;
    max_armed = t.max_armed;
    scheduled = t.n_scheduled;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    cascades = t.n_cascades;
    cascaded_timers = t.n_cascaded;
    resident = Array.copy t.resident;
  }

let register_metrics (t : t) registry ~prefix =
  let module M = Ixtelemetry.Metrics in
  let probe name f = M.probe registry (prefix ^ "." ^ name) (fun () -> float_of_int (f ())) in
  probe "armed" (fun () -> t.armed);
  probe "max_armed" (fun () -> t.max_armed);
  probe "scheduled" (fun () -> t.n_scheduled);
  probe "fired" (fun () -> t.n_fired);
  probe "cancelled" (fun () -> t.n_cancelled);
  probe "cascades" (fun () -> t.n_cascades);
  probe "cascaded_timers" (fun () -> t.n_cascaded);
  Array.iteri
    (fun l _ -> probe (Printf.sprintf "resident_l%d" l) (fun () -> t.resident.(l)))
    t.resident
