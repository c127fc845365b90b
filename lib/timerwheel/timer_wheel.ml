let default_tick_ns = 16_000
let slot_bits = 8
let slots = 1 lsl slot_bits (* 256 *)
let levels = 4

(* Timers are pooled cells, like [Engine.Sim]'s event cells: the
   per-cell fields live in flat arrays inside the wheel, each slot's
   list is linked both ways through [next] and [prev] by cell index,
   and freed cells go on a free stack.  Arming a timer in steady state
   is therefore a handful of array writes — no record, no cons cell —
   and cancelling one unlinks its cell and frees it at once (Varghese &
   Lauck's O(1) STOP_TIMER).  The handle is an immediate int packing
   (cell index, generation); the generation makes cancelling a handle
   whose cell has since been reused a no-op. *)
type timer = int

let gen_bits = 30
let gen_mask = (1 lsl gen_bits) - 1

(* Inert sentinel: lets timer holders use a plain [timer] field (no
   option box per arm).  Its index is out of range, so [cancel] on it
   is a no-op. *)
let null = -1

let nil = -1 (* end of an index-linked slot list *)

(* A cell's [prev] is its predecessor in its slot list, or [lnot head]
   (negative) if it is the first cell of list [head]; [firing] while it
   waits in the chain [fire_slot] has detached and is running. *)
let firing = min_int

(* A cell's [meta] packs its generation and state: [gen lsl 2 lor
   state].  A cell sits in exactly one slot list while [armed], and on
   the free stack while [free].  [cancelled] marks the one kind of
   tombstone left: a timer cancelled by a callback while it waits in
   the chain being fired, which the firing loop frees when it reaches
   it. *)
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
  mutable prev : int array; (* cell -> previous cell, or its list's head *)
  mutable cell_count : int; (* cells 0 .. cell_count-1 have been handed out *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
  mutable current : int; (* wheel time, in ticks *)
  mutable armed : int;
  (* [next_expiry] runs once per idle dataplane cycle and [advance] on
     every cycle, so neither may walk slot lists.  [l0_mask] is the
     level-0 occupancy bitmap (8 × 32-bit words): a bit is set iff the
     slot holds a live timer.  A live level-0 timer's deadline lies in
     ([current], [current] + 256) and it sits in slot [deadline land
     255], so a set bit after [current] in this lap names its slot's
     deadline, and slot order from [current] is deadline order. *)
  l0_mask : int array;
  (* Every scheduled timer is armed, fired or cancelled, so the number
     of [schedule] calls is their sum and needs no counter of its
     own. *)
  mutable max_armed : int;
  mutable n_fired : int;
  mutable n_cancelled : int;
  mutable n_cascades : int;
  mutable n_cascaded : int;
  mutable n_slot_visits : int;
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
    prev = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
    current = now / tick_ns;
    armed = 0;
    l0_mask = Array.make mask_words 0;
    max_armed = 0;
    n_fired = 0;
    n_cancelled = 0;
    n_cascades = 0;
    n_cascaded = 0;
    n_slot_visits = 0;
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
  let n = Int.max 64 (2 * t.cell_count) in
  t.deadline <- grow_array t.deadline n 0;
  t.action <- grow_array t.action n no_action;
  t.meta <- grow_array t.meta n st_free;
  t.next <- grow_array t.next n nil;
  t.prev <- grow_array t.prev n nil;
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

let clear_l0_bit t slot =
  t.l0_mask.(slot lsr 5) <- t.l0_mask.(slot lsr 5) land lnot (1 lsl (slot land 31))

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
  if l = 0 then
    t.l0_mask.(slot lsr 5) <- t.l0_mask.(slot lsr 5) lor (1 lsl (slot land 31));
  let head = (l lsl slot_bits) lor slot in
  let first = t.heads.(head) in
  if first <> nil then t.prev.(first) <- c;
  t.next.(c) <- first;
  t.prev.(c) <- lnot head;
  t.heads.(head) <- c

(* Take a cell out of its slot list, clearing the slot's occupancy bit
   if that empties a level-0 list. *)
let unlink t c =
  let p = t.prev.(c) and n = t.next.(c) in
  if n <> nil then t.prev.(n) <- p;
  if p >= 0 then t.next.(p) <- n
  else begin
    let head = lnot p in
    t.heads.(head) <- n;
    if n = nil && head < slots then clear_l0_bit t head
  end

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
  if t.armed > t.max_armed then t.max_armed <- t.armed;
  (c lsl gen_bits) lor gen

let cancel t timer =
  let c = timer asr gen_bits in
  if c >= 0 && c < t.cell_count && t.meta.(c) = ((timer land gen_mask) lsl 2) lor st_armed
  then begin
    t.armed <- t.armed - 1;
    t.n_cancelled <- t.n_cancelled + 1;
    if t.prev.(c) = firing then
      (* A callback cancelled a timer later in the chain being fired:
         mark it; the firing loop frees it. *)
      t.meta.(c) <- t.meta.(c) lxor (st_armed lxor st_cancelled)
    else begin
      unlink t c;
      release_cell t c
    end
  end

(* ------------------------------------------------------------------ *)
(* Advancing                                                           *)

(* Reverse a detached slot list in place, marking each cell [firing];
   returns the new head. *)
let rec detach_chain t prev c =
  if c = nil then prev
  else begin
    let n = t.next.(c) in
    t.next.(c) <- prev;
    t.prev.(c) <- firing;
    detach_chain t c n
  end

(* Visit a level-0 slot: fire timers due at exactly [current].  The
   list is detached first and each successor is read before its cell
   is touched, so callbacks may freely arm (reusing freed cells) and
   cancel timers. *)
let fire_slot t =
  let slot = t.current land (slots - 1) in
  t.n_slot_visits <- t.n_slot_visits + 1;
  let head = t.heads.(slot) in
  t.heads.(slot) <- nil;
  clear_l0_bit t slot;
  (* Cells were pushed in LIFO order; restore arming order so equal
     deadlines fire FIFO. *)
  let c = ref (detach_chain t nil head) in
  while !c <> nil do
    let cell = !c in
    c := t.next.(cell);
    if t.meta.(cell) land st_mask = st_cancelled then
      release_cell t cell (* already counted out by [cancel] *)
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
    t.n_cascaded <- t.n_cascaded + 1;
    place t cell
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

(* Constant-time lowest set bit of a 32-bit word: multiplying an
   isolated bit by a de Bruijn constant puts a distinct 5-bit pattern
   in the top bits, which [debruijn] maps back to the bit's index. *)
let debruijn_hash bit = ((bit * 0x077CB531) land 0xFFFFFFFF) lsr 27

let debruijn =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set b (debruijn_hash (1 lsl i)) (Char.chr i)
  done;
  Bytes.unsafe_to_string b

let lowest_bit m = Char.code (String.unsafe_get debruijn (debruijn_hash (m land -m)))

(* First set bit of [mask] at word [w] or later, with [m] the remaining
   bits of word [w]; [slots] if none.  Top-level, so scanning allocates
   no closure. *)
let rec first_set mask w m =
  if m <> 0 then (w lsl 5) + lowest_bit m
  else if w + 1 = mask_words then slots
  else first_set mask (w + 1) mask.(w + 1)

(* First occupied level-0 slot in [from .. slots-1], or [slots]. *)
let occupied_from t from =
  if from >= slots then slots
  else
    let w = from lsr 5 in
    first_set t.l0_mask w (t.l0_mask.(w) land (-1 lsl (from land 31)))

(* The tick of the first occupied level-0 slot after [current] in this
   lap — the earliest live level-0 deadline — or the next lap boundary
   if no later slot in the lap is occupied. *)
let next_stop t =
  (t.current land lnot (slots - 1)) + occupied_from t ((t.current land (slots - 1)) + 1)

(* Tick-skipping advance: jump to [next_stop] and tick it.  The skipped
   ticks visit empty slots and cross no boundary, so they would do
   nothing; boundaries are still ticked, so cascades (and their counts)
   happen exactly as under one tick at a time. *)
let rec skip_to t target =
  if t.current < target then
    if t.armed = 0 then t.current <- target
    else begin
      let next = next_stop t in
      if next > target then t.current <- target
      else begin
        t.current <- next - 1;
        tick t;
        skip_to t target
      end
    end

let advance t ~now = skip_to t (now / t.tick_ns)

let no_expiry = max_int

(* A cascade at the next level boundary could reveal timers earlier
   than any later-lap level-0 slot, so [next_stop] is exactly the
   bound. *)
let next_expiry t = if t.armed = 0 then no_expiry else next_stop t * t.tick_ns

(* Defined after every function that touches [t]'s fields: several
   field names are shared with [t], and a later definition would win
   type-directed disambiguation. *)
type stats = {
  armed : int;
  max_armed : int;
  fired : int;
  cancelled : int;
  cascades : int;
  cascaded_timers : int;
  slot_visits : int;
  resident : int array;
  cells : int;
}

(* Live timers per level, counted by walking every slot list. *)
let resident (t : t) =
  Array.init levels (fun l ->
      let n = ref 0 in
      for slot = 0 to slots - 1 do
        let c = ref t.heads.((l lsl slot_bits) lor slot) in
        while !c <> nil do
          incr n;
          c := t.next.(!c)
        done
      done;
      !n)

let stats (t : t) : stats =
  {
    armed = t.armed;
    max_armed = t.max_armed;
    fired = t.n_fired;
    cancelled = t.n_cancelled;
    cascades = t.n_cascades;
    cascaded_timers = t.n_cascaded;
    slot_visits = t.n_slot_visits;
    resident = resident t;
    cells = t.cell_count;
  }
