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

(* A cell runs either a closure of its own ([schedule]: [action], with
   [fire] left at this sentinel) or a shared [fire] on its int [code]
   ([schedule_code]), so one action serves every timer of its kind and
   arming one builds no closure. *)
let no_fire (_ : int) = ()

type t = {
  tick_ns : int;
  heads : int array; (* level * slots + slot -> first cell, [nil] = empty *)
  mutable deadline : int array; (* cell -> deadline, in ticks *)
  mutable action : (unit -> unit) array;
  mutable fire : (int -> unit) array;
  mutable code : int array; (* cell -> [fire]'s argument *)
  mutable meta : int array; (* cell -> generation and state *)
  mutable next : int array; (* cell -> next cell in its slot list *)
  mutable prev : int array; (* cell -> previous cell, or its list's head *)
  mutable cell_count : int; (* cells 0 .. cell_count-1 have been handed out *)
  mutable free : int array; (* stack of free cell indices *)
  mutable free_top : int;
  mutable current : int; (* wheel time, in ticks *)
  mutable armed : int;
  (* [next_expiry] runs once per idle dataplane cycle and [advance] on
     every cycle, so neither may walk slot lists.  [mask] is the
     occupancy bitmap of every level, indexed like [heads] (8 × 32-bit
     words a level): a bit is set iff the slot's list is non-empty.  A
     live level-0 timer's deadline lies in ([current], [current] + 256)
     and it sits in slot [deadline land 255], so a set level-0 bit after
     [current] in this lap names its slot's deadline, and slot order
     from [current] is deadline order.  A set bit at a higher level
     names the tick its slot cascades at.  Bit [i] of [words] is set iff
     [mask.(i)] is non-zero, so finding the first occupied slot from any
     point of a level takes two lowest-set-bit lookups, not a scan. *)
  mask : int array;
  mutable words : int;
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
    fire = [||];
    code = [||];
    meta = [||];
    next = [||];
    prev = [||];
    cell_count = 0;
    free = [||];
    free_top = 0;
    current = now / tick_ns;
    armed = 0;
    mask = Array.make (levels * mask_words) 0;
    words = 0;
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
  t.fire <- grow_array t.fire n no_fire;
  t.code <- grow_array t.code n 0;
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
   the closures so the GC can reclaim their environments. *)
let release_cell t c =
  t.action.(c) <- no_action;
  t.fire.(c) <- no_fire;
  t.meta.(c) <- (((t.meta.(c) lsr 2) + 1) land gen_mask) lsl 2;
  t.free.(t.free_top) <- c;
  t.free_top <- t.free_top + 1

let set_bit t head =
  let w = head lsr 5 in
  t.mask.(w) <- t.mask.(w) lor (1 lsl (head land 31));
  t.words <- t.words lor (1 lsl w)

let clear_bit t head =
  let w = head lsr 5 in
  let m = t.mask.(w) land lnot (1 lsl (head land 31)) in
  t.mask.(w) <- m;
  if m = 0 then t.words <- t.words land lnot (1 lsl w)

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
  let head = (l lsl slot_bits) lor slot in
  set_bit t head;
  let first = t.heads.(head) in
  if first <> nil then t.prev.(first) <- c;
  t.next.(c) <- first;
  t.prev.(c) <- lnot head;
  t.heads.(head) <- c

(* Take a cell out of its slot list, clearing the slot's occupancy bit
   if that empties the list. *)
let unlink t c =
  let p = t.prev.(c) and n = t.next.(c) in
  if n <> nil then t.prev.(n) <- p;
  if p >= 0 then t.next.(p) <- n
  else begin
    let head = lnot p in
    t.heads.(head) <- n;
    if n = nil then clear_bit t head
  end

(* Arm a fresh cell at [deadline]; the caller stores what it runs. *)
let arm t ~deadline =
  let deadline_tick =
    let tick = (deadline + t.tick_ns - 1) / t.tick_ns in
    if tick <= t.current then t.current + 1 else tick
  in
  let c = alloc_cell t in
  t.deadline.(c) <- deadline_tick;
  let gen = t.meta.(c) lsr 2 in
  t.meta.(c) <- (gen lsl 2) lor st_armed;
  place t c;
  t.armed <- t.armed + 1;
  if t.armed > t.max_armed then t.max_armed <- t.armed;
  c

let handle t c = (c lsl gen_bits) lor (t.meta.(c) lsr 2)

let schedule t ~deadline action =
  let c = arm t ~deadline in
  t.action.(c) <- action;
  handle t c

let schedule_code t ~deadline fire code =
  let c = arm t ~deadline in
  t.fire.(c) <- fire;
  t.code.(c) <- code;
  handle t c

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
  clear_bit t slot;
  (* Cells were pushed in LIFO order; restore arming order so equal
     deadlines fire FIFO. *)
  let c = ref (detach_chain t nil head) in
  while !c <> nil do
    let cell = !c in
    c := t.next.(cell);
    if t.meta.(cell) land st_mask = st_cancelled then
      release_cell t cell (* already counted out by [cancel] *)
    else if t.deadline.(cell) <= t.current then begin
      let action = t.action.(cell) and fire = t.fire.(cell) and code = t.code.(cell) in
      release_cell t cell;
      t.armed <- t.armed - 1;
      t.n_fired <- t.n_fired + 1;
      if fire == no_fire then action () else fire code
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
  clear_bit t head;
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

(* The bits of [words] that cover level [l]. *)
let level_words l = ((1 lsl mask_words) - 1) lsl (l * mask_words)

(* First occupied slot of level [l] in [from .. slots-1], or [slots]:
   the rest of [from]'s word, else the first later non-empty word of the
   level. *)
let occupied_from t l from =
  if from >= slots then slots
  else
    let base = l lsl slot_bits in
    let w = (base lor from) lsr 5 in
    let m = t.mask.(w) land (-1 lsl (from land 31)) in
    if m <> 0 then (w lsl 5) + lowest_bit m - base
    else
      let later = t.words land (-1 lsl (w + 1)) land level_words l in
      if later = 0 then slots
      else
        let w = lowest_bit later in
        (w lsl 5) + lowest_bit t.mask.(w) - base

(* The earliest of [best] and the next tick with work at levels [l]
   and up, [max_int] if none.  Level [l]'s slot [s] is due at the first
   tick after [current] that is a multiple of 256^l and has [s] as its
   level-[l] digit: at level 0 that is the slot's deadline, higher up
   the tick the slot cascades at.  No level-[l] tick comes before the
   next multiple of 256^l, so once [best] is no later, the scan stops:
   a live level-0 slot later in the current lap costs one bitmap lookup. *)
let rec next_work t l best =
  if l = levels then best
  else begin
    let shift = slot_bits * l in
    let lap = t.current lsr shift in
    if best <= (lap + 1) lsl shift then best
    else if t.words land level_words l = 0 then next_work t (l + 1) best
    else begin
      let digit = lap land (slots - 1) in
      let s = occupied_from t l (digit + 1) in
      (* Slots after the digit come up in this turn of the level, the
         digit's own slot and those before it in the next. *)
      let k = if s < slots then s - digit else slots - digit + occupied_from t l 0 in
      next_work t (l + 1) (Int.min best ((lap + k) lsl shift))
    end
  end

let next_stop t = next_work t 0 max_int

(* Tick-skipping advance: jump to [next_stop] and tick it.  The skipped
   ticks visit empty slots and cross only boundaries whose slots are
   empty at every level, so they would do nothing; every boundary with
   an occupied slot is still ticked, so cascades move timers exactly as
   under one tick at a time. *)
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

(* A cascade could reveal timers earlier than any later level-0 slot,
   so [next_stop] is exactly the bound. *)
let next_expiry t = if t.armed = 0 then no_expiry else next_stop t * t.tick_ns

let arm_wakeup w ~earliest deadline =
  if deadline = no_expiry then Engine.Sim.disarm w
  else Engine.Sim.arm w (Int.max deadline earliest)

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
