(* Open-addressing table keyed by the (local_port, remote_ip,
   remote_port) 3-tuple, probed linearly.  A tuple has at most one
   entry: a live connection, or the TIME_WAIT remnant a closed one
   leaves behind (as Linux's established hash holds sockets and
   TIME_WAIT minisocks side by side), so one probe per RX segment tells
   a connection, a remnant and a miss apart.

   Each slot is two unboxed words of one int array: the key's 63-bit
   hash at [2i], and at [2i + 1] a generation-checked flow handle into
   the TCB store ([Tcb.flow_handle], always positive: slot 0 of the
   store is reserved), [empty], [tombstone], or remnant row [r]'s code
   [-(3 + r)].  A probe compares the stored hash first and reads the
   key words (of the connection's row in the store, or of the remnant
   row) only when it matches — once on a hit, almost never on a miss —
   and [rehash] moves (hash, entry) pairs without re-deriving keys.

   A remnant row is [row_words] unboxed words of [rows]: the key
   halves, our final [snd_nxt], the peer's final [rcv_nxt], the
   deadline and the row's slot.  Rows [0, remnants) are live; removing
   one moves the last row into the hole and re-codes its slot, so
   [rows] is sized by the live remnants, and [sweep] walks rows, not
   slots.

   [lookup] runs once per RX segment, so it must not allocate, nor
   must [conn] ([deref] returns the view the store built at [create]
   time and a miss the store's dead view) or the remnant accessors. *)

type t = {
  store : Tcb.store;
  mutable slots : int array;
      (* [2i]: key hash; [2i + 1]: flow handle, remnant code or sentinel *)
  mutable count : int; (* live connections *)
  mutable used : int; (* connections + remnants + tombstones *)
  mutable rows : int array; (* remnant rows, [row_words] words each *)
  mutable remnants : int; (* live rows *)
}

let empty = -1
let tombstone = -2
let initial_capacity = 1024

let row_words = 6
let initial_rows = 64
let[@inline] code_of_row r = -3 - r
let[@inline] row_of_code e = -3 - e
let[@inline] is_code e = e <= -3

(* splitmix64-style finisher over both key halves; capacity is a power
   of two, so the multiply must scramble low bits well. *)
let hash ~krem ~kloc =
  let h = krem lxor (kloc * 0x3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 27)

let create ~store =
  {
    store;
    slots = Array.make (2 * initial_capacity) empty;
    count = 0;
    used = 0;
    rows = Array.make (row_words * initial_rows) 0;
    remnants = 0;
  }

let capacity t = Array.length t.slots / 2

let key_rem ~remote_ip ~remote_port =
  ((remote_ip land 0xFFFF_FFFF) lsl 16) lor (remote_port land 0xFFFF)

(* Does entry [e] (a handle or a remnant code) carry this key?  A
   handle whose generation has moved on dereferences to the dead view
   and can never match — a freed-and-reused store slot is not confused
   with its predecessor. *)
let[@inline] key_matches t e ~krem ~kloc =
  if e >= 0 then begin
    let c = Tcb.deref t.store e in
    (not (Tcb.is_dead c))
    && Tcb.local_port c = kloc
    && key_rem ~remote_ip:(Tcb.remote_ip c) ~remote_port:(Tcb.remote_port c) = krem
  end
  else begin
    let b = row_words * row_of_code e in
    t.rows.(b) = krem && t.rows.(b + 1) = kloc
  end

(* The one probe loop.  On a miss it returns [-2 - j], where [j] is the
   first tombstone or empty slot on the key's probe path: the slot an
   insert takes. *)
let lookup t ~local_port ~remote_ip ~remote_port =
  let krem = key_rem ~remote_ip ~remote_port and kloc = local_port land 0xFFFF in
  let h = hash ~krem ~kloc in
  let slots = t.slots in
  let mask = (Array.length slots / 2) - 1 in
  let i = ref (h land mask) in
  let free = ref (-1) in
  let result = ref 0 in
  let searching = ref true in
  while !searching do
    let e = slots.((2 * !i) + 1) in
    if e = empty then begin
      result := -2 - (if !free = -1 then !i else !free);
      searching := false
    end
    else if e = tombstone then begin
      if !free = -1 then free := !i;
      i := (!i + 1) land mask
    end
    else if slots.(2 * !i) = h && key_matches t e ~krem ~kloc then begin
      result := !i;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  !result

(* The slot a key's entry holds, or else the slot an insert takes. *)
let place t ~local_port ~remote_ip ~remote_port =
  let i = lookup t ~local_port ~remote_ip ~remote_port in
  if i >= 0 then i else -2 - i

(* Rebuild at [capacity'] slots, dropping tombstones and stale handles.
   Entries are visited in slot order and each lands in the first empty
   slot of its probe sequence — where a fresh [add] would put it —
   so the layout, and with it the order of [iter], depends only on the
   live keys and the insertion history. *)
let rehash t capacity' =
  let old = t.slots in
  let slots = Array.make (2 * capacity') empty in
  let mask = capacity' - 1 in
  let count = ref 0 in
  for j = 0 to (Array.length old / 2) - 1 do
    let e = old.((2 * j) + 1) in
    if is_code e || (e >= 0 && not (Tcb.is_dead (Tcb.deref t.store e))) then begin
      let h = old.(2 * j) in
      let i = ref (h land mask) in
      while slots.((2 * !i) + 1) <> empty do
        i := (!i + 1) land mask
      done;
      slots.(2 * !i) <- h;
      slots.((2 * !i) + 1) <- e;
      if e >= 0 then incr count else t.rows.((row_words * row_of_code e) + 5) <- !i
    end
  done;
  t.slots <- slots;
  t.count <- !count;
  t.used <- !count + t.remnants

(* On 3/4 occupancy (entries + tombstones) rehash to keep probes short
   and clear tombstones; double only if at least 3/8 of the slots hold
   an entry, so connection churn cannot grow the table without bound. *)
let grow_if_full t =
  let capacity = capacity t in
  if 4 * t.used >= 3 * capacity then
    rehash t
      (if 8 * (t.count + t.remnants) < 3 * capacity then capacity else 2 * capacity)

(* Free remnant row [r]: the last row moves into the hole and its slot
   learns the new code.  The caller rewrites [r]'s own slot. *)
let free_row t r =
  let last = t.remnants - 1 in
  if r < last then begin
    Array.blit t.rows (row_words * last) t.rows (row_words * r) row_words;
    t.slots.((2 * t.rows.((row_words * r) + 5)) + 1) <- code_of_row r
  end;
  t.remnants <- last

let add t ~local_port ~remote_ip ~remote_port tcb =
  let krem = key_rem ~remote_ip ~remote_port and kloc = local_port land 0xFFFF in
  let h = hash ~krem ~kloc in
  let i = place t ~local_port ~remote_ip ~remote_port in
  let e = t.slots.((2 * i) + 1) in
  if e = empty then t.used <- t.used + 1;
  if e < 0 then t.count <- t.count + 1;
  (* A new connection on the tuple supersedes its remnant. *)
  if is_code e then free_row t (row_of_code e);
  t.slots.(2 * i) <- h;
  t.slots.((2 * i) + 1) <- Tcb.flow_handle tcb;
  grow_if_full t

let conn t slot =
  let e = if slot < 0 then empty else t.slots.((2 * slot) + 1) in
  if e >= 0 then Tcb.deref t.store e else Tcb.dead_view t.store

let remove t ~local_port ~remote_ip ~remote_port =
  let slot = lookup t ~local_port ~remote_ip ~remote_port in
  if slot >= 0 && t.slots.((2 * slot) + 1) >= 0 then begin
    t.slots.((2 * slot) + 1) <- tombstone;
    t.count <- t.count - 1
  end

let count t = t.count

let iter t f =
  let slots = t.slots in
  for j = 0 to (Array.length slots / 2) - 1 do
    let fh = slots.((2 * j) + 1) in
    if fh >= 0 then begin
      let tcb = Tcb.deref t.store fh in
      if not (Tcb.is_dead tcb) then f tcb
    end
  done

(* ------------------------------------------------------------------ *)
(* TIME_WAIT remnants                                                  *)

let is_remnant t slot = slot >= 0 && is_code t.slots.((2 * slot) + 1)
let[@inline] row_base t slot = row_words * row_of_code t.slots.((2 * slot) + 1)
let remnant_snd_nxt t slot = t.rows.(row_base t slot + 2)
let remnant_rcv_nxt t slot = t.rows.(row_base t slot + 3)
let refresh_remnant t slot ~deadline = t.rows.(row_base t slot + 4) <- deadline

let remove_remnant t slot =
  free_row t (row_of_code t.slots.((2 * slot) + 1));
  t.slots.((2 * slot) + 1) <- tombstone

let expire_remnant t slot ~now =
  let expired = t.rows.(row_base t slot + 4) <= now in
  if expired then remove_remnant t slot;
  expired

let add_remnant t ~local_port ~remote_ip ~remote_port ~snd_nxt ~rcv_nxt ~deadline =
  let krem = key_rem ~remote_ip ~remote_port and kloc = local_port land 0xFFFF in
  let h = hash ~krem ~kloc in
  let i = place t ~local_port ~remote_ip ~remote_port in
  let e = t.slots.((2 * i) + 1) in
  let r =
    if is_code e then row_of_code e
    else begin
      (* A connection's entry becomes its remnant in place. *)
      if e = empty then t.used <- t.used + 1 else if e >= 0 then t.count <- t.count - 1;
      if row_words * (t.remnants + 1) > Array.length t.rows then begin
        let rows = Array.make (2 * Array.length t.rows) 0 in
        Array.blit t.rows 0 rows 0 (Array.length t.rows);
        t.rows <- rows
      end;
      t.remnants <- t.remnants + 1;
      t.remnants - 1
    end
  in
  let b = row_words * r in
  t.rows.(b) <- krem;
  t.rows.(b + 1) <- kloc;
  t.rows.(b + 2) <- snd_nxt;
  t.rows.(b + 3) <- rcv_nxt;
  t.rows.(b + 4) <- deadline;
  t.rows.(b + 5) <- i;
  t.slots.(2 * i) <- h;
  t.slots.((2 * i) + 1) <- code_of_row r;
  grow_if_full t

let transfer_remnants t ~dst ~now ~select =
  let r = ref 0 in
  while !r < t.remnants do
    let b = row_words * !r in
    let rows = t.rows in
    let remote_ip = rows.(b) lsr 16
    and remote_port = rows.(b) land 0xFFFF
    and local_port = rows.(b + 1) in
    if rows.(b + 4) > now && select ~local_port ~remote_ip ~remote_port then begin
      add_remnant dst ~local_port ~remote_ip ~remote_port ~snd_nxt:rows.(b + 2)
        ~rcv_nxt:rows.(b + 3) ~deadline:rows.(b + 4);
      (* Row [!r] now holds the old last row: look at it next. *)
      remove_remnant t rows.(b + 5)
    end
    else incr r
  done

let sweep t ~now =
  let before = t.remnants in
  let r = ref 0 in
  while !r < t.remnants do
    let b = row_words * !r in
    if t.rows.(b + 4) <= now then remove_remnant t t.rows.(b + 5) else incr r
  done;
  before - t.remnants

let remnant_count t = t.remnants
