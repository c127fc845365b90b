(* Open-addressing table keyed by the (local_port, remote_ip,
   remote_port) 3-tuple, probed linearly.

   Each slot is two unboxed words of one int array: the key's 63-bit
   hash at [2i] and a generation-checked flow handle into the SoA TCB
   store ([Tcb.flow_handle]) at [2i + 1].  The handle word doubles as
   slot state via negative sentinels (live handles are always positive:
   slot 0 of the store is reserved).  The table carries no other key
   material: a probe compares the stored hash first and reads the
   connection's port/address columns out of the store only when it
   matches — once on a hit, almost never on a miss — and [rehash] moves
   (hash, handle) pairs without re-deriving keys from the store.  At
   million-connection population a slot costs two words instead of the
   three a key-mirroring layout needs.

   [find] runs once per RX segment, so it must not allocate: [deref]
   returns the view the store built at [create] time, and a miss returns
   the store's dead view ([Tcb.is_dead]) — no option box on either
   side. *)

type t = {
  store : Tcb.store;
  mutable slots : int array;
      (* [2i]: key hash; [2i + 1]: flow handle, or negative sentinel *)
  mutable count : int; (* live entries *)
  mutable used : int; (* live + tombstones *)
}

let empty = -1
let tombstone = -2
let initial_capacity = 1024

(* splitmix64-style finisher over both key halves; capacity is a power
   of two, so the multiply must scramble low bits well. *)
let hash ~krem ~kloc =
  let h = krem lxor (kloc * 0x3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 27)

let create ~store =
  { store; slots = Array.make (2 * initial_capacity) empty; count = 0; used = 0 }

let capacity t = Array.length t.slots / 2

let key_rem ~remote_ip ~remote_port =
  ((remote_ip land 0xFFFF_FFFF) lsl 16) lor (remote_port land 0xFFFF)

(* Does the connection behind [fh] carry this key?  A handle whose
   generation has moved on dereferences to the dead view and can never
   match — a freed-and-reused store slot is not confused with its
   predecessor. *)
let[@inline] fh_matches store fh ~krem ~kloc =
  let c = Tcb.deref store fh in
  (not (Tcb.is_dead c))
  && Tcb.local_port c = kloc
  && key_rem ~remote_ip:(Tcb.remote_ip c) ~remote_port:(Tcb.remote_port c) = krem

(* Find the slot holding the tuple, or -1. *)
let probe t ~local_port ~remote_ip ~remote_port =
  let krem = key_rem ~remote_ip ~remote_port and kloc = local_port land 0xFFFF in
  let h = hash ~krem ~kloc in
  let slots = t.slots in
  let mask = (Array.length slots / 2) - 1 in
  let i = ref (h land mask) in
  let slot = ref (-1) in
  let searching = ref true in
  while !searching do
    let fh = slots.((2 * !i) + 1) in
    if fh = empty then searching := false
    else if fh >= 0 && slots.(2 * !i) = h && fh_matches t.store fh ~krem ~kloc
    then begin
      slot := !i;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  !slot

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
    let fh = old.((2 * j) + 1) in
    if fh >= 0 && not (Tcb.is_dead (Tcb.deref t.store fh)) then begin
      let h = old.(2 * j) in
      let i = ref (h land mask) in
      while slots.((2 * !i) + 1) <> empty do
        i := (!i + 1) land mask
      done;
      slots.(2 * !i) <- h;
      slots.((2 * !i) + 1) <- fh;
      incr count
    end
  done;
  t.slots <- slots;
  t.count <- !count;
  t.used <- !count

let add t ~local_port ~remote_ip ~remote_port tcb =
  let krem = key_rem ~remote_ip ~remote_port and kloc = local_port land 0xFFFF in
  let h = hash ~krem ~kloc in
  let slots = t.slots in
  let capacity = Array.length slots / 2 in
  let mask = capacity - 1 in
  let i = ref (h land mask) in
  let slot = ref (-1) in
  let searching = ref true in
  while !searching do
    let k = slots.((2 * !i) + 1) in
    if k = empty then begin
      if !slot = -1 then slot := !i;
      searching := false
    end
    else if k = tombstone then begin
      if !slot = -1 then slot := !i;
      i := (!i + 1) land mask
    end
    else if slots.(2 * !i) = h && fh_matches t.store k ~krem ~kloc then begin
      slot := !i;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  let i = !slot in
  (match slots.((2 * i) + 1) with
  | k when k = empty ->
      t.count <- t.count + 1;
      t.used <- t.used + 1
  | k when k = tombstone -> t.count <- t.count + 1
  | _ -> ());
  slots.(2 * i) <- h;
  slots.((2 * i) + 1) <- Tcb.flow_handle tcb;
  (* On 3/4 occupancy (live + tombstones) rehash to keep probes short
     and clear tombstones; double only if at least 3/8 of the slots are
     live, so connection churn cannot grow the table without bound. *)
  if 4 * t.used >= 3 * capacity then
    rehash t (if 8 * t.count < 3 * capacity then capacity else 2 * capacity)

let find t ~local_port ~remote_ip ~remote_port =
  let slot = probe t ~local_port ~remote_ip ~remote_port in
  if slot = -1 then Tcb.dead_view t.store else Tcb.deref t.store t.slots.((2 * slot) + 1)

let remove t ~local_port ~remote_ip ~remote_port =
  let slot = probe t ~local_port ~remote_ip ~remote_port in
  if slot >= 0 then begin
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
