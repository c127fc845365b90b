(* TIME_WAIT remnants, stored compactly.

   Every connection entering TIME_WAIT releases its full TCB back to
   the store's free list immediately; what the protocol still needs
   for the quiet period — the 4-tuple's key, the final sequence numbers
   and the deadline — moves here.  The demux consults this table (only
   when non-empty) *before* the flow table: a hit re-ACKs retransmitted
   FINs, and lets a new SYN with a fresh sequence number recycle the
   tuple early.  RSTs are ignored (RFC 1337 TIME-WAIT assassination
   protection — the remnant and its quiet period survive, counted as
   [tw_rst_dropped]).  Flow-group migration moves a group's remnants
   with its TCBs ([transfer]).

   Same open-addressing scheme as [Flow_table]: linear probing over
   power-of-two arrays, [krem] = remote_ip lsl 16 lor remote_port
   doubling as slot state via negative sentinels, splitmix-style
   finisher.  Five unboxed int words per occupant (~40 B), versus the
   ~400 B a full TCB would pin for [time_wait_ns].

   Expiry is lazy ([find_slot] treats an expired occupant as absent
   and reaps it) plus a periodic [sweep] the endpoint schedules while
   the table is non-empty, so idle tables drain without traffic. *)

type t = {
  mutable krem : int array; (* remote_ip lsl 16 | remote_port, or sentinel *)
  mutable kloc : int array; (* local port *)
  mutable fin_snd_nxt : int array; (* our final snd_nxt: seq for re-ACKs *)
  mutable fin_rcv_nxt : int array; (* their final seq space: ack for re-ACKs *)
  mutable deadline : int array;
  mutable count : int; (* live entries *)
  mutable used : int; (* live + tombstones *)
}

let empty = -1
let tombstone = -2
let initial_capacity = 64

let hash ~krem ~kloc =
  let h = krem lxor (kloc * 0x3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 27)

let create () =
  {
    krem = Array.make initial_capacity empty;
    kloc = Array.make initial_capacity 0;
    fin_snd_nxt = Array.make initial_capacity 0;
    fin_rcv_nxt = Array.make initial_capacity 0;
    deadline = Array.make initial_capacity 0;
    count = 0;
    used = 0;
  }

let key_rem ~remote_ip ~remote_port =
  ((remote_ip land 0xFFFF_FFFF) lsl 16) lor (remote_port land 0xFFFF)

let[@inline] reap t i =
  t.krem.(i) <- tombstone;
  t.count <- t.count - 1

(* Slot of a *live* (unexpired) remnant for the tuple, or -1.  An
   expired occupant found on the way is reaped in place. *)
let find_slot t ~now ~local_port ~remote_ip ~remote_port =
  if t.count = 0 then -1
  else begin
    let krem = key_rem ~remote_ip ~remote_port
    and kloc = local_port land 0xFFFF in
    let mask = Array.length t.krem - 1 in
    let i = ref (hash ~krem ~kloc land mask) in
    let slot = ref (-1) in
    let searching = ref true in
    while !searching do
      let k = t.krem.(!i) in
      if k = empty then searching := false
      else begin
        if k = krem && t.kloc.(!i) = kloc then begin
          if t.deadline.(!i) <= now then reap t !i else slot := !i;
          searching := false
        end
        else i := (!i + 1) land mask
      end
    done;
    !slot
  end

let fin_snd_nxt t slot = t.fin_snd_nxt.(slot)
let fin_rcv_nxt t slot = t.fin_rcv_nxt.(slot)
let refresh t slot ~deadline = t.deadline.(slot) <- deadline
let remove t slot = reap t slot

(* Clear the tombstones at the same capacity, in place: at these sizes
   fresh arrays would come from the minor heap on every churn cycle.
   After the tombstones become empty, one walk over the slots starts
   just past a slot that was already empty (no probe run crosses it)
   and re-places each occupant at the first empty slot of its probe
   sequence.  That slot lies between its home and where it stood, all
   walked already, so each occupant moves once and only backwards, and
   every probe run stays unbroken. *)
let compact t =
  let mask = Array.length t.krem - 1 in
  let start = ref 0 in
  while t.krem.(!start) <> empty do
    incr start
  done;
  for i = 0 to mask do
    if t.krem.(i) = tombstone then t.krem.(i) <- empty
  done;
  for n = 1 to mask + 1 do
    let i = (!start + n) land mask in
    let krem = t.krem.(i) in
    if krem >= 0 then begin
      t.krem.(i) <- empty;
      let j = ref (hash ~krem ~kloc:t.kloc.(i) land mask) in
      while t.krem.(!j) <> empty do
        j := (!j + 1) land mask
      done;
      let j = !j in
      t.krem.(j) <- krem;
      t.kloc.(j) <- t.kloc.(i);
      t.fin_snd_nxt.(j) <- t.fin_snd_nxt.(i);
      t.fin_rcv_nxt.(j) <- t.fin_rcv_nxt.(i);
      t.deadline.(j) <- t.deadline.(i)
    end
  done;
  t.used <- t.count

let rec insert t ~krem ~kloc ~snd_nxt ~rcv_nxt ~deadline =
  let mask = Array.length t.krem - 1 in
  let i = ref (hash ~krem ~kloc land mask) in
  let slot = ref (-1) in
  let searching = ref true in
  while !searching do
    let k = t.krem.(!i) in
    if k = empty then begin
      if !slot = -1 then slot := !i;
      searching := false
    end
    else if k = tombstone then begin
      if !slot = -1 then slot := !i;
      i := (!i + 1) land mask
    end
    else if k = krem && t.kloc.(!i) = kloc then begin
      slot := !i;
      searching := false
    end
    else i := (!i + 1) land mask
  done;
  let i = !slot in
  (match t.krem.(i) with
  | k when k = empty ->
      t.count <- t.count + 1;
      t.used <- t.used + 1
  | k when k = tombstone -> t.count <- t.count + 1
  | _ -> ());
  t.krem.(i) <- krem;
  t.kloc.(i) <- kloc;
  t.fin_snd_nxt.(i) <- snd_nxt;
  t.fin_rcv_nxt.(i) <- rcv_nxt;
  t.deadline.(i) <- deadline;
  (* Same rule as [Flow_table]: on 3/4 occupancy (live + tombstones),
     double only if at least 3/8 of the slots are live; otherwise clear
     the tombstones, so churn cannot grow the table without bound. *)
  let capacity = Array.length t.krem in
  if 4 * t.used >= 3 * capacity then
    if 8 * t.count < 3 * capacity then compact t else rehash t (2 * capacity)

and rehash t capacity' =
  let krem = t.krem
  and kloc = t.kloc
  and fsn = t.fin_snd_nxt
  and frn = t.fin_rcv_nxt
  and dl = t.deadline in
  t.krem <- Array.make capacity' empty;
  t.kloc <- Array.make capacity' 0;
  t.fin_snd_nxt <- Array.make capacity' 0;
  t.fin_rcv_nxt <- Array.make capacity' 0;
  t.deadline <- Array.make capacity' 0;
  t.count <- 0;
  t.used <- 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then
        insert t ~krem:k ~kloc:kloc.(i) ~snd_nxt:fsn.(i) ~rcv_nxt:frn.(i)
          ~deadline:dl.(i))
    krem

let add t ~local_port ~remote_ip ~remote_port ~snd_nxt ~rcv_nxt ~deadline =
  insert t
    ~krem:(key_rem ~remote_ip ~remote_port)
    ~kloc:(local_port land 0xFFFF) ~snd_nxt ~rcv_nxt ~deadline

let transfer t ~dst ~now ~select =
  Array.iteri
    (fun i k ->
      if
        k >= 0 && t.deadline.(i) > now
        && select ~local_port:t.kloc.(i) ~remote_ip:(k lsr 16) ~remote_port:(k land 0xFFFF)
      then begin
        insert dst ~krem:k ~kloc:t.kloc.(i) ~snd_nxt:t.fin_snd_nxt.(i)
          ~rcv_nxt:t.fin_rcv_nxt.(i) ~deadline:t.deadline.(i);
        reap t i
      end)
    t.krem

(* Reap every expired remnant; returns how many were removed. *)
let sweep t ~now =
  if t.count = 0 then 0
  else begin
    let removed = ref 0 in
    Array.iteri
      (fun i k ->
        if k >= 0 && t.deadline.(i) <= now then begin
          reap t i;
          incr removed
        end)
      t.krem;
    !removed
  end

let count t = t.count
let capacity t = Array.length t.krem
