(* A structure-of-arrays binary min-heap.

   The heap state lives in three parallel flat [int] arrays — [times],
   [seqs] and the payloads — so [push]/[pop] allocate nothing in steady
   state (the old representation boxed a 3-field entry record per
   event), and since every payload is an immediate int, no sift write
   goes through the GC write barrier.  Sifting is hole-based: the
   moving element is held in locals and written exactly once, instead
   of swapping three cells per level.

   [pos] is the inverse of [vals]: every write of a payload into a slot
   also records the slot, so [push] can re-key a queued payload and
   [remove] can take one out without a search. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable pos : int array; (* pos.(v): v's heap slot, or -1 when not queued *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; vals = [||]; pos = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let mem q v = v < Array.length q.pos && q.pos.(v) >= 0

let grow q v =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let capacity' = if capacity = 0 then 64 else capacity * 2 in
    let times' = Array.make capacity' 0 in
    let seqs' = Array.make capacity' 0 in
    let vals' = Array.make capacity' 0 in
    Array.blit q.times 0 times' 0 q.size;
    Array.blit q.seqs 0 seqs' 0 q.size;
    Array.blit q.vals 0 vals' 0 q.size;
    q.times <- times';
    q.seqs <- seqs';
    q.vals <- vals'
  end;
  let span = Array.length q.pos in
  if v >= span then begin
    let pos' = Array.make (Int.max (v + 1) (Int.max 64 (2 * span))) (-1) in
    Array.blit q.pos 0 pos' 0 span;
    q.pos <- pos'
  end

(* Sift the element (time, seq, v) up from the hole at [start]. *)
let sift_up q start ~time ~seq ~v =
  let times = q.times and seqs = q.seqs and vals = q.vals and pos = q.pos in
  let i = ref start in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      let pv = vals.(parent) in
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- pv;
      pos.(pv) <- !i;
      i := parent
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v;
  pos.(v) <- !i

(* Sift the element (time, seq, v) down from the hole at [start]. *)
let sift_down q start ~time ~seq ~v =
  let times = q.times and seqs = q.seqs and vals = q.vals and pos = q.pos in
  let size = q.size in
  let i = ref start in
  let sifting = ref true in
  while !sifting do
    let left = (2 * !i) + 1 in
    if left >= size then sifting := false
    else begin
      let right = left + 1 in
      let child =
        if
          right < size
          && (times.(right) < times.(left)
             || (times.(right) = times.(left) && seqs.(right) < seqs.(left)))
        then right
        else left
      in
      if times.(child) < time || (times.(child) = time && seqs.(child) < seq) then begin
        let cv = vals.(child) in
        times.(!i) <- times.(child);
        seqs.(!i) <- seqs.(child);
        vals.(!i) <- cv;
        pos.(cv) <- !i;
        i := child
      end
      else sifting := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v;
  pos.(v) <- !i

(* Fill the hole at [i] with (time, seq, v), sifting whichever way the
   key goes. *)
let sift q i ~time ~seq ~v =
  let parent = (i - 1) / 2 in
  if
    i > 0
    && (time < q.times.(parent) || (time = q.times.(parent) && seq < q.seqs.(parent)))
  then sift_up q i ~time ~seq ~v
  else sift_down q i ~time ~seq ~v

let push q ~time v =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if mem q v then sift q q.pos.(v) ~time ~seq ~v
  else begin
    grow q v;
    let i = q.size in
    q.size <- i + 1;
    sift_up q i ~time ~seq ~v
  end

(* Move the last entry into the hole at [i], which the caller has
   vacated. *)
let fill_hole q i =
  let n = q.size - 1 in
  q.size <- n;
  if i < n then sift q i ~time:q.times.(n) ~seq:q.seqs.(n) ~v:q.vals.(n)

let remove q v =
  if mem q v then begin
    let i = q.pos.(v) in
    q.pos.(v) <- -1;
    fill_hole q i
  end

let min_time_exn q =
  if q.size = 0 then invalid_arg "Event_queue.min_time_exn: empty";
  q.times.(0)

let pop_min_exn q =
  if q.size = 0 then invalid_arg "Event_queue.pop_min_exn: empty";
  let root = q.vals.(0) in
  q.pos.(root) <- -1;
  fill_hole q 0;
  root
