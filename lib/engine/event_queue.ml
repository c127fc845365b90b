(* A structure-of-arrays binary min-heap.

   The heap state lives in three parallel flat [int] arrays — [times],
   [seqs] and the payloads — so [push]/[pop] allocate nothing in steady
   state (the old representation boxed a 3-field entry record per
   event), and since every payload is an immediate int, no sift write
   goes through the GC write barrier.  Sifting is hole-based: the
   moving element is held in locals and written exactly once, instead
   of swapping three cells per level. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }
let is_empty q = q.size = 0
let length q = q.size

let grow q =
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
  end

let push q ~time v =
  grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let times = q.times and seqs = q.seqs and vals = q.vals in
  let i = ref q.size in
  q.size <- q.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v

(* Sift the element (time, seq, v) down from the hole at [start]. *)
let sift_down q start ~time ~seq ~v =
  let times = q.times and seqs = q.seqs and vals = q.vals in
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
        times.(!i) <- times.(child);
        seqs.(!i) <- seqs.(child);
        vals.(!i) <- vals.(child);
        i := child
      end
      else sifting := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let min_time_exn q =
  if q.size = 0 then invalid_arg "Event_queue.min_time_exn: empty";
  q.times.(0)

let pop_min_exn q =
  if q.size = 0 then invalid_arg "Event_queue.pop_min_exn: empty";
  let root = q.vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then
    sift_down q 0 ~time:q.times.(n) ~seq:q.seqs.(n) ~v:q.vals.(n);
  root

let pop q =
  if q.size = 0 then None
  else begin
    let time = q.times.(0) in
    let v = pop_min_exn q in
    Some (time, v)
  end

let peek_time q = if q.size = 0 then None else Some q.times.(0)

let compact q ~keep =
  (* Drop entries rejected by [keep], preserving their (time, seq) keys,
     then restore the heap invariant bottom-up (Floyd).  Stability is
     free: keys are untouched and seq numbers are unique. *)
  let n = q.size in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep q.vals.(i) then begin
      q.times.(!m) <- q.times.(i);
      q.seqs.(!m) <- q.seqs.(i);
      q.vals.(!m) <- q.vals.(i);
      incr m
    end
  done;
  q.size <- !m;
  for i = (!m / 2) - 1 downto 0 do
    sift_down q i ~time:q.times.(i) ~seq:q.seqs.(i) ~v:q.vals.(i)
  done

let clear q =
  q.times <- [||];
  q.seqs <- [||];
  q.vals <- [||];
  q.size <- 0
