(* A growable FIFO of frames, each with an int tag (the switch keeps
   the ingress port there; links leave it 0).  Slots are flat arrays
   indexed by power-of-two arithmetic, so a push/pop round trip in
   steady state is one frame slot write, one tag write and one slot
   clear — no queue cell, no closure.  Popped frame slots are reset to
   [Frame.empty] so the ring never keeps a delivered frame alive. *)

type t = {
  mutable frames : Frame.t array;
  mutable tags : int array;
  mutable head : int;
  mutable count : int;
}

let create () = { frames = [||]; tags = [||]; head = 0; count = 0 }

let grow r =
  let cap = Array.length r.frames in
  let cap' = Int.max 16 (2 * cap) in
  let frames' = Array.make cap' Frame.empty in
  let tags' = Array.make cap' 0 in
  for k = 0 to r.count - 1 do
    let i = (r.head + k) land (cap - 1) in
    frames'.(k) <- r.frames.(i);
    tags'.(k) <- r.tags.(i)
  done;
  r.frames <- frames';
  r.tags <- tags';
  r.head <- 0

let push r frame ~tag =
  if r.count = Array.length r.frames then grow r;
  let i = (r.head + r.count) land (Array.length r.frames - 1) in
  r.frames.(i) <- frame;
  r.tags.(i) <- tag;
  r.count <- r.count + 1

let head_tag r = r.tags.(r.head)

let pop r =
  let i = r.head in
  let frame = r.frames.(i) in
  r.frames.(i) <- Frame.empty;
  r.head <- (i + 1) land (Array.length r.frames - 1);
  r.count <- r.count - 1;
  frame
