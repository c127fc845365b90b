(* Objects are created one at a time, when [alloc] finds the free stack
   empty and fewer than [max_objects] exist, so a pool's memory follows
   its high-water mark of live buffers, not its capacity.

   The free stack is an array (top-of-stack index), not a list:
   release/alloc are two array writes, with no cons cell per recycled
   buffer.  It holds each mbuf's permanent [Some mbuf] box, built once
   at creation and captured by the mbuf's [on_free] hook, so [alloc]
   returns an option without boxing — the per-packet path allocates
   nothing. *)

type t = {
  pool_name : string;
  max_objects : int;
  mutable created : int;
  mutable free : Mbuf.t option array; (* free.(0 .. free_top-1) are idle *)
  mutable free_top : int;
  mutable live : int;
  mutable allocs : int;
  mutable failures : int;
  mutable alloc_gate : (unit -> bool) option;
}

let create ?(capacity = 16384) ~name () =
  {
    pool_name = name;
    max_objects = capacity;
    created = 0;
    free = [||];
    free_top = 0;
    live = 0;
    allocs = 0;
    failures = 0;
    alloc_gate = None;
  }

(* The stack grows by doubling, up to one slot per created mbuf. *)
let push_free t boxed =
  if t.free_top = Array.length t.free then begin
    let free' = Array.make (Int.min t.max_objects (Int.max 16 (2 * t.free_top))) None in
    Array.blit t.free 0 free' 0 t.free_top;
    t.free <- free'
  end;
  t.free.(t.free_top) <- boxed;
  t.free_top <- t.free_top + 1

let release t mbuf boxed =
  Mbuf.reset mbuf;
  (* reset sets refcount to 1; hold it in the free stack at 0 live refs by
     convention — the next alloc hands it out fresh. *)
  push_free t boxed;
  t.live <- t.live - 1

let create_mbuf t =
  let mbuf = Mbuf.create () in
  let boxed = Some mbuf in
  mbuf.Mbuf.on_free <- (fun mbuf -> release t mbuf boxed);
  t.created <- t.created + 1;
  boxed

let take t boxed =
  t.live <- t.live + 1;
  t.allocs <- t.allocs + 1;
  boxed

let alloc t =
  match t.alloc_gate with
  | Some gate when not (gate ()) ->
      (* Injected exhaustion window: behave exactly like a full pool —
         a counted failure, never a raise. *)
      t.failures <- t.failures + 1;
      None
  | _ ->
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let boxed = t.free.(t.free_top) in
    (match boxed with Some mbuf -> Mbuf.reset mbuf | None -> ());
    take t boxed
  end
  else if t.created < t.max_objects then take t (create_mbuf t)
  else begin
    t.failures <- t.failures + 1;
    None
  end

let live_count t = t.live
let stat_allocs t = t.allocs
let stat_failures t = t.failures
let name t = t.pool_name
let set_alloc_gate t gate = t.alloc_gate <- gate
