(* Objects are provisioned in blocks sized to a 2 MB large page, matching
   the paper's large-page-only allocation policy.  A block of n mbufs is
   created at once and pushed onto the free stack.

   The free stack is an array (top-of-stack index), not a list:
   release/alloc are two array writes, with no cons cell per recycled
   buffer.  It holds each mbuf's permanent [Some mbuf] box, built once
   at provisioning and captured by the mbuf's [on_free] hook, so
   [alloc] returns an option without boxing — the per-packet path
   allocates nothing. *)

let large_page = 2 * 1024 * 1024

type t = {
  pool_name : string;
  mbuf_size : int;
  max_objects : int;
  block_objects : int;
  mutable provisioned : int;
  mutable free : Mbuf.t option array; (* free.(0 .. free_top-1) are idle *)
  mutable free_top : int;
  mutable live : int;
  mutable allocs : int;
  mutable failures : int;
  mutable alloc_gate : (unit -> bool) option;
}

let create ?(mbuf_size = Mbuf.default_size) ?(capacity = 16384) ~name () =
  let block_objects = max 1 (large_page / mbuf_size) in
  {
    pool_name = name;
    mbuf_size;
    max_objects = capacity;
    block_objects;
    provisioned = 0;
    free = [||];
    free_top = 0;
    live = 0;
    allocs = 0;
    failures = 0;
    alloc_gate = None;
  }

let push_free t boxed =
  if t.free_top = Array.length t.free then begin
    let capacity' = min t.max_objects (max t.block_objects (2 * t.free_top)) in
    let free' = Array.make capacity' None in
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

let provision_block t =
  let remaining = t.max_objects - t.provisioned in
  let n = min t.block_objects remaining in
  for _ = 1 to n do
    let mbuf = Mbuf.create ~size:t.mbuf_size () in
    let boxed = Some mbuf in
    mbuf.Mbuf.on_free <- (fun mbuf -> release t mbuf boxed);
    push_free t boxed
  done;
  t.provisioned <- t.provisioned + n

let rec alloc t =
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
    t.live <- t.live + 1;
    t.allocs <- t.allocs + 1;
    (match boxed with Some mbuf -> Mbuf.reset mbuf | None -> ());
    boxed
  end
  else if t.provisioned < t.max_objects then begin
    provision_block t;
    alloc t
  end
  else begin
    t.failures <- t.failures + 1;
    None
  end

let free_count t = t.free_top
let live_count t = t.live
let capacity t = t.max_objects
let stat_allocs t = t.allocs
let stat_failures t = t.failures
let name t = t.pool_name
let set_alloc_gate t gate = t.alloc_gate <- gate
