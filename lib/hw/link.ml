type t = {
  sim : Engine.Sim.t;
  bits_per_ns : float;
  propagation_ns : int;
  ecn_threshold_bytes : int option;
  queue_limit_bytes : int option;
  deliver : Frame.t -> unit;
  mutable tap : (Frame.t -> (Frame.t -> unit) -> unit) option;
  mutable busy : Engine.Sim_time.t;
  mutable total_bytes : int;
  mutable total_frames : int;
  mutable busy_ns : int;
  mutable marked_count : int;
  mutable dropped_count : int;
  (* In-flight frames in delivery order: a growable ring,
     [pending.(head .. head+count-1)] modulo its power-of-two length.
     Arrival times are monotonic per link (serialization is FIFO), so
     each send schedules the shared [deliver_pending] thunk, which pops
     the head — no per-frame closure or queue cell.  Popped slots are
     reset to [Frame.empty] so the ring keeps no delivered frame
     alive. *)
  mutable pending : Frame.t array;
  mutable head : int;
  mutable count : int;
  mutable deliver_pending : unit -> unit;
}

let push t frame =
  let cap = Array.length t.pending in
  if t.count = cap then begin
    let pending' = Array.make (Int.max 16 (2 * cap)) Frame.empty in
    for k = 0 to t.count - 1 do
      pending'.(k) <- t.pending.((t.head + k) land (cap - 1))
    done;
    t.pending <- pending';
    t.head <- 0
  end;
  t.pending.((t.head + t.count) land (Array.length t.pending - 1)) <- frame;
  t.count <- t.count + 1

let pop t =
  let frame = t.pending.(t.head) in
  t.pending.(t.head) <- Frame.empty;
  t.head <- (t.head + 1) land (Array.length t.pending - 1);
  t.count <- t.count - 1;
  frame

let deliver_next t =
  let frame = pop t in
  match t.tap with
  | None -> t.deliver frame
  | Some tap -> tap frame t.deliver

let create sim ~gbps ~propagation_ns ?ecn_threshold_bytes ?queue_limit_bytes
    ~deliver () =
  {
    sim;
    bits_per_ns = gbps;
    propagation_ns;
    ecn_threshold_bytes;
    queue_limit_bytes;
    deliver;
    tap = None;
    busy = 0;
    total_bytes = 0;
    total_frames = 0;
    busy_ns = 0;
    marked_count = 0;
    dropped_count = 0;
    pending = [||];
    head = 0;
    count = 0;
    deliver_pending = (fun () -> ());
  }
  |> fun t ->
  t.deliver_pending <- (fun () -> deliver_next t);
  t

let serialize_ns t frame =
  let bits = 8 * Frame.wire_bytes frame in
  int_of_float (ceil (float_of_int bits /. t.bits_per_ns))

let send_at t frame ~earliest =
  let now = Engine.Sim.now t.sim in
  let reference = Int.max now earliest in
  (* Backlog ahead of this frame, in bytes at line rate. *)
  let backlog_ns = Int.max 0 (t.busy - reference) in
  let backlog_bytes =
    int_of_float (float_of_int backlog_ns *. t.bits_per_ns /. 8.)
  in
  let drop =
    match t.queue_limit_bytes with
    | Some limit -> backlog_bytes > limit
    | None -> false
  in
  if drop then begin
    t.dropped_count <- t.dropped_count + 1;
    (* Tail drop consumes the frame's reference — the wire buffer goes
       back toward its pool instead of onto the queue. *)
    Frame.release frame
  end
  else begin
    let frame =
      match t.ecn_threshold_bytes with
      | Some threshold when backlog_bytes > threshold ->
          t.marked_count <- t.marked_count + 1;
          Frame.with_ce frame
      | Some _ | None -> frame
    in
    let start = Int.max reference t.busy in
    let duration = serialize_ns t frame in
    t.busy <- start + duration;
    t.busy_ns <- t.busy_ns + duration;
    t.total_bytes <- t.total_bytes + Frame.wire_bytes frame;
    t.total_frames <- t.total_frames + 1;
    let arrival = start + duration + t.propagation_ns in
    push t frame;
    Engine.Sim.at t.sim arrival t.deliver_pending
  end

let send t frame = send_at t frame ~earliest:0

let frames_sent t = t.total_frames

let utilization t ~over =
  if over = 0 then 0. else float_of_int t.busy_ns /. float_of_int over

let marked t = t.marked_count
let dropped t = t.dropped_count
let set_tap t tap = t.tap <- tap
