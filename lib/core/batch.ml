type mode = Fixed | Adaptive of { floor : int; ceiling : int }

(* The adaptive controller works in windows of this many non-idle
   cycles: long enough to smooth single-cycle noise, short enough to
   track a load shift within a few thousand packets at B=64. *)
let window = 32

type t = {
  mutable limit : int;
  mutable mode : mode;
  mutable cycle_count : int;
  mutable packet_count : int;
  mutable tx_burst_count : int;
  mutable tx_packet_count : int;
  (* Adaptive-window state: non-idle cycles seen this window, how many
     of them were saturated (pending >= limit), packets admitted. *)
  mutable win_cycles : int;
  mutable win_saturated : int;
  mutable win_packets : int;
  mutable congested : bool;
  (* Doorbell coalescing (adaptive mode only). *)
  mutable tx_since_db : int;
  mutable doorbell_count : int;
}

let clamp_mode mode limit =
  match mode with
  | Fixed -> limit
  | Adaptive { floor; ceiling } -> Int.min ceiling (Int.max floor limit)

let validate_mode = function
  | Fixed -> ()
  | Adaptive { floor; ceiling } ->
      if floor < 1 || ceiling < floor then
        invalid_arg "Batch: adaptive bounds need 1 <= floor <= ceiling"

let create ?(bound = 64) ?(mode = Fixed) () =
  validate_mode mode;
  {
    limit = clamp_mode mode bound;
    mode;
    cycle_count = 0;
    packet_count = 0;
    tx_burst_count = 0;
    tx_packet_count = 0;
    win_cycles = 0;
    win_saturated = 0;
    win_packets = 0;
    congested = false;
    tx_since_db = 0;
    doorbell_count = 0;
  }

let bound t = t.limit
let set_bound t b = t.limit <- clamp_mode t.mode (Int.max 1 b)
let mode t = t.mode

let congested t = t.congested

(* End-of-window decision, driven purely by the next_batch call stream
   so adaptive runs stay deterministic: mostly-saturated windows double
   the bound toward the ceiling (more amortization under congestion);
   windows that barely used the bound halve it toward the floor (small
   batches keep the live set cache-resident and latency low). *)
let window_close t floor ceiling =
  if t.win_saturated * 4 >= window * 3 then begin
    t.congested <- true;
    t.limit <- Int.min ceiling (t.limit * 2)
  end
  else begin
    t.congested <- false;
    if t.win_packets * 4 < t.limit * window then
      t.limit <- Int.max floor (t.limit / 2)
  end;
  t.win_cycles <- 0;
  t.win_saturated <- 0;
  t.win_packets <- 0

let next_batch t ~pending =
  let n = Int.min pending t.limit in
  if n > 0 then begin
    t.cycle_count <- t.cycle_count + 1;
    t.packet_count <- t.packet_count + n;
    match t.mode with
    | Fixed -> ()
    | Adaptive { floor; ceiling } ->
        t.win_cycles <- t.win_cycles + 1;
        t.win_packets <- t.win_packets + n;
        if pending >= t.limit then t.win_saturated <- t.win_saturated + 1;
        if t.win_cycles >= window then window_close t floor ceiling
  end;
  n

let cycles t = t.cycle_count
let packets t = t.packet_count

let mean_batch t =
  if t.cycle_count = 0 then 0.
  else float_of_int t.packet_count /. float_of_int t.cycle_count

let note_tx t n =
  if n > 0 then begin
    t.tx_burst_count <- t.tx_burst_count + 1;
    t.tx_packet_count <- t.tx_packet_count + n
  end

let ring t =
  t.tx_since_db <- 0;
  t.doorbell_count <- t.doorbell_count + 1;
  true

let doorbell_due t ~burst =
  match t.mode with
  | Fixed -> if burst > 0 then ring t else false
  | Adaptive _ ->
      if burst = 0 then
        (* Quiet cycle: flush any deferred doorbell so accounting never
           drops an MMIO write — it just lands a few cycles late. *)
        if t.tx_since_db > 0 then ring t else false
      else begin
        t.tx_since_db <- t.tx_since_db + burst;
        if t.congested && t.tx_since_db < t.limit then false else ring t
      end

let doorbells t = t.doorbell_count
let tx_bursts t = t.tx_burst_count
let tx_packets t = t.tx_packet_count

let mean_tx_burst t =
  if t.tx_burst_count = 0 then 0.
  else float_of_int t.tx_packet_count /. float_of_int t.tx_burst_count
