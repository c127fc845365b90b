(* Values below [sub_buckets] are exact (one slot per unit); past that,
   each power-of-two range splits into [sub_buckets] slots, so a
   recorded value is at most (1 + 1/sub_buckets) times its slot's
   representative value. *)

let sub_bucket_bits = 5
let sub_buckets = 1 lsl sub_bucket_bits (* 32 *)
let bucket_count = 58
let total_slots = (bucket_count + 1) * sub_buckets

type t = {
  counts : int array;
  mutable total : int;
  sum : float array;
      (* one cell: a flat float array stores the sum unboxed, where a
         [mutable sum : float] would box a new float per sample *)
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  {
    counts = Array.make total_slots 0;
    total = 0;
    sum = [| 0. |];
    min_v = max_int;
    max_v = 0;
  }

let bucket_of v =
  let v = v lor (sub_buckets - 1) in
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
  log2 0 v - sub_bucket_bits

let slot_of v =
  if v < sub_buckets then v
  else begin
    let bucket = bucket_of v in
    let sub = v lsr bucket in
    ((bucket + 1) * sub_buckets) + (sub - sub_buckets)
  end

(* Upper-bound representative value of a slot. *)
let value_of_slot slot =
  if slot < sub_buckets then slot
  else begin
    let bucket = (slot / sub_buckets) - 1 in
    let sub = (slot mod sub_buckets) + sub_buckets in
    ((sub + 1) lsl bucket) - 1
  end

let record_n t v n =
  let v = if v < 0 then 0 else v in
  let slot = min (slot_of v) (total_slots - 1) in
  t.counts.(slot) <- t.counts.(slot) + n;
  t.total <- t.total + n;
  t.sum.(0) <- t.sum.(0) +. (float_of_int v *. float_of_int n);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let record t v = record_n t v 1
let count t = t.total
let is_empty t = t.total = 0
let mean t = if t.total = 0 then 0. else t.sum.(0) /. float_of_int t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = if t.total = 0 then 0 else t.max_v

let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let rec scan slot seen =
      if slot >= total_slots then t.max_v
      else begin
        let seen = seen + t.counts.(slot) in
        if seen >= target then min (value_of_slot slot) t.max_v
        else scan (slot + 1) seen
      end
    in
    scan 0 0
  end

let percentile t p = quantile t (p /. 100.)

let merge_into ~src ~dst =
  Array.iteri
    (fun slot n ->
      if n > 0 then begin
        dst.counts.(slot) <- dst.counts.(slot) + n;
        dst.total <- dst.total + n
      end)
    src.counts;
  dst.sum.(0) <- dst.sum.(0) +. src.sum.(0);
  if src.total > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.counts 0 total_slots 0;
  t.total <- 0;
  t.sum.(0) <- 0.;
  t.min_v <- max_int;
  t.max_v <- 0
