(* Wall clock, exact sample buffers, and the record one repetition of a
   workload returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* Growable int buffer.  Latencies are kept exactly (no histogram
   buckets), so medians and p99s reproduce bit-for-bit for a seed and
   move with every seed. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort compare a;
    a

  let append ~into t =
    for i = 0 to t.n - 1 do
      add into t.a.(i)
    done
end

(* Nearest-rank quantile of a non-empty sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den
let per num den = ratio (float_of_int num) (float_of_int den)

(* Host speed probe.  On a shared host this machine's speed drifts by up
   to 2x in spells of seconds to minutes, in wall and processor time
   alike, with nothing counted as steal.  A fixed batch of standard
   library hash-table lookups slows down with it and allocates nothing.
   Each repetition is bracketed by two batches, and its wall times are
   scaled to the seconds of a host that runs one lookup in [nominal_ns]
   (about this 2-vCPU Xeon host when the rest of the machine is quiet).
   The probe belongs to the benchmark, not to the program, so it runs the
   same on every commit and cancels only the host's drift. *)
module Probe = struct
  let size = 65_536
  let lookups = 200_000
  let nominal_ns = 100.

  let table =
    let t = Hashtbl.create size in
    for i = 0 to size - 1 do
      Hashtbl.replace t (i * 3) i
    done;
    t

  (* Wall ns per lookup over one batch. *)
  let ns_per_lookup () =
    let hits = ref 0 in
    let t0 = now_ns () in
    for i = 1 to lookups do
      if Hashtbl.mem table (i * 40_503 land 262_143) then incr hits
    done;
    let dt = now_ns () - t0 in
    assert (!hits > 0);
    float_of_int dt /. float_of_int lookups

  (* [s] wall seconds measured while a lookup took [ns_per_lookup], in
     seconds of the nominal host. *)
  let scale ~ns_per_lookup s = s *. nominal_ns /. ns_per_lookup
end

(* Restart the kernel's resident-set high-water mark, so that the next
   [peak_rss_mb] covers one repetition. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* Peak resident set of this process since the last [reset_peak_rss],
   from the kernel's high-water mark. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> 0.

(* A benchmark output check failed: the run reports no result. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* One repetition of a workload: a fresh set-up followed by a fixed
   amount of simulated work.  Everything except the wall-clock fields is
   deterministic for a seed, and [digest] spells that part out so two
   repetitions can be compared exactly. *)
type rep = {
  setup_s : float;  (** wall time before the measured phase *)
  phases : (string * float) list;  (** wall seconds of set-up steps *)
  measure_s : float;  (** wall time of the measured phase *)
  probe_ns : float;
      (** the host probe's ns per lookup around this repetition (set by
          the caller that runs the probe; 0 until then) *)
  ops : int;  (** application operations completed in the measured phase *)
  attempted : int;
  failed : int;
  minor_words : float;  (** allocated during the measured phase *)
  peak_rss_mb : float;  (** resident high-water mark of the repetition *)
  major_words : float;
  minor_gcs : int;
  events : int;  (** simulation events executed in the measured phase *)
  model_ops_per_s : float;
  model_p50_us : float;
  model_p99_us : float;
  model_samples : int;  (** latency samples behind the two quantiles *)
  counters : (string * float) list;
      (** per-layer values read from the layers' public counters *)
  latencies : Samples.t;  (** measured-window latency samples, ns *)
  digest : string;
}

(* Latency summary of a sample buffer, in µs. *)
let latency_summary samples =
  match Samples.sorted samples with
  | [||] -> (0., 0., 0)
  | s ->
      ( float_of_int (quantile s 0.50) /. 1e3,
        float_of_int (quantile s 0.99) /. 1e3,
        Array.length s )

(* The simulated outcome of a repetition: what the model computed and
   what the layers counted.  Allocation is left out, because the traced
   run allocates for its captures while simulating the same thing. *)
let digest_of ~ops ~attempted ~failed ~events ~model ~counters =
  let b = Buffer.create 256 in
  let mops, p50, p99, n = model in
  Printf.bprintf b "ops=%d att=%d fail=%d ev=%d model=%.17g/%.17g/%.17g/%d" ops
    attempted failed events mops p50 p99 n;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%.17g" k v) counters;
  Buffer.contents b
