(* The E5-2665's L3, hot per-connection state, baseline DDIO misses per
   message and the *effective* stall per miss (misses overlap under
   memory-level parallelism).  [max_extra_misses] calibrates the
   250 k-connection point of §5.4 (~25 misses/message). *)
let l3_bytes = 20 * 1024 * 1024
let per_conn_bytes = 512
let ddio_floor = 1.4
let miss_ns = 32
let max_extra_misses = 28.0

(* The model has no state: a [t] only marks that a stack runs with it. *)
type t = unit

let create () = ()

let misses_per_message () ~conns =
  let working_set = conns * per_conn_bytes in
  if working_set <= l3_bytes then ddio_floor
  else begin
    let miss_fraction = 1. -. (float_of_int l3_bytes /. float_of_int working_set) in
    ddio_floor +. (max_extra_misses *. miss_fraction)
  end

let extra_ns_per_message t ~conns =
  let extra = misses_per_message t ~conns -. ddio_floor in
  int_of_float (extra *. float_of_int miss_ns)
