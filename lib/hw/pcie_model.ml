(* One posted doorbell write under contention. *)
let doorbell_ns = 120

type t = { batch : int }

let create ?(replenish_batch = 32) () = { batch = Int.max 1 replenish_batch }

let replenish_cost_ns t ~descriptors =
  if descriptors <= 0 then 0
  else begin
    let writes = (descriptors + t.batch - 1) / t.batch in
    writes * doorbell_ns
  end

let doorbell_cost_ns _ = doorbell_ns
