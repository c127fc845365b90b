(** PCIe doorbell-write cost model.

    §6 reports a hardware bottleneck: a high rate of PCIe writes to post
    fresh RX descriptors degraded multi-core performance until IX
    coalesced replenishment into batches of ≥ 32 descriptors.  We charge
    a fixed cost per doorbell write, so replenishing in batches of [n]
    amortizes it [n]-fold — and an ablation can set the batch to 1. *)

type t

val create : ?replenish_batch:int -> unit -> t
(** 120 ns per posted write under contention; batches of 32 by
    default. *)

val replenish_cost_ns : t -> descriptors:int -> int
(** CPU cost of posting [descriptors] fresh RX descriptors, assuming
    batches of [replenish_batch]. *)

val doorbell_cost_ns : t -> int
(** Cost of a single TX tail-register update (never coalesced — §6 says
    that would have hurt latency). *)
