(** Last-level-cache and Data Direct I/O model.

    §5.4 of the paper attributes the throughput drop at very high
    connection counts to the memory subsystem: with DDIO, descriptor
    DMA causes as little as 1.4 L3 misses per message while all
    connection state fits in the L3 (≤ ~10 k connections), rising to
    ~25 misses per message at 250 k connections when the TCP control
    blocks dominate the working set.  This module reproduces that curve
    and converts it into nanoseconds charged per message. *)

type t

val create : unit -> t
(** A 20 MB L3 (E5-2665), 512 B of hot per-connection state, 1.4
    baseline misses/message, 32 ns of *effective* stall per miss
    (misses overlap under memory-level parallelism, so the effective
    per-miss penalty is well below the raw latency). *)

val misses_per_message : t -> conns:int -> float
(** Expected L3 misses per message given the live connection count. *)

val extra_ns_per_message : t -> conns:int -> int
(** Additional per-message processing time beyond the in-cache case. *)
