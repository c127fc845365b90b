(** Adaptive, bounded batching (§3).

    IX batches at every stage of the network stack, under two rules:
    (i) batching never *waits* — it only occurs in the presence of
    congestion, i.e. a cycle takes whatever has already accumulated;
    (ii) the batch size is bounded by B so the live set stays within
    cache capacity and the transmit queue is never starved.  Fig. 6
    sweeps B; 16–64 maximizes throughput.

    This module is the policy: it decides how many packets the next
    run-to-completion cycle admits and records batch-size statistics.

    The bound can be fixed (the default, matching the paper's
    evaluation setup) or adaptive: a deterministic controller watches
    windows of cycles and doubles the bound toward a ceiling while the
    RX rings stay saturated, halving it back toward a floor when load
    subsides.  Adaptive mode also coalesces TX doorbells: under
    congestion, consecutive small bursts share one MMIO write until a
    bound's worth of segments has accumulated. *)

type mode =
  | Fixed  (** the bound never moves; [doorbell_due] rings every burst *)
  | Adaptive of { floor : int; ceiling : int }
      (** bound self-tunes within [floor, ceiling] *)

type t

val create : ?bound:int -> ?mode:mode -> unit -> t
(** [bound] defaults to 64, the value used in the paper's evaluation;
    [mode] defaults to [Fixed].  Adaptive bounds are clamped into
    [floor, ceiling].  @raise Invalid_argument unless
    [1 <= floor <= ceiling]. *)

val bound : t -> int
(** The bound currently in effect (moves over time in adaptive mode). *)

val set_bound : t -> int -> unit

val mode : t -> mode

val congested : t -> bool
(** Did the last adaptive window close saturated?  (Always [false] in
    fixed mode.) *)

val next_batch : t -> pending:int -> int
(** How many packets the next cycle should take: [min pending bound],
    never waiting for more.  Records the decision; in adaptive mode
    this call stream also drives the bound controller, keeping
    adaptive runs deterministic. *)

val cycles : t -> int
val packets : t -> int

val mean_batch : t -> float
(** Average admitted batch size (a congestion signal the control plane
    can read). *)

val note_tx : t -> int -> unit
(** Record one TX burst of [n] segments leaving the cycle ([n = 0] is
    ignored).  Each burst costs at most one PCIe doorbell write no
    matter how many segments it carries; these statistics make that
    amortization observable. *)

val doorbell_due : t -> burst:int -> bool
(** Should this cycle's TX burst ring the doorbell?  Fixed mode: yes
    whenever [burst > 0] (one MMIO write per burst).  Adaptive mode
    under congestion: bursts coalesce until a bound's worth of
    segments has accumulated since the last ring; a quiet cycle
    flushes any deferred ring so no MMIO write is ever dropped, only
    delayed. *)

val doorbells : t -> int
(** Doorbell rings granted by [doorbell_due]. *)

val tx_bursts : t -> int
val tx_packets : t -> int

val mean_tx_burst : t -> float
(** Average segments per TX burst. *)
