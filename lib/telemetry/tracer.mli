(** Per-elastic-thread cycle tracer.

    Records sim-timestamped spans for the stages of the dataplane's
    run-to-completion cycle (Table 2 of the IX paper) plus
    protection-domain crossings.  Storage is a fixed ring of int
    arrays, so recording a span is three array stores — no allocation,
    cheap enough to leave on.  All-time per-stage totals survive ring
    wrap-around, so breakdown reports cover the whole run even when
    only the most recent spans are retained for export. *)

type stage =
  | Rx_driver       (** step 1: NIC RX poll + descriptor replenish *)
  | Tcp_in          (** step 2: ethernet/IP/TCP input processing *)
  | Event_delivery  (** step 3a: materializing the event batch *)
  | User_phase      (** step 3b: application event handlers *)
  | Syscall         (** step 4: batched system call execution *)
  | Timer           (** step 5: timer wheel advance *)
  | Tx_driver       (** step 6: TX descriptor placement + doorbell *)
  | Crossing        (** protection-domain ring crossings *)

val stages : stage list
(** All stages, in cycle order. *)

val stage_name : stage -> string

type t

val create : ?capacity:int -> thread:int -> unit -> t
(** [capacity] is the number of retained spans (default 4096). *)

val thread : t -> int

val span : t -> stage -> start:int -> stop:int -> unit
(** Record one span with sim-time endpoints in ns.  Spans must be
    recorded in non-decreasing [start] order (the cycle loop does this
    naturally); zero-length spans are dropped. *)

type span = { stage : stage; start : int; stop : int }

val iter : t -> (span -> unit) -> unit
(** Retained spans, oldest first. *)

val spans : t -> span list

val recorded : t -> int
(** All-time number of spans recorded (>= retained count). *)

val breakdown : t -> (stage * int * int) list
(** All-time [(stage, total_ns, span_count)] in cycle order, including
    stages with zero time.  Totals cover every span ever recorded, not
    just those still retained. *)

val busy_ns : t -> int
(** Sum of all-time span durations — the thread's total attributed busy
    time. *)
