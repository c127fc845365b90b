(** A unidirectional point-to-point link.

    Frames serialize at the link rate (store-and-forward at the sender),
    then arrive at the far end after the propagation delay.  Back-to-
    back sends queue behind the link's busy time, which is what enforces
    line-rate ceilings throughout the evaluation. *)

type t

val create :
  Engine.Sim.t ->
  gbps:float ->
  propagation_ns:int ->
  ?ecn_threshold_bytes:int ->
  ?queue_limit_bytes:int ->
  deliver:(Frame.t -> unit) ->
  unit ->
  t
(** [ecn_threshold_bytes]: frames that would queue behind more than
    this many bytes are CE-marked (a DCTCP-style AQM at the switch
    port).  [queue_limit_bytes]: frames beyond this backlog are tail
    dropped (finite switch buffers — what makes incast collapse). *)

val send : t -> Frame.t -> unit
(** Queue a frame for transmission; [deliver] fires at arrival time. *)

val send_at : t -> Frame.t -> earliest:Engine.Sim_time.t -> unit
(** Like [send] but not before [earliest]. *)

val frames_sent : t -> int

val utilization : t -> over:Engine.Sim_time.t -> float
(** Fraction of [over] the link spent serializing. *)

val marked : t -> int
(** Frames CE-marked by the AQM. *)

val dropped : t -> int
(** Frames tail-dropped at the queue limit. *)

val set_tap : t -> (Frame.t -> (Frame.t -> unit) -> unit) option -> unit
(** Install (or clear) a delivery tap.  At each frame's arrival time the
    tap is called with the frame and the link's deliver function and
    decides what reaches the far end: forward as-is, forward a mutated
    copy, forward twice, delay, or swallow.  The hook for the fault
    injector's wire faults ({!Ix_faults.Fault_plan}); links carry no tap
    by default and the timing math above is unaffected either way. *)
