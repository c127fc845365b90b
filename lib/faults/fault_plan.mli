(** Deterministic, seeded fault injection.

    A {!spec} describes *what* can go wrong and how often; an
    instantiated plan ({!t}) owns its own {!Engine.Rng} streams and a
    set of [faults.*] counters, and installs itself into the simulated
    hardware through the fault hooks the hardware modules expose:

    - wire faults (drop, bit-corrupt, truncate, duplicate, reorder) as
      a {!Ixhw.Link} delivery tap ({!arm_link});
    - link flap down-windows, also at the tap (frames on a down link
      are swallowed);
    - NIC RX-ring stalls and delayed doorbells through the queue's
      replenish gate / doorbell defer hooks ({!arm_nic});
    - mempool exhaustion windows through the pool's alloc gate
      ({!arm_pool});
    - application-handler crashes as a per-request Bernoulli draw the
      app consults ({!app_crash});
    - hostile-peer forgeries (blind RST/SYN, stray old duplicates,
      stale ACK storms — {!Hostile}) injected at the same link tap
      behind cleanly forwarded TCP frames.

    Every random decision is drawn from the plan's own streams, and the
    window faults are pure functions of simulated time plus a phase
    drawn once at instantiation — so a run under a fault plan is fully
    determined by [(spec, seed)], bit-identical under
    {!Engine.Domain_pool} fan-out.  A plan holds no module-level state.

    The counters make fault accounting auditable
    ({!Harness.Chaos}): at the tap,
    [tap_frames + wire_dups + hostile_injected
     = tap_forwarded + wire_drops + flap_drops]
    holds exactly ([hostile_injected] being the sum of the four
    [faults.hostile_*] counters). *)

type spec = {
  drop_rate : float;  (** P(frame silently lost) per delivery *)
  corrupt_rate : float;  (** P(one byte XOR-flipped) — no checksum fixup *)
  truncate_rate : float;  (** P(frame cut short) — a runt *)
  duplicate_rate : float;  (** P(frame delivered twice) *)
  reorder_rate : float;  (** P(frame delayed past its successors) *)
  reorder_delay_ns : int;  (** max extra delay for a reordered frame *)
  flap_period_ns : int;  (** link flap cycle; 0 disables flapping *)
  flap_down_ns : int;  (** down-window length within each cycle *)
  stall_period_ns : int;  (** RX-ring stall cycle; 0 disables *)
  stall_ns : int;  (** stall-window length within each cycle *)
  exhaust_period_ns : int;  (** mempool exhaustion cycle; 0 disables *)
  exhaust_ns : int;  (** exhaustion-window length *)
  doorbell_delay_ns : int;  (** fixed doorbell posting delay; 0 = none *)
  app_crash_rate : float;  (** P(handler raises) per {!app_crash} draw *)
  hostile_rst_rate : float;
      (** P(blind seq-guessing RST injected) per clean TCP forward *)
  hostile_syn_rate : float;  (** P(blind random-seq SYN|ACK injected) *)
  hostile_olddup_rate : float;
      (** P(stray old duplicate injected — the segment replayed from
          far in the sequence past) *)
  hostile_ack_rate : float;  (** P(stale pure ACK injected) *)
}

val none : spec
(** All rates zero, all windows disabled: arming this spec installs no
    hooks, leaving every code path exactly as without fault injection. *)

val default : spec
(** The chaos soak's standard cocktail: low-rate wire faults of every
    kind plus periodic flap / stall / exhaustion windows and a small
    app-crash rate. *)

val parse : string -> (spec, string) result
(** Parse a plan like
    ["drop=0.003,corrupt=0.003,flap=4ms/300us,stall=3ms/200us,exhaust=3ms/150us,doorbell=5us,crash=0.0005"].
    Keys: [drop], [corrupt], [truncate], [dup], [reorder] (rates in
    \[0,1\]); [reorder_delay] (duration); [flap], [stall], [exhaust]
    (period[/]window durations); [doorbell] (duration); [crash] (rate).
    Hostile rates: [hostile_rst]/[rst], [hostile_syn]/[syn],
    [hostile_olddup]/[olddup], [hostile_ack]/[ack].
    Durations take [ns], [us] or [ms] suffixes (bare numbers are ns).
    ["none"], ["default"] and ["hostile"] name the corresponding
    specs; a ["name:"] prefix (e.g. ["hostile:rst=0.1"]) starts from
    that named spec instead of {!none}.  Unlisted keys keep their base
    value. *)

val to_string : spec -> string
(** Canonical round-trippable form (the nonzero fields). *)

val has_wire_faults : spec -> bool
(** Whether {!arm_link} would install a tap for this spec (any wire
    fault rate nonzero, flapping enabled, or any hostile rate
    nonzero).  The chaos audit uses this to know when the NIC-side
    frame-conservation check applies. *)

type t
(** An armed plan: spec + rng streams + counters. *)

val instantiate :
  spec -> sim:Engine.Sim.t -> seed:int -> metrics:Ixtelemetry.Metrics.t -> t
(** Create a plan instance for one simulation.  [metrics] receives the
    [faults.*] counters; [seed] (with the spec) fully determines every
    injection decision.  Window phases are drawn here, once. *)

val arm_link : t -> Ixhw.Link.t -> unit
(** Install the wire-fault/flap tap on a link's delivery.  A no-op when
    the spec has no wire faults and no flapping (the link keeps its
    direct delivery path). *)

val arm_nic : t -> Ixhw.Nic.t -> unit
(** Install ring-stall gates, doorbell deferral and RX-pool exhaustion
    gates on all of the NIC's queues (each only if the spec enables
    it). *)

val arm_pool : t -> Ixmem.Mempool.t -> unit
(** Install the exhaustion-window gate on a pool (no-op when the spec
    has no exhaustion windows). *)

val app_crash : t -> bool
(** One Bernoulli draw from the plan's application stream; [true] means
    the application handler should raise now.  Counted under
    [faults.app_crashes] — the audit matches this against the
    dataplane's contained [app_faults]. *)

val app_crashes : t -> int
(** How many {!app_crash} draws returned [true] so far. *)
