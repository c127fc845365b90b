(** Chaos soak harness: run the echo and memcached workloads on an
    all-IX cluster while a deterministic {!Ix_faults.Fault_plan} mangles
    the wire, stalls the NIC rings, exhausts mempools and crashes
    application handlers — then force-drain every connection and audit
    the end state.

    The audit proves the robustness contract of the dataplane (§4.5 of
    the paper: a malicious or unlucky peer "can only hurt itself"):

    - frame conservation at the tap:
      [tap_frames + wire_dups = tap_forwarded + wire_drops + flap_drops];
    - frame conservation at every NIC while faults are armed:
      offered ([rx_frames + rx_drops + rx_filtered]) deltas equal the
      tap's forwarded count;
    - every received packet lands in exactly one dataplane bucket:
      [rx_pkts = tcp.rx_segs + rx_csum_drops + rx_other];
    - every injected handler crash was contained and counted:
      [faults.app_crashes = sum dataplane.*.app_faults];
    - every connection left with a recorded close reason:
      [connects + accepts = closed_normal + reset + timeout + refused];
    - nothing leaked: flow tables empty, all mempools back to
      [live_count = 0], no mbufs parked on unresolved ARP entries.

    Each leg is a self-contained simulation, so legs fan out over a
    {!Engine.Domain_pool} and the identical seed produces bit-identical
    [snapshot] strings at any [jobs] count. *)

type leg = {
  leg_name : string;
  messages : int;  (** client-side completed operations *)
  aborted : int;  (** connections force-reset by the drain sweep *)
  app_crashes : int;  (** injected handler faults (all contained) *)
  wire_losses : int;  (** frames destroyed on the wire (drops + flaps) *)
  migrated : int;  (** flow-group migrations completed mid-soak *)
  audit_failures : string list;  (** empty iff the audit passed *)
  snapshot : string;
      (** canonical full-precision end state: every metric of every
          host plus the fault counters — two runs of the same leg with
          the same seed must produce byte-identical strings *)
}

val echo_leg :
  ?seed:int ->
  ?spec:Ix_faults.Fault_plan.spec ->
  ?soak_ms:int ->
  ?server_threads:int ->
  ?elastic_steps:int list ->
  unit ->
  leg
(** A 64 B echo soak of 24 client sessions: warm up fault-free (so
    ARP resolves and the working set establishes), arm the plan, soak
    for [soak_ms], stop the clients, force-abort every surviving
    connection on every host, run to quiescence and audit.

    [elastic_steps] (default none) schedules live-core transitions
    evenly across the fault window: each entry is a target elastic
    thread count handed to {!Ix_core.Control_plane.set_elastic_threads}
    while the plan is mangling the wire, so the end-of-run audit also
    proves flow-group migration loses no frame, leaks no mbuf and
    strands no connection under drops, reorders and link flaps
    ([migrated] counts the completed migrations). *)

val memcached_leg :
  ?seed:int ->
  spec:Ix_faults.Fault_plan.spec ->
  ?soak_ms:int ->
  unit ->
  leg
(** A mutilate-driven memcached soak, 48 connections against a 2-thread
    server, under [spec]'s wire and hardware faults (handler crashes
    are an echo-leg concern; the KV handler is the stock application).
    Same drain + audit discipline. *)

val run :
  ?jobs:int ->
  ?seed:int ->
  ?spec:Ix_faults.Fault_plan.spec ->
  ?soak_ms:int ->
  ?echo_legs:int ->
  ?quiet:bool ->
  unit ->
  leg list
(** The full soak: [echo_legs] echo legs on distinct seeds plus one
    memcached leg, fanned over [jobs] domains, followed by a summary
    table (suppressed by [quiet]).  Returns the legs in submission
    order.  Raises [Failure] if any leg's audit failed. *)
