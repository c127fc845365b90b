(** The stack-portable application interface.

    The benchmark applications (echo, NetPIPE, memcached) are written
    once against this interface and run unchanged over the IX dataplane
    (libix implements it directly), the Linux baseline stack and the
    mTCP baseline stack — mirroring how the paper ports the same
    benchmarks across systems.  All three stacks run the same TCP
    ([Ixtcp]), so its types (the close reason) are this interface's.

    Payloads are delivered as [string]s; whether a copy was *charged*
    (and where) is each stack's own business, which is exactly the
    zero-copy-vs-copying distinction under study.

    {b Threads come and go.}  With elastic scaling (DESIGN.md §8) the
    set of threads actively carrying traffic changes during a run, so
    the interface distinguishes {e provisioned slots} from {e live
    threads}.  A thread index names a provisioned slot in
    [0, capacity); slots never disappear, so an index captured at setup
    stays valid for the whole run.  [live] is how many of those slots
    currently own flow groups — purely informational for applications
    (parked slots still execute [run_app]/[connect] work; they simply
    receive no fresh inbound flows until scaled back in). *)

type close_reason = Ixtcp.Tcb.close_reason =
  | Normal
  | Reset
  | Timeout
  | Refused
(** Why a connection died: orderly FIN exchange, peer RST,
    retransmission-limit timeout, or connection refused. *)

val close_reason_name : close_reason -> string

type census = {
  capacity : int;  (** provisioned slots; fixed for the run *)
  live : int;  (** slots currently owning flow groups; [<= capacity] *)
}
(** The thread census at one instant.  Static stacks (Linux, mTCP, IX
    without elastic scaling) always report [live = capacity]. *)

type conn = {
  id : int;
      (** unique within the stack and {e stable across migration}: the
          same value before and after the connection moves threads *)
  send : string -> bool;
      (** queue data; [false] if the stack refused (buffer policy) *)
  close : unit -> unit;  (** orderly close *)
  abort : unit -> unit;  (** hard close (RST) *)
  peer : Ixnet.Ip_addr.t * int;
  home : unit -> int;
      (** the slot currently owning this connection — where its
          handlers run.  May change between callbacks when the control
          plane migrates the flow group; never changes {e during} a
          callback.  Static stacks return the accepting/connecting
          thread forever. *)
}

type handlers = {
  on_connected : conn -> ok:bool -> unit;
  on_data : conn -> string -> unit;
  on_sent : conn -> int -> unit;  (** bytes acknowledged end-to-end *)
  on_closed : conn -> close_reason -> unit;
}

val null_handlers : handlers

val inert_conn : peer:Ixnet.Ip_addr.t * int -> home:(unit -> int) -> conn
(** A connection that carries nothing: [id = -1], [send] refuses every
    write, [close] and [abort] do nothing.  Stacks hand it to a failed
    connect's [on_connected] and use it as filler for unused slots. *)

type stack = {
  name : string;
  threads : unit -> census;
      (** the census {e now}; [capacity] is constant, [live] moves with
          elastic decisions.  Use {!capacity}/{!live_threads} for the
          common projections. *)
  connect :
    thread:int -> ip:Ixnet.Ip_addr.t -> port:int -> handlers -> unit;
      (** open a connection from the given slot.  Valid for any slot in
          [0, capacity), live or parked: a parked slot can originate
          traffic (its outbound flows are homed by RSS like any
          other). *)
  listen : port:int -> (thread:int -> conn -> handlers) -> unit;
      (** serve [port] on every {e provisioned} slot — acceptors must be
          armed on all of them, because a scale-up can route fresh
          connections to a slot that was parked when [listen] ran.  The
          acceptor's [thread] is the slot the connection landed on. *)
  run_app : thread:int -> (unit -> unit) -> unit;
      (** execute application code in the stack's app context (IX: user
          phase; Linux: app thread; mTCP: app-thread round) — timed
          client actions (open-loop senders) go through this.  Valid on
          any provisioned slot, live or parked. *)
  charge_app : thread:int -> int -> unit;
      (** account [ns] of application compute time *)
  metrics : unit -> Ixtelemetry.Metrics.snapshot;
      (** snapshot of the stack's telemetry registry — the portable way
          to read counters and CPU accounting.  Every stack publishes at
          least the gauges ["kernel_share"] (fraction of busy CPU time in
          the kernel/dataplane domain) and ["busy_ns"] (total non-idle
          CPU ns), plus its own hierarchical counters. *)
  conn_count : unit -> int;  (** live connections across all threads *)
}

val capacity : stack -> int
(** [capacity (stack.threads ())] — provisioned slots.  Spread setup
    work (listeners, per-slot client loops) over this. *)

val live_threads : stack -> int
(** [live (stack.threads ())] — slots currently carrying flow groups. *)

val static_census : int -> unit -> census
(** [static_census n] is the census closure for a stack whose [n]
    threads never change: [capacity = live = n].  The Linux and mTCP
    baselines (and any IX host without elastic scaling) use this. *)

val kernel_share : stack -> float
(** The ["kernel_share"] gauge from a fresh {!field-stack.metrics}
    snapshot: the fraction of busy CPU time spent in the
    kernel/dataplane domain. *)

val busy_ns : stack -> int
(** The ["busy_ns"] gauge from a fresh metrics snapshot. *)
