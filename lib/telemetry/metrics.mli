(** The metrics registry: counters, gauges and log-linear histograms
    under hierarchical dot-separated names.

    Naming convention: [component.instance.metric], e.g.
    [dataplane.0.rx_pkts], [nic.1.q3.doorbells], [tcp.2.rx_segs].
    Every stack of the reproduction owns one registry and publishes it
    through the portable {!Netapi.Net_api.stack} interface as a
    {!snapshot}, so the harness never reaches into stack internals.

    Hot-path discipline: register once (a hash lookup), then update the
    returned cell — [incr]/[add] on a {!counter} and
    {!Log_hist.record} on a histogram are plain field updates. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter
(** A registered, monotonically increasing counter cell. *)

val counter : t -> string -> counter
(** [counter t name] registers (or re-fetches) the counter [name].
    Raises [Invalid_argument] if [name] is registered as another
    metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counter_value : t -> string -> int
(** Current value of counter [name]; [0] when absent (missing metrics
    read as zero, they are never created by a read). *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
(** Set gauge [name] to a level (registers it on first use). *)

val probe : t -> string -> (unit -> float) -> unit
(** Register a callback gauge: the function is sampled at
    {!snapshot}/{!gauge_value} time.  Re-registering replaces the
    previous probe. *)

val gauge_value : t -> string -> float
(** Current gauge level; [0.] when absent. *)

(** {1 Histograms} *)

val histogram : t -> string -> Log_hist.t
(** Register (or re-fetch) histogram [name]; record samples directly on
    the returned {!Log_hist.t}. *)

(** {1 Snapshots} *)

type hist_summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_summary

type snapshot = (string * value_snapshot) list
(** Sorted by name; probes sampled at snapshot time. *)

val snapshot : ?prefix:string -> t -> snapshot
(** All metrics, sorted by hierarchical name; [?prefix] keeps only
    names equal to [prefix] or below it ([prefix] followed by [.]). *)

val snap_counter : snapshot -> string -> int
(** [0] when absent or not a counter. *)

val snap_gauge : snapshot -> string -> float
(** [0.] when absent or not a gauge. *)

val pp_value : Format.formatter -> value_snapshot -> unit
