(** The paper's evaluation (§5) as data: every table and figure is a
    list of {!Scenario.t} points plus a formatter that turns their
    results into the table text.  Absolute numbers come from the
    calibrated cost models; the claims under reproduction are the
    *shapes* (who wins, by what factor, where crossovers fall) — see
    EXPERIMENTS.md.

    Both CLIs dispatch through {!figures}.  Runners read no environment:
    the CLIs parse [IX_BENCH_SCALE]/[IX_BENCH_JOBS] once with {!env} and
    pass [scale] and [jobs] down as values. *)

type output = { metrics : bool; trace : string option }
(** Telemetry for a run (the CLIs' [--metrics]/[--trace] flags).  With
    [metrics], each run adds a Table-2-style per-stage cycle breakdown
    (IX servers) and the server's metric snapshot to the figure's text;
    with [trace = Some path], the server's retained cycle spans are
    written there as Chrome [trace_event] JSON.  Requesting either runs
    the points sequentially so their output stays in order. *)

val default_output : output
(** [{ metrics = false; trace = None }]. *)

val parse_scale : string -> (float, string) result
(** A positive number, raised to the 0.05 floor. *)

val parse_jobs : string -> (int, string) result
(** A positive integer. *)

val env : unit -> (float * int, string) result
(** [(scale, jobs)] from [IX_BENCH_SCALE] (default 1.0) and
    [IX_BENCH_JOBS] (default 1); the error names the variable. *)

val gc_meter : string -> unit -> unit
(** [gc_meter label] starts counting; calling the result prints
    ["[label: …]"] with the minor/major words and minor collections
    since, per million simulated events. *)

val telemetry :
  output:output -> label:string -> Scenario.t -> Scenario.Result.t -> string
(** The requested telemetry text for one run ([""] when [output] asks
    for none); [label] names the configuration. *)

type sweep = {
  name : string;
  points : scale:float -> (string * Scenario.t) list;
      (** labelled scenarios, in table order *)
  table : (string * Scenario.t * Scenario.Result.t) list -> string;
}

type figure =
  | Sweep of sweep
  | Single of { name : string; run : output:output -> scale:float -> string }
      (** a bespoke simulation (elastic scaling, cycle breakdown) *)

val figures : figure list
(** fig2, fig3a (with a speedup-vs-1-core column), fig3b, fig3c, fig4,
    fig5, fig6, batch-sweep, table2 (prints fig5 first), ablations,
    incast, energy, elastic, breakdown. *)

val figure_name : figure -> string

val select : string -> figure list option
(** One figure by name, or ["all"]: every figure except fig5, whose
    sweep table2 already prints. *)

val render : output:output -> scale:float -> jobs:int -> figure -> string
(** Run a figure and return its text.  A sweep fans its points over
    [jobs] domains via {!Engine.Domain_pool}; the text is identical at
    any width. *)

val echo_breakdown :
  output:output ->
  cores:int ->
  msg_size:int ->
  scale:float ->
  (Ixtelemetry.Tracer.stage * int * int) list * int * string
(** A short IX echo's Table-2-style cycle breakdown: per-stage
    [(stage, total_ns, spans)] over all threads, the cores' total busy
    time (kernel + user ns), which the rows sum to exactly, and the
    table text. *)

type elastic_result = {
  el_samples : Ix_core.Elastic.sample list;
  el_decisions : Ix_core.Elastic.decision list;
  el_peak_cores : int;  (** most live cores any controller sample saw *)
  el_final_cores : int;  (** live cores when the trace ended *)
  el_migrations : int;  (** completed flow-group migrations *)
  el_parked_frames : int;  (** frames parked (and replayed) across them *)
  el_slo_p99_us : float;  (** the SLO the controller held *)
  el_burst_breaches : int;
      (** burst-phase controller windows whose p99 still exceeded the
          SLO after the controller's settle time — 0 means the SLO held
          across the burst *)
  el_energy_j : float;  (** energy of the cores-used curve *)
  el_static_energy_j : float;  (** all-capacity-always-on reference *)
  el_msgs : int;
}

val elastic_scaling : output:output -> scale:float -> elastic_result * string
(** The elastic-scaling experiment (DESIGN.md §8): a bursty load trace
    against one IX host with 4 provisioned dataplanes starting on one
    live core.  The {!Ix_core.Elastic} loop (utilization + windowed
    p99, with hysteresis) walks the core count up into the burst and
    back; every decision is a set of no-drop flow-group migrations.
    Returns the result and the cores-used curve and summary tables. *)
