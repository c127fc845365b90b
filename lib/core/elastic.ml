(* The elastic core-allocation policy loop (§4.4 direction, and the
   dynamic-allocation line IX's successors took): a periodic controller
   that watches dataplane utilization and an application-level p99
   signal, and asks the control plane for cores when the SLO is at risk
   or hands them back when the machine idles.

   Hysteresis: a scale decision needs [settle_checks] consecutive
   agreeing samples, and any decision resets both streaks — so one
   noisy interval can neither add nor remove a core, and the loop
   cannot flap add/remove/add on a load edge. *)

module Sim = Engine.Sim
module Cpu_core = Ixhw.Cpu_core

type config = {
  interval_ns : int;  (** controller period *)
  slo_p99_ns : float;  (** p99 target; breach pressures an add *)
  add_util : float;  (** mean live-core utilization that pressures an add *)
  remove_util : float;  (** utilization under which a core may be removed *)
  settle_checks : int;  (** consecutive agreeing samples before acting *)
  min_cores : int;
  max_cores : int;
}

let default_config =
  {
    interval_ns = 200_000 (* 200 us *);
    slo_p99_ns = 300_000. (* 300 us *);
    add_util = 0.85;
    remove_util = 0.30;
    settle_checks = 3;
    min_cores = 1;
    max_cores = max_int;
  }

type sample = {
  at_ns : int;
  cores : int;  (** live cores over the interval just ended *)
  util : float;  (** mean utilization of those cores *)
  p99_ns : float;  (** observed p99 over the interval; nan if no signal *)
}

type decision = { decided_at_ns : int; cores_after : int }

type t = {
  sim : Sim.t;
  cp : Control_plane.t;
  cfg : config;
  p99_probe : unit -> float option;
  mutable prev_busy : int array;  (* busy_ns_total per provisioned core *)
  mutable high_streak : int;
  mutable low_streak : int;
  mutable samples : sample list;  (* reversed *)
  mutable decisions : decision list;  (* reversed *)
  mutable stopped : bool;
}

let busy_snapshot cp =
  let h = Control_plane.host cp in
  Array.init (Ix_host.thread_count h) (fun i ->
      Cpu_core.busy_ns_total (Dataplane.core (Ix_host.dataplane h i)))

let utilization t =
  let live = Control_plane.active_threads t.cp in
  let next = busy_snapshot t.cp in
  let busy = ref 0 in
  for i = 0 to live - 1 do
    busy := !busy + (next.(i) - t.prev_busy.(i))
  done;
  t.prev_busy <- next;
  float_of_int !busy /. (float_of_int t.cfg.interval_ns *. float_of_int live)

let check t =
  if not t.stopped then begin
    let live = Control_plane.active_threads t.cp in
    let util = utilization t in
    let p99 = match t.p99_probe () with Some v -> v | None -> Float.nan in
    t.samples <-
      { at_ns = Sim.now t.sim; cores = live; util; p99_ns = p99 } :: t.samples;
    let slo_breached = (not (Float.is_nan p99)) && p99 > t.cfg.slo_p99_ns in
    let overloaded = util > t.cfg.add_util || slo_breached in
    let underloaded =
      util < t.cfg.remove_util
      && ((not slo_breached)
         && (Float.is_nan p99 || p99 < 0.7 *. t.cfg.slo_p99_ns))
    in
    if overloaded then begin
      t.low_streak <- 0;
      t.high_streak <- t.high_streak + 1
    end
    else if underloaded then begin
      t.high_streak <- 0;
      t.low_streak <- t.low_streak + 1
    end
    else begin
      t.high_streak <- 0;
      t.low_streak <- 0
    end;
    let cap =
      Int.min t.cfg.max_cores (Ix_host.thread_count (Control_plane.host t.cp))
    in
    if t.high_streak >= t.cfg.settle_checks && live < cap then begin
      if Control_plane.add_core t.cp then
        t.decisions <-
          { decided_at_ns = Sim.now t.sim; cores_after = live + 1 }
          :: t.decisions;
      t.high_streak <- 0;
      t.low_streak <- 0
    end
    else if t.low_streak >= t.cfg.settle_checks && live > t.cfg.min_cores
    then begin
      if Control_plane.remove_core t.cp then
        t.decisions <-
          { decided_at_ns = Sim.now t.sim; cores_after = live - 1 }
          :: t.decisions;
      t.high_streak <- 0;
      t.low_streak <- 0
    end
  end

let rec arm t =
  Sim.after t.sim t.cfg.interval_ns (fun () ->
      if not t.stopped then begin
        check t;
        arm t
      end)

let start ~sim ~cp ?(config = default_config)
    ?(p99_probe = fun () -> None) () =
  let t =
    {
      sim;
      cp;
      cfg = config;
      p99_probe;
      prev_busy = busy_snapshot cp;
      high_streak = 0;
      low_streak = 0;
      samples = [];
      decisions = [];
      stopped = false;
    }
  in
  arm t;
  t

let stop t = t.stopped <- true
let samples t = List.rev t.samples
let decisions t = List.rev t.decisions

(* Energy of a trace: live cores burn [active_w] each, parked
   provisioned cores [idle_w] each.  Integrates the cores-used curve
   over the sample intervals. *)
let energy_joules t ~capacity ~active_w ~idle_w =
  let interval_s = float_of_int t.cfg.interval_ns *. 1e-9 in
  List.fold_left
    (fun acc s ->
      acc
      +. interval_s
         *. ((float_of_int s.cores *. active_w)
            +. (float_of_int (capacity - s.cores) *. idle_w)))
    0. (samples t)
