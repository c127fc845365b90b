module Nic = Ixhw.Nic

let log = Logs.Src.create "ix.ctlplane" ~doc:"IXCP control plane"

module Log = (val Logs.src_log log)

type report = {
  thread : int;
  flows : int;
  mean_batch : float;
  rx_queue_depth : int;
  kernel_share : float;
  nonresponsive : int;
}

type t = {
  h : Ix_host.t;
  mutable active : int;
  mutable rebalance_count : int;
  mutable migrating : int list;  (* groups with a handover in flight *)
  mutable migrations_started : int;
  mutable migrations_completed : int;
  mutable last_migration_ns : int;  (* retarget -> handover latency *)
  mutable total_migration_ns : int;
  c_migrations : Ixtelemetry.Metrics.counter;
  c_parked_frames : Ixtelemetry.Metrics.counter;
}

let create h =
  let c name = Ixtelemetry.Metrics.counter (Ix_host.metrics h) ("cp." ^ name) in
  {
    h;
    active = Ix_host.thread_count h;
    rebalance_count = 0;
    migrating = [];
    migrations_started = 0;
    migrations_completed = 0;
    last_migration_ns = 0;
    total_migration_ns = 0;
    c_migrations = c "migrations";
    c_parked_frames = c "parked_frames";
  }

let host t = t.h
let active_threads t = t.active

(* Migrate one RSS flow group to [dst] without dropping a frame.  The
   protocol (DESIGN.md §8):

   1. The destination parks the group: arriving frames of the group
      are held aside in arrival order instead of hitting a flow table
      that does not own the TCBs yet.
   2. The indirection entry is rewritten on every NIC (the hardware
      write; one counted [rss_retarget] per NIC) and the placement map
      is RCU-published.  From this instant no new frame of the group
      can reach the source.
   3. After the RCU grace period (every elastic thread passed the end
      of a run-to-completion cycle), the source waits until every frame
      steered to it *before* the retarget has drained — rings popped
      past their retarget-time watermarks, nothing staged.  An idle
      source satisfies this immediately; a busy one is polled by a
      cycle watcher.
   4. Handover: TCBs (flow-table entries, handles, pending timers) and
      their libix conns move to the destination in one step; the parked
      frames replay ahead of the destination's next poll, preserving
      arrival order end to end. *)
let migrate_flow_group t ~group ~dst =
  let total = Ix_host.thread_count t.h in
  if group < 0 || group >= Nic.indirection_entries then
    invalid_arg "Control_plane.migrate_flow_group: group";
  if dst < 0 || dst >= total then
    invalid_arg "Control_plane.migrate_flow_group: dst";
  let src_thread = Ix_host.group_home t.h group in
  if src_thread <> dst && not (List.mem group t.migrating) then begin
    let src = Ix_host.dataplane t.h src_thread in
    let dstp = Ix_host.dataplane t.h dst in
    t.migrating <- group :: t.migrating;
    t.migrations_started <- t.migrations_started + 1;
    let t0 = Engine.Sim.now (Ix_host.sim t.h) in
    (* (1) park before the retarget: no window where a rerouted frame
       can miss both the parking check and the flow table. *)
    Dataplane.park_inbound dstp ~group;
    (* (2) the hardware write, per NIC... *)
    Array.iter
      (fun nic -> Nic.set_indirection_entry nic ~group ~queue:dst)
      (Ix_host.nics t.h);
    let marks = Dataplane.rx_watermarks src in
    let complete () =
      let cookies = Dataplane.migrate_group_to src dstp ~group in
      ignore
        (Libix.migrate_conns
           ~src:(Ix_host.libix t.h src_thread)
           ~dst:(Ix_host.libix t.h dst) cookies);
      let parked = Dataplane.unpark_inbound dstp ~group in
      Ixtelemetry.Metrics.add t.c_parked_frames parked;
      Ixtelemetry.Metrics.incr t.c_migrations;
      t.migrating <- List.filter (fun g -> g <> group) t.migrating;
      t.migrations_completed <- t.migrations_completed + 1;
      let latency = Engine.Sim.now (Ix_host.sim t.h) - t0 in
      t.last_migration_ns <- latency;
      t.total_migration_ns <- t.total_migration_ns + latency;
      Log.debug (fun m ->
          m "group %d: %d -> %d handed over (%d conns, %d parked frames, %d ns)"
            group src_thread dst (List.length cookies) parked latency)
    in
    (* (2b) ...and the RCU publish; (3)+(4) run after the grace period. *)
    Ix_host.publish_group_home t.h ~group ~thread:dst ~retired:(fun () ->
        if Dataplane.drained_past src marks then complete ()
        else
          Dataplane.add_cycle_watcher src (fun () ->
              if Dataplane.drained_past src marks then begin
                complete ();
                true
              end
              else false))
  end

let migrations_in_flight t = List.length t.migrating
let migrations_completed t = t.migrations_completed
let last_migration_ns t = t.last_migration_ns
let total_migration_ns t = t.total_migration_ns

(* Rebalance every group onto the live prefix [0, n): group g belongs
   to thread [g mod n].  Per-group migration keys each flow by its
   actual RSS group, so frames and flows can never disagree about a
   group's home (moving whole threads could: thread i's flows would go
   to [i mod n] while frames steer to [g mod n]). *)
let set_elastic_threads t n =
  let total = Ix_host.thread_count t.h in
  if n < 1 || n > total then invalid_arg "Control_plane.set_elastic_threads";
  if n <> t.active then begin
    t.active <- n;
    Ix_host.set_live_threads t.h n;
    for group = 0 to Nic.indirection_entries - 1 do
      let target = group mod n in
      if Ix_host.group_home t.h group <> target then
        migrate_flow_group t ~group ~dst:target
    done;
    t.rebalance_count <- t.rebalance_count + 1;
    Log.info (fun m -> m "elastic threads set to %d" n)
  end

let add_core t =
  if t.active < Ix_host.thread_count t.h then begin
    set_elastic_threads t (t.active + 1);
    true
  end
  else false

let remove_core t =
  if t.active > 1 then begin
    set_elastic_threads t (t.active - 1);
    true
  end
  else false

let monitor t =
  let reports = ref [] in
  for i = Ix_host.thread_count t.h - 1 downto 0 do
    let dp = Ix_host.dataplane t.h i in
    let core = Dataplane.core dp in
    let rx_depth =
      Array.fold_left
        (fun acc nic -> acc + Nic.rx_pending (Nic.queue nic i))
        0 (Ix_host.nics t.h)
    in
    reports :=
      {
        thread = i;
        flows = Dataplane.flows dp;
        mean_batch = Batch.mean_batch (Dataplane.batcher dp);
        rx_queue_depth = rx_depth;
        kernel_share = Ixhw.Cpu_core.kernel_share core;
        nonresponsive = Dataplane.nonresponsive_marks dp;
      }
      :: !reports
  done;
  !reports

let congested t =
  let reports = monitor t in
  List.exists
    (fun r ->
      let bound =
        Batch.bound (Dataplane.batcher (Ix_host.dataplane t.h r.thread))
      in
      r.mean_batch >= 0.75 *. float_of_int bound)
    reports

let posix_passthrough t ~thread =
  let dp = Ix_host.dataplane t.h thread in
  Protection.control_plane_call (Dataplane.protection dp)

let rebalances t = t.rebalance_count
