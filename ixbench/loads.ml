(* The four workloads.  Each [*_rep] builds everything from scratch,
   runs a fixed amount of simulated work and returns one [Measure.rep];
   for a given seed every field but the wall-clock ones is identical
   from one repetition to the next. *)

module Sim = Engine.Sim
module Sim_time = Engine.Sim_time
module Net_api = Netapi.Net_api
module Cluster = Harness.Cluster
module Kv = Apps.Kv_protocol
open Measure

(* Gc readings around a measured phase. *)
type gc_mark = { mw : float; majw : float; gcs : int }

let gc_mark () =
  let _, _, majw = Gc.counters () in
  { mw = Gc.minor_words (); majw; gcs = (Gc.quick_stat ()).Gc.minor_collections }

let model_of ~ops ~window_ns samples =
  let p50, p99, n = latency_summary samples in
  (ratio (float_of_int ops) (Sim_time.to_float_s window_ns), p50, p99, n)

let make_rep ~setup_s ~phases ~measure_s ~ops ~attempted ~failed ~(g0 : gc_mark)
    ~(g1 : gc_mark) ~model ~counters ~latencies =
  let mops, p50, p99, n = model in
  let minor_words = g1.mw -. g0.mw in
  let events = int_of_float (Layers.get counters "sim.events") in
  {
    setup_s;
    phases;
    measure_s;
    probe_ns = 0.;
    ops;
    attempted;
    failed;
    minor_words;
    peak_rss_mb = peak_rss_mb ();
    major_words = g1.majw -. g0.majw;
    minor_gcs = g1.gcs - g0.gcs;
    events;
    model_ops_per_s = mops;
    model_p50_us = p50;
    model_p99_us = p99;
    model_samples = n;
    counters;
    latencies;
    digest = digest_of ~ops ~attempted ~failed ~events ~model ~counters;
  }

(* ------------------------------------------------------------------ *)
(* echo-64b-4core: closed-loop small-message RPC                       *)

type echo_cfg = {
  cores : int;
  client_hosts : int;
  client_threads : int;
  sessions : int;
  msgs_per_conn : int;
  msg_size : int;
  warmup_ms : int;
  measure_ms : int;
}

let echo_port = 7000

(* [on_build] sees the cluster before any traffic: the traced run
   installs its taps there. *)
let echo_rep ?(on_build = ignore) ~seed cfg =
  let t0 = now_ns () in
  let server = Cluster.server_spec ~threads:cfg.cores ~nic_ports:1 Cluster.Ix in
  let c =
    Cluster.build ~seed ~client_hosts:cfg.client_hosts
      ~client_threads:cfg.client_threads ~server ()
  in
  let t_built = now_ns () in
  on_build c;
  let sim = c.Cluster.sim in
  let now () = Sim.now sim in
  let warm = Sim_time.ms cfg.warmup_ms in
  let stop = warm + Sim_time.ms cfg.measure_ms in
  Apps.Echo.server c.Cluster.server ~port:echo_port ~msg_size:cfg.msg_size ~app_ns:150;
  (* Every (session, round) sends its own payload, so a misrouted or
     corrupted echo cannot match by accident. *)
  let payloads =
    Array.init cfg.sessions (fun s ->
        Array.init cfg.msgs_per_conn (fun r ->
            String.init cfg.msg_size (fun i ->
                Char.chr (33 + ((seed + (s * 7) + (r * 13) + (i * 3)) mod 90)))))
  in
  let lat = Samples.create () in
  let completed = ref 0 and connect_failures = ref 0 and refused = ref 0 in
  let sent = ref 0 and echoed = ref 0 and bad = ref 0 in
  let in_window t = t >= warm && t < stop in
  let clients = Array.of_list c.Cluster.clients in
  let rng = Engine.Rng.create ~seed:(seed + 17) in
  let send conn msg =
    incr sent;
    if not (conn.Net_api.send msg) then incr refused
  in
  let start_sessions sid stack thread =
    let rec session () =
      let round = ref 0 and got = ref 0 and sent_at = ref 0 in
      let handlers =
        {
          Net_api.on_connected =
            (fun conn ~ok ->
              if ok then begin
                sent_at := now ();
                send conn payloads.(sid).(0)
              end
              else if in_window (now ()) then incr connect_failures);
          on_data =
            (fun conn data ->
              let expect = payloads.(sid).(!round) in
              let n = String.length data in
              if !got + n > cfg.msg_size then incr bad
              else
                for i = 0 to n - 1 do
                  if String.unsafe_get data i <> String.unsafe_get expect (!got + i) then incr bad
                done;
              got := !got + n;
              if !got >= cfg.msg_size then begin
                got := 0;
                incr echoed;
                let t = now () in
                if in_window t then begin
                  incr completed;
                  Samples.add lat (t - !sent_at)
                end;
                incr round;
                if !round < cfg.msgs_per_conn then begin
                  sent_at := t;
                  send conn payloads.(sid).(!round)
                end
                else begin
                  (* Reset, as the paper's echo clients do, and reconnect. *)
                  conn.Net_api.abort ();
                  if t < stop then session ()
                end
              end);
          on_sent = (fun _ _ -> ());
          on_closed = (fun _ _ -> ());
        }
      in
      stack.Net_api.connect ~thread ~ip:c.Cluster.server_ip ~port:echo_port handlers
    in
    stack.Net_api.run_app ~thread session
  in
  (* Ramp the sessions over the first half of the warm-up. *)
  let spacing = max 1 (warm / (2 * cfg.sessions)) in
  for s = 0 to cfg.sessions - 1 do
    let stack = clients.(s mod Array.length clients) in
    let thread = s / Array.length clients mod cfg.client_threads in
    let at = (s * spacing) + Engine.Rng.int rng spacing in
    ignore (Sim.at sim at (fun () -> start_sessions s stack thread))
  done;
  Sim.run ~until:warm sim;
  let t_warm = now_ns () in
  let before = Layers.read c in
  let g0 = gc_mark () in
  Sim.run ~until:stop sim;
  let g1 = gc_mark () in
  let t_end = now_ns () in
  let after = Layers.read c in
  check (!bad = 0) "echo: %d echoed bytes differ from what was sent" !bad;
  check
    (!echoed <= !sent && !sent - !echoed <= cfg.sessions)
    "echo: %d messages sent but %d echoed (%d sessions)" !sent !echoed cfg.sessions;
  check (!completed > 0) "echo: no round trip completed in the window";
  let counters = Layers.delta ~before ~after in
  let busy = Layers.get counters "busy_ns" in
  let counters =
    counters
    @ [ ("cpu_util", ratio busy (float_of_int (cfg.cores * (stop - warm)))) ]
  in
  make_rep ~setup_s:(seconds_between t0 t_warm)
    ~phases:
      [
        ("harness.cluster_build_s", seconds_between t0 t_built);
        ("harness.warmup_s", seconds_between t_built t_warm);
      ]
    ~measure_s:(seconds_between t_warm t_end)
    ~ops:!completed
    ~attempted:(!completed + !connect_failures + !refused)
    ~failed:(!connect_failures + !refused)
    ~g0 ~g1
    ~model:(model_of ~ops:!completed ~window_ns:(stop - warm) lat)
    ~counters ~latencies:lat

(* ------------------------------------------------------------------ *)
(* memcached-etc-open: open-loop Poisson KV load with verified GETs    *)

type kv_cfg = {
  threads : int;
  kv_client_hosts : int;
  kv_client_threads : int;
  conns : int;
  rps : float;
  pipeline : int;
  kv_warmup_ms : int;
  kv_measure_ms : int;
}

let kv_port = 11211

(* Values are a pure function of (seed, key rank, version): version 0
   is the preloaded value, version v the v-th SET of that key.  SETs of
   one key on different connections may reach the server out of version
   order, so a GET may see an older version than one already
   acknowledged.  What it may not see is anything older than a SET [u]
   that was acknowledged before the GET was sent and was itself sent
   only after every lower version had been acknowledged: all of those
   were applied before [u], and [u] before the GET.  A GET is correct
   when it returns the value of a version between that floor and the
   last SET issued. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1B873593 in
  (x lxor (x lsr 32)) land max_int

(* ETC value sizes: 60 % uniform in 1..64 B, the rest log-uniform in
   64..1024 B. *)
let value_len ~seed ~rank ~version =
  let h = mix ((seed * 1_000_003) + (rank * 7_919) + version) in
  if h mod 100 < 60 then 1 + (h / 100 mod 64)
  else
    let u = float_of_int (h / 100 mod 1_000_000) /. 1e6 in
    int_of_float (64. *. (2. ** (4. *. u)))

let value_char ~rank ~version i = Char.unsafe_chr (97 + (((rank * 31) + (version * 17) + i) mod 26))

let make_value ~seed ~rank ~version =
  String.init (value_len ~seed ~rank ~version) (value_char ~rank ~version)

let value_is ~seed ~rank ~version s =
  String.length s = value_len ~seed ~rank ~version
  &&
  let ok = ref true in
  String.iteri (fun i ch -> if ch <> value_char ~rank ~version i then ok := false) s;
  !ok

type req = {
  reqid : int;
  rank : int;
  get : bool;
  version : int;  (** SET: the version written *)
  intended : int;  (** scheduled send time (open loop) *)
  mutable floor : int;  (** GET: the key's floor version when sent *)
  mutable ordered : bool;  (** SET: every lower version was acknowledged when sent *)
}

type kv_conn = {
  stack : Net_api.stack;
  thread : int;
  mutable conn : Net_api.conn option;
  parser : Kv.Parser.t;
  mutable outstanding : int;
  backlog : req Queue.t;
  inflight : req Queue.t;  (** sent, in send order: responses come back in it *)
}

let kv_rep ?(on_build = ignore) ~seed cfg =
  let profile = Workloads.Size_dist.etc in
  let keys = profile.Workloads.Size_dist.key_space in
  let t0 = now_ns () in
  let server = Cluster.server_spec ~threads:cfg.threads ~nic_ports:1 Cluster.Ix in
  let c =
    Cluster.build ~seed ~client_hosts:cfg.kv_client_hosts
      ~client_threads:cfg.kv_client_threads ~server ()
  in
  let t_built = now_ns () in
  on_build c;
  let sim = c.Cluster.sim in
  let now () = Sim.now sim in
  let mc = Apps.Memcached.server c.Cluster.server ~now:(Cluster.now c) ~port:kv_port () in
  let key = Array.init (keys + 1) (fun rank -> Workloads.Keygen.key ~profile ~rank) in
  for rank = 1 to keys do
    Apps.Memcached.insert mc key.(rank) (make_value ~seed ~rank ~version:0)
  done;
  let t_loaded = now_ns () in
  let issued_v = Array.make (keys + 1) 0 and floor_v = Array.make (keys + 1) 0 in
  (* Per key: every version up to [acked_prefix] is acknowledged;
     [acked_above] holds acknowledged (rank, version)s past the gap. *)
  let acked_prefix = Array.make (keys + 1) 0 and acked_above = Hashtbl.create 1024 in
  let ack rank v =
    if v = acked_prefix.(rank) + 1 then begin
      acked_prefix.(rank) <- v;
      while Hashtbl.mem acked_above (rank, acked_prefix.(rank) + 1) do
        Hashtbl.remove acked_above (rank, acked_prefix.(rank) + 1);
        acked_prefix.(rank) <- acked_prefix.(rank) + 1
      done
    end
    else Hashtbl.replace acked_above (rank, v) ()
  in
  let ramp = Sim_time.ms 4 in
  let arrivals_start = ramp + Sim_time.ms 2 in
  let window_start = arrivals_start + Sim_time.ms cfg.kv_warmup_ms in
  let window_end = window_start + Sim_time.ms cfg.kv_measure_ms in
  let rng = Engine.Rng.create ~seed:(seed + 11) in
  let zipf = Workloads.Zipf.create ~n:keys ~theta:profile.Workloads.Size_dist.zipf_theta in
  let lat = Samples.create () in
  let completed_window = ref 0 and issued_window = ref 0 and answered_window = ref 0 in
  let bad_order = ref 0 and bad_get = ref 0 and bad_set = ref 0 in
  let slots =
    List.concat_map
      (fun stack -> List.init (Net_api.capacity stack) (fun thread -> (stack, thread)))
      c.Cluster.clients
    |> Array.of_list
  in
  let states =
    Array.init cfg.conns (fun i ->
        let stack, thread = slots.(i mod Array.length slots) in
        {
          stack;
          thread;
          conn = None;
          parser = Kv.Parser.create ();
          outstanding = 0;
          backlog = Queue.create ();
          inflight = Queue.create ();
        })
  in
  let transmit st r =
    match st.conn with
    | None -> Queue.add r st.backlog
    | Some conn ->
        if r.get then r.floor <- floor_v.(r.rank)
        else r.ordered <- acked_prefix.(r.rank) >= r.version - 1;
        st.stack.Net_api.charge_app ~thread:st.thread 250;
        let value = if r.get then "" else make_value ~seed ~rank:r.rank ~version:r.version in
        let wire =
          Kv.encode_request
            { Kv.op = (if r.get then Kv.Get else Kv.Set); reqid = r.reqid; key = key.(r.rank); value }
        in
        (* A refused request is never answered, so it counts as failed. *)
        if conn.Net_api.send wire then begin
          st.outstanding <- st.outstanding + 1;
          Queue.add r st.inflight
        end
  in
  let pump st =
    while st.outstanding < cfg.pipeline && not (Queue.is_empty st.backlog) do
      transmit st (Queue.pop st.backlog)
    done
  in
  let on_response st (resp : Kv.response) =
    match Queue.take_opt st.inflight with
    | None -> incr bad_order
    | Some r ->
        st.outstanding <- st.outstanding - 1;
        if resp.Kv.reqid <> r.reqid then incr bad_order
        else if r.get then begin
          let rec seen v =
            v >= r.floor && (value_is ~seed ~rank:r.rank ~version:v resp.Kv.value || seen (v - 1))
          in
          if resp.Kv.status <> Kv.hit || not (seen issued_v.(r.rank)) then incr bad_get
        end
        else if resp.Kv.status <> Kv.stored then incr bad_set
        else begin
          ack r.rank r.version;
          if r.ordered then floor_v.(r.rank) <- max floor_v.(r.rank) r.version
        end;
        let t = now () in
        if r.intended >= window_start && r.intended < window_end then incr answered_window;
        if t >= window_start && t < window_end then begin
          incr completed_window;
          Samples.add lat (t - r.intended)
        end;
        pump st
  in
  Array.iter
    (fun st ->
      let handlers =
        {
          Net_api.on_connected =
            (fun conn ~ok ->
              if ok then begin
                st.conn <- Some conn;
                pump st
              end);
          on_data =
            (fun _ data ->
              Kv.Parser.feed st.parser data;
              let rec pull () =
                match Kv.Parser.next_response st.parser with
                | Some resp ->
                    on_response st resp;
                    pull ()
                | None -> ()
              in
              pull ());
          on_sent = (fun _ _ -> ());
          on_closed = (fun _ _ -> ());
        }
      in
      ignore
        (Sim.after sim (Engine.Rng.int rng ramp) (fun () ->
             st.stack.Net_api.connect ~thread:st.thread ~ip:c.Cluster.server_ip ~port:kv_port
               handlers)))
    states;
  let gap_mean_ns = 1e9 /. cfg.rps in
  let next_reqid = ref 0 and cursor = ref 0 in
  let rec arrival () =
    let t = now () in
    if t < window_end then begin
      let st = states.(!cursor mod cfg.conns) in
      incr cursor;
      incr next_reqid;
      let rank = Workloads.Zipf.sample zipf rng in
      let get = Engine.Rng.float rng 1.0 < profile.Workloads.Size_dist.get_fraction in
      let version =
        if get then 0
        else begin
          issued_v.(rank) <- issued_v.(rank) + 1;
          issued_v.(rank)
        end
      in
      let r = { reqid = !next_reqid; rank; get; version; intended = t; floor = 0; ordered = false } in
      if t >= window_start then incr issued_window;
      st.stack.Net_api.run_app ~thread:st.thread (fun () ->
          if st.outstanding < cfg.pipeline && Option.is_some st.conn then transmit st r
          else Queue.add r st.backlog);
      let gap = Engine.Rng.exponential rng ~mean:gap_mean_ns in
      ignore (Sim.after sim (max 1 (int_of_float gap)) arrival)
    end
  in
  ignore (Sim.at sim arrivals_start arrival);
  Sim.run ~until:window_start sim;
  let t_warm = now_ns () in
  let before = Layers.read c in
  let g0 = gc_mark () in
  Sim.run ~until:window_end sim;
  let g1 = gc_mark () in
  let t_end = now_ns () in
  let after = Layers.read c in
  (* Drain: every request issued in the window must be answered. *)
  Sim.run ~until:(window_end + Sim_time.ms 5) sim;
  check
    (!bad_order + !bad_get + !bad_set = 0)
    "memcached: wrong responses: %d out of order, %d GETs, %d SETs" !bad_order !bad_get !bad_set;
  check (!completed_window > 0) "memcached: no request completed in the window";
  let counters = Layers.delta ~before ~after in
  let busy = Layers.get counters "busy_ns" in
  let counters =
    counters
    @ [
        ("cpu_util", ratio busy (float_of_int (cfg.threads * (window_end - window_start))));
        ("kv.gets", float_of_int (Apps.Memcached.gets mc));
        ("kv.hits", float_of_int (Apps.Memcached.hits mc));
      ]
  in
  make_rep ~setup_s:(seconds_between t0 t_warm)
    ~phases:
      [
        ("harness.cluster_build_s", seconds_between t0 t_built);
        ("harness.preload_s", seconds_between t_built t_loaded);
        ("harness.warmup_s", seconds_between t_loaded t_warm);
      ]
    ~measure_s:(seconds_between t_warm t_end)
    ~ops:!completed_window ~attempted:!issued_window
    ~failed:(!issued_window - !answered_window)
    ~g0 ~g1
    ~model:(model_of ~ops:!completed_window ~window_ns:(window_end - window_start) lat)
    ~counters ~latencies:lat

(* ------------------------------------------------------------------ *)
(* conn-churn: Conn_scale with SYN cookies                             *)

type churn_cfg = { churn_conns : int; churn_events : int; warm_conns : int; warm_events : int }

(* Conn_scale's own clock: each churn event advances it by 2 µs. *)
let churn_event_ns = 2_000

let snapshot_field snapshot name =
  let prefix = name ^ "=" in
  List.find_map
    (fun w ->
      if String.starts_with ~prefix w then
        int_of_string_opt (String.sub w (String.length prefix) (String.length w - String.length prefix))
      else None)
    (String.split_on_char ' ' snapshot)
  |> Option.value ~default:0

let check_churn (r : Workloads.Conn_scale.result) =
  let open Workloads.Conn_scale in
  check
    (r.r_established = r.r_conns + r.r_reconnects)
    "conn-churn: %d established, expected %d conns + %d reconnects" r.r_established r.r_conns
    r.r_reconnects;
  check (r.r_rsts = 0) "conn-churn: %d RSTs" r.r_rsts;
  check
    (r.r_cookies_validated = r.r_cookies_sent)
    "conn-churn: %d cookies validated of %d sent" r.r_cookies_validated r.r_cookies_sent

let churn_rep ~seed cfg =
  let t0 = now_ns () in
  (* Set-up is a small warm-up run of the same workload. *)
  check_churn
    (Workloads.Conn_scale.run ~conns:cfg.warm_conns ~events:cfg.warm_events ~seed ());
  let t_warm = now_ns () in
  let g0 = gc_mark () in
  let r =
    Workloads.Conn_scale.run ~conns:cfg.churn_conns ~events:cfg.churn_events ~churn_every:16
      ~seed ()
  in
  let g1 = gc_mark () in
  let t_end = now_ns () in
  check_churn r;
  let open Workloads.Conn_scale in
  let data = snapshot_field r.r_snapshot "data" in
  let done_ops = data + r.r_closes in
  let sim_ns = cfg.churn_events * churn_event_ns in
  (* The churn clock has no per-request latency: both quantiles read
     the simulated time per completed event. *)
  let us_per_op = ratio (float_of_int sim_ns /. 1e3) (float_of_int done_ops) in
  let w = r.r_wheel in
  let f = float_of_int in
  let counters =
    [
      ("tcp.fast", f r.r_fast_hits);
      ("tcp.slow", f r.r_slow_hits);
      ("tcp.rx_segs", f r.r_client_segs);
      ("tcp.time_wait_live", f r.r_time_wait_live);
      ("tcp.cookies_sent", f r.r_cookies_sent);
      ("tcp.cookies_validated", f r.r_cookies_validated);
      ("tcp.bytes_per_conn", r.r_bytes_per_conn);
      ("wheel.fired", f w.Timerwheel.Timer_wheel.fired);
      ("wheel.cascades", f w.Timerwheel.Timer_wheel.cascades);
      ("wheel.max_armed", f w.Timerwheel.Timer_wheel.max_armed);
      ("churn.data", f data);
      ("churn.closes", f r.r_closes);
      ("churn.reconnects", f r.r_reconnects);
    ]
  in
  make_rep ~setup_s:(seconds_between t0 t_warm) ~phases:[]
    ~measure_s:(seconds_between t_warm t_end)
    ~ops:r.r_events ~attempted:r.r_events
    ~failed:(r.r_rsts + r.r_cookies_rejected)
    ~g0 ~g1
    ~model:(ratio (f done_ops) (f sim_ns /. 1e9), us_per_op, us_per_op, 1)
    ~counters ~latencies:(Samples.create ())
