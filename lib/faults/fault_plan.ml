module Rng = Engine.Rng
module Sim = Engine.Sim
module Metrics = Ixtelemetry.Metrics
module Link = Ixhw.Link
module Nic = Ixhw.Nic
module Frame = Ixhw.Frame
module Mempool = Ixmem.Mempool

type spec = {
  drop_rate : float;
  corrupt_rate : float;
  truncate_rate : float;
  duplicate_rate : float;
  reorder_rate : float;
  reorder_delay_ns : int;
  flap_period_ns : int;
  flap_down_ns : int;
  stall_period_ns : int;
  stall_ns : int;
  exhaust_period_ns : int;
  exhaust_ns : int;
  doorbell_delay_ns : int;
  app_crash_rate : float;
  hostile_rst_rate : float;
  hostile_syn_rate : float;
  hostile_olddup_rate : float;
  hostile_ack_rate : float;
}

let none =
  {
    drop_rate = 0.;
    corrupt_rate = 0.;
    truncate_rate = 0.;
    duplicate_rate = 0.;
    reorder_rate = 0.;
    reorder_delay_ns = 0;
    flap_period_ns = 0;
    flap_down_ns = 0;
    stall_period_ns = 0;
    stall_ns = 0;
    exhaust_period_ns = 0;
    exhaust_ns = 0;
    doorbell_delay_ns = 0;
    app_crash_rate = 0.;
    hostile_rst_rate = 0.;
    hostile_syn_rate = 0.;
    hostile_olddup_rate = 0.;
    hostile_ack_rate = 0.;
  }

let default =
  {
    drop_rate = 0.003;
    corrupt_rate = 0.003;
    truncate_rate = 0.001;
    duplicate_rate = 0.002;
    reorder_rate = 0.002;
    reorder_delay_ns = 50_000;
    flap_period_ns = 4_000_000;
    flap_down_ns = 300_000;
    stall_period_ns = 3_000_000;
    stall_ns = 200_000;
    exhaust_period_ns = 3_000_000;
    exhaust_ns = 150_000;
    doorbell_delay_ns = 5_000;
    app_crash_rate = 0.0005;
    hostile_rst_rate = 0.;
    hostile_syn_rate = 0.;
    hostile_olddup_rate = 0.;
    hostile_ack_rate = 0.;
  }

(* The hostile-peer soak: the standard cocktail plus blind forgeries at
   rates high enough that a few-ms soak sees every variant. *)
let hostile =
  {
    default with
    hostile_rst_rate = 0.02;
    hostile_syn_rate = 0.01;
    hostile_olddup_rate = 0.02;
    hostile_ack_rate = 0.01;
  }

(* ------------------------------------------------------------------ *)
(* Plan syntax                                                         *)

let parse_duration s =
  let num_and_unit =
    let n = String.length s in
    let rec split i =
      if i < n && (s.[i] = '.' || (s.[i] >= '0' && s.[i] <= '9')) then
        split (i + 1)
      else (String.sub s 0 i, String.sub s i (n - i))
    in
    split 0
  in
  let num, unit = num_and_unit in
  match float_of_string_opt num with
  | None -> Error (Printf.sprintf "bad duration %S" s)
  | Some v -> (
      match unit with
      | "" | "ns" -> Ok (int_of_float v)
      | "us" -> Ok (int_of_float (v *. 1e3))
      | "ms" -> Ok (int_of_float (v *. 1e6))
      | "s" -> Ok (int_of_float (v *. 1e9))
      | u -> Error (Printf.sprintf "bad duration unit %S in %S" u s))

let parse_rate key s =
  match float_of_string_opt s with
  | Some r when r >= 0. && r <= 1. -> Ok r
  | _ -> Error (Printf.sprintf "%s: rate must be a float in [0,1], got %S" key s)

let parse_window key s =
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "%s: expected PERIOD/WINDOW, got %S" key s)
  | Some i -> (
      let period = String.sub s 0 i
      and window = String.sub s (i + 1) (String.length s - i - 1) in
      match (parse_duration period, parse_duration window) with
      | Ok p, Ok w ->
          if p <= 0 || w <= 0 then
            Error (Printf.sprintf "%s: period and window must be positive" key)
          else if w >= p then
            Error (Printf.sprintf "%s: window must be shorter than period" key)
          else Ok (p, w)
      | Error e, _ | _, Error e -> Error e)

let parse s =
  match String.trim s with
  | "" | "none" -> Ok none
  | "default" -> Ok default
  | "hostile" -> Ok hostile
  | s ->
      (* A [name:] prefix starts from that named spec instead of
         [none] — ["hostile:rst=0.1"] is the hostile soak with the
         blind-RST rate raised. *)
      let base, s =
        match String.index_opt s ':' with
        | Some i -> (
            let rest = String.sub s (i + 1) (String.length s - i - 1) in
            match String.sub s 0 i with
            | "none" -> (Ok none, rest)
            | "default" -> (Ok default, rest)
            | "hostile" -> (Ok hostile, rest)
            | name ->
                (Error (Printf.sprintf "unknown base spec %S" name), rest))
        | None -> (Ok none, s)
      in
      let fields = String.split_on_char ',' s in
      let rec apply spec = function
        | [] -> Ok spec
        | field :: rest -> (
            let field = String.trim field in
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "expected key=value, got %S" field)
            | Some i -> (
                let key = String.sub field 0 i
                and v =
                  String.sub field (i + 1) (String.length field - i - 1)
                in
                let rate k = Result.map k (parse_rate key v) in
                let duration k = Result.map k (parse_duration v) in
                let window k = Result.map k (parse_window key v) in
                let updated =
                  match key with
                  | "drop" -> rate (fun r -> { spec with drop_rate = r })
                  | "corrupt" -> rate (fun r -> { spec with corrupt_rate = r })
                  | "truncate" ->
                      rate (fun r -> { spec with truncate_rate = r })
                  | "dup" -> rate (fun r -> { spec with duplicate_rate = r })
                  | "reorder" -> rate (fun r -> { spec with reorder_rate = r })
                  | "reorder_delay" ->
                      duration (fun d -> { spec with reorder_delay_ns = d })
                  | "flap" ->
                      window (fun (p, w) ->
                          { spec with flap_period_ns = p; flap_down_ns = w })
                  | "stall" ->
                      window (fun (p, w) ->
                          { spec with stall_period_ns = p; stall_ns = w })
                  | "exhaust" ->
                      window (fun (p, w) ->
                          { spec with exhaust_period_ns = p; exhaust_ns = w })
                  | "doorbell" ->
                      duration (fun d -> { spec with doorbell_delay_ns = d })
                  | "crash" -> rate (fun r -> { spec with app_crash_rate = r })
                  | "hostile_rst" | "rst" ->
                      rate (fun r -> { spec with hostile_rst_rate = r })
                  | "hostile_syn" | "syn" ->
                      rate (fun r -> { spec with hostile_syn_rate = r })
                  | "hostile_olddup" | "olddup" ->
                      rate (fun r -> { spec with hostile_olddup_rate = r })
                  | "hostile_ack" | "ack" ->
                      rate (fun r -> { spec with hostile_ack_rate = r })
                  | k -> Error (Printf.sprintf "unknown fault key %S" k)
                in
                match updated with
                | Ok spec -> apply spec rest
                | Error e -> Error e))
      in
      Result.bind base (fun base -> apply base fields)

let to_string spec =
  if spec = none then "none"
  else begin
    let buf = Buffer.create 128 in
    let add fmt = Printf.ksprintf (fun s ->
        if Buffer.length buf > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf s) fmt
    in
    let rate k r = if r > 0. then add "%s=%g" k r in
    let dur k d = if d > 0 then add "%s=%dns" k d in
    let window k p w = if p > 0 then add "%s=%dns/%dns" k p w in
    rate "drop" spec.drop_rate;
    rate "corrupt" spec.corrupt_rate;
    rate "truncate" spec.truncate_rate;
    rate "dup" spec.duplicate_rate;
    rate "reorder" spec.reorder_rate;
    dur "reorder_delay" spec.reorder_delay_ns;
    window "flap" spec.flap_period_ns spec.flap_down_ns;
    window "stall" spec.stall_period_ns spec.stall_ns;
    window "exhaust" spec.exhaust_period_ns spec.exhaust_ns;
    dur "doorbell" spec.doorbell_delay_ns;
    rate "crash" spec.app_crash_rate;
    rate "hostile_rst" spec.hostile_rst_rate;
    rate "hostile_syn" spec.hostile_syn_rate;
    rate "hostile_olddup" spec.hostile_olddup_rate;
    rate "hostile_ack" spec.hostile_ack_rate;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)

type t = {
  spec : spec;
  sim : Sim.t;
  wire_rng : Rng.t;  (** one draw per tapped frame, plus damage params *)
  app_rng : Rng.t;  (** one draw per {!app_crash} *)
  hostile_rng : Rng.t;
      (** one draw per cleanly forwarded TCP/UDP frame when the hostile
          family is armed, plus forgery params.  Seeded independently of
          [master] (a seed mix, not a split), so arming hostile faults
          leaves the wire/app/phase streams of an existing plan
          untouched. *)
  flap_phase : int;
  stall_phase : int;
  exhaust_phase : int;
  c_tap_frames : Metrics.counter;
  c_tap_forwarded : Metrics.counter;
  c_wire_drops : Metrics.counter;
  c_wire_corrupts : Metrics.counter;
  c_wire_truncates : Metrics.counter;
  c_wire_dups : Metrics.counter;
  c_wire_reorders : Metrics.counter;
  c_flap_drops : Metrics.counter;
  c_stall_swallows : Metrics.counter;
  c_exhaust_denials : Metrics.counter;
  c_doorbell_delays : Metrics.counter;
  c_app_crashes : Metrics.counter;
  c_hostile_rsts : Metrics.counter;
  c_hostile_syns : Metrics.counter;
  c_hostile_olddups : Metrics.counter;
  c_hostile_acks : Metrics.counter;
}

let instantiate spec ~sim ~seed ~metrics =
  let master = Rng.create ~seed in
  let wire_rng = Rng.split master in
  let app_rng = Rng.split master in
  (* Not a [split]: deriving the hostile stream from the seed directly
     consumes nothing from [master], so plans without hostile faults
     keep bit-identical wire/app streams and window phases. *)
  let hostile_rng = Rng.create ~seed:(seed lxor 0x686F_7374_696C) in
  let phase period = if period > 0 then Rng.int master period else 0 in
  let c name = Metrics.counter metrics ("faults." ^ name) in
  {
    spec;
    sim;
    wire_rng;
    app_rng;
    hostile_rng;
    flap_phase = phase spec.flap_period_ns;
    stall_phase = phase spec.stall_period_ns;
    exhaust_phase = phase spec.exhaust_period_ns;
    c_tap_frames = c "tap_frames";
    c_tap_forwarded = c "tap_forwarded";
    c_wire_drops = c "wire_drops";
    c_wire_corrupts = c "wire_corrupts";
    c_wire_truncates = c "wire_truncates";
    c_wire_dups = c "wire_dups";
    c_wire_reorders = c "wire_reorders";
    c_flap_drops = c "flap_drops";
    c_stall_swallows = c "stall_swallows";
    c_exhaust_denials = c "exhaust_denials";
    c_doorbell_delays = c "doorbell_delays";
    c_app_crashes = c "app_crashes";
    c_hostile_rsts = c "hostile_rsts";
    c_hostile_syns = c "hostile_syns";
    c_hostile_olddups = c "hostile_olddups";
    c_hostile_acks = c "hostile_acks";
  }

(* Window faults are pure functions of simulated time: inside the
   window iff [(now + phase) mod period < window].  No per-event rng
   draw, so gates consulted at hardware-determined instants cannot
   perturb the plan's streams. *)
let in_window ~phase ~period ~window now =
  period > 0 && (now + phase) mod period < window

let flap_down t now =
  in_window ~phase:t.flap_phase ~period:t.spec.flap_period_ns
    ~window:t.spec.flap_down_ns now

let stalled t now =
  in_window ~phase:t.stall_phase ~period:t.spec.stall_period_ns
    ~window:t.spec.stall_ns now

let exhausted t now =
  in_window ~phase:t.exhaust_phase ~period:t.spec.exhaust_period_ns
    ~window:t.spec.exhaust_ns now

(* The wire tap.  Exactly one uniform draw per frame decides the fault
   kind by cumulative probability; damage parameters (corrupt position
   and mask, truncate length, reorder delay) draw only when their kind
   fires, keeping the stream consumption deterministic.  Flap swallows
   take precedence: a down link delivers nothing.

   Cleanly forwarded frames are also the hostile forger's observation
   point: with the hostile family armed, each clean TCP forward may
   additionally inject one forged variant (drawn from the plan's
   dedicated hostile stream) right behind the original.

   Counter conservation, maintained here and checked by the audit:
   [tap_frames + wire_dups + hostile_injected
    = tap_forwarded + wire_drops + flap_drops]. *)
let tap t frame deliver =
  Metrics.incr t.c_tap_frames;
  if flap_down t (Sim.now t.sim) then begin
    Metrics.incr t.c_flap_drops;
    (* Swallowed: the tap consumes the frame's wire-buffer reference. *)
    Frame.release frame
  end
  else begin
    let s = t.spec in
    let u = Rng.float t.wire_rng 1.0 in
    let d1 = s.drop_rate in
    let d2 = d1 +. s.corrupt_rate in
    let d3 = d2 +. s.truncate_rate in
    let d4 = d3 +. s.duplicate_rate in
    let d5 = d4 +. s.reorder_rate in
    if u < d1 then begin
      Metrics.incr t.c_wire_drops;
      Frame.release frame
    end
    else if u < d2 then begin
      Metrics.incr t.c_wire_corrupts;
      let pos = Rng.int t.wire_rng (max 1 (Frame.length frame)) in
      let mask = 1 + Rng.int t.wire_rng 255 in
      Metrics.incr t.c_tap_forwarded;
      deliver (Frame.corrupt frame ~pos ~mask)
    end
    else if u < d3 then begin
      Metrics.incr t.c_wire_truncates;
      let keep = 1 + Rng.int t.wire_rng (max 1 (Frame.length frame - 1)) in
      Metrics.incr t.c_tap_forwarded;
      deliver (Frame.truncate frame ~keep)
    end
    else if u < d4 then begin
      Metrics.incr t.c_wire_dups;
      (* Two deliveries from one incoming reference: take a second. *)
      Frame.retain frame;
      Metrics.incr t.c_tap_forwarded;
      deliver frame;
      Metrics.incr t.c_tap_forwarded;
      deliver frame
    end
    else if u < d5 then begin
      Metrics.incr t.c_wire_reorders;
      let delay = 1 + Rng.int t.wire_rng (max 1 s.reorder_delay_ns) in
      Sim.after t.sim delay (fun () ->
          Metrics.incr t.c_tap_forwarded;
          deliver frame)
    end
    else begin
      let h1 = s.hostile_rst_rate in
      let h2 = h1 +. s.hostile_syn_rate in
      let h3 = h2 +. s.hostile_olddup_rate in
      let h4 = h3 +. s.hostile_ack_rate in
      if h4 > 0. && Frame.has_rss_tuple frame then begin
        let u = Rng.float t.hostile_rng 1.0 in
        let forge =
          if u < h1 then Some (Hostile.Rst, t.c_hostile_rsts)
          else if u < h2 then Some (Hostile.Syn, t.c_hostile_syns)
          else if u < h3 then Some (Hostile.Old_dup, t.c_hostile_olddups)
          else if u < h4 then Some (Hostile.Ack_storm, t.c_hostile_acks)
          else None
        in
        match forge with
        | None ->
            Metrics.incr t.c_tap_forwarded;
            deliver frame
        | Some (kind, counter) ->
            (* Snapshot before delivery consumes the frame reference;
               the forgery goes on the wire right behind the original. *)
            let snapshot = Frame.copy_bytes frame in
            Metrics.incr t.c_tap_forwarded;
            deliver frame;
            (match Hostile.craft kind t.hostile_rng snapshot with
            | Some forged ->
                Metrics.incr counter;
                Metrics.incr t.c_tap_forwarded;
                deliver forged
            | None -> ())
      end
      else begin
        Metrics.incr t.c_tap_forwarded;
        deliver frame
      end
    end
  end

let hostile_faults s =
  s.hostile_rst_rate > 0. || s.hostile_syn_rate > 0.
  || s.hostile_olddup_rate > 0. || s.hostile_ack_rate > 0.

let has_wire_faults s =
  s.drop_rate > 0. || s.corrupt_rate > 0. || s.truncate_rate > 0.
  || s.duplicate_rate > 0. || s.reorder_rate > 0. || s.flap_period_ns > 0
  || hostile_faults s

let arm_link t link =
  if has_wire_faults t.spec then
    Link.set_tap link (Some (fun frame deliver -> tap t frame deliver))

let arm_pool t pool =
  if t.spec.exhaust_period_ns > 0 then
    Mempool.set_alloc_gate pool
      (Some
         (fun () ->
           if exhausted t (Sim.now t.sim) then begin
             Metrics.incr t.c_exhaust_denials;
             false
           end
           else true))

let arm_nic t nic =
  Nic.iter_queues nic (fun q ->
      if t.spec.stall_period_ns > 0 then
        Nic.set_replenish_gate q
          (Some
             (fun () ->
               if stalled t (Sim.now t.sim) then begin
                 Metrics.incr t.c_stall_swallows;
                 true
               end
               else false));
      if t.spec.doorbell_delay_ns > 0 then
        Nic.set_doorbell_defer q
          (Some
             (fun post ->
               Metrics.incr t.c_doorbell_delays;
               Sim.after t.sim t.spec.doorbell_delay_ns post));
      if t.spec.exhaust_period_ns > 0 then arm_pool t (Nic.pool_of q))

let app_crash t =
  t.spec.app_crash_rate > 0.
  && Rng.float t.app_rng 1.0 < t.spec.app_crash_rate
  && begin
       Metrics.incr t.c_app_crashes;
       true
     end

let app_crashes t = Metrics.value t.c_app_crashes
