module Net_api = Netapi.Net_api
module Kv = Apps.Kv_protocol

type result = {
  target_rps : float;
  achieved_rps : float;
  avg_us : float;
  p95_us : float;
  p99_us : float;
  issued : int;
  completed : int;
}

type conn_state = {
  stack : Net_api.stack;
  thread : int;
  mutable conn : Net_api.conn option;
  parser : Kv.Parser.t;
  mutable outstanding : int;
  backlog : Kv.request Queue.t; (* FIFO; a list-append here is quadratic under load *)
  send_times : (int, int) Hashtbl.t; (* reqid -> intended arrival time *)
}

(* Requests in flight per connection; the rest queue in order. *)
let pipeline = 4

let run ~sim ~clients ~server_ip ~port ~profile ~connections ~target_rps
    ?(warmup_ms = 10) ?(duration_ms = 50) ~seed () =
  let rng = Engine.Rng.create ~seed in
  let zipf = Zipf.create ~n:profile.Size_dist.key_space ~theta:profile.Size_dist.zipf_theta in
  let latency = Ixtelemetry.Log_hist.create () in
  let issued = ref 0 and completed = ref 0 and completed_window = ref 0 in
  let t0 = Engine.Sim.now sim in
  (* Connections ramp up over [ramp]; arrivals start once they settle;
     the measurement window opens after the warmup. *)
  let ramp = Engine.Sim_time.ms 4 in
  let arrivals_start = t0 + ramp + Engine.Sim_time.ms 2 in
  let window_start = arrivals_start + Engine.Sim_time.ms warmup_ms in
  let window_end = window_start + Engine.Sim_time.ms duration_ms in
  let now () = Engine.Sim.now sim in
  (* Spread connections over (client, thread) pairs. *)
  let slots =
    List.concat_map
      (fun stack ->
        List.init (Net_api.capacity stack) (fun thread -> (stack, thread)))
      clients
  in
  let slot_array = Array.of_list slots in
  let states =
    Array.init connections (fun i ->
        let stack, thread = slot_array.(i mod Array.length slot_array) in
        {
          stack;
          thread;
          conn = None;
          parser = Kv.Parser.create ();
          outstanding = 0;
          backlog = Queue.create ();
          send_times = Hashtbl.create 8;
        })
  in
  let next_reqid = ref 0 in
  let transmit st (req : Kv.request) =
    match st.conn with
    | None -> Queue.add req st.backlog (* not connected yet *)
    | Some conn ->
        st.outstanding <- st.outstanding + 1;
        st.stack.Net_api.charge_app ~thread:st.thread 250 (* request build *);
        ignore (conn.Net_api.send (Kv.encode_request req))
  in
  let on_response st (resp : Kv.response) =
    st.outstanding <- max 0 (st.outstanding - 1);
    incr completed;
    (match Hashtbl.find st.send_times resp.Kv.reqid with
    | exception Not_found -> ()
    | intended ->
        Hashtbl.remove st.send_times resp.Kv.reqid;
        let t = now () in
        if t >= window_start && t <= window_end then begin
          incr completed_window;
          Ixtelemetry.Log_hist.record latency (t - intended)
        end);
    (* Pull queued work under the pipeline limit. *)
    if st.outstanding < pipeline && not (Queue.is_empty st.backlog) then
      transmit st (Queue.pop st.backlog)
  in
  (* Establish the persistent connections. *)
  Array.iter
    (fun st ->
      let handlers =
        {
          Net_api.on_connected =
            (fun conn ~ok ->
              if ok then begin
                st.conn <- Some conn;
                (* Drain anything queued while connecting, up to the
                   pipeline limit; the rest stays queued in order. *)
                while
                  st.outstanding < pipeline && not (Queue.is_empty st.backlog)
                do
                  transmit st (Queue.pop st.backlog)
                done
              end);
          on_data =
            (fun _conn data ->
              Kv.Parser.feed st.parser data;
              let rec pump () =
                match Kv.Parser.next_response st.parser with
                | Some resp ->
                    on_response st resp;
                    pump ()
                | None -> ()
              in
              pump ());
          on_sent = (fun _ _ -> ());
          on_closed = (fun _ _ -> ());
        }
      in
      let delay = Engine.Rng.int rng ramp in
      Engine.Sim.after sim delay (fun () ->
          st.stack.Net_api.connect ~thread:st.thread ~ip:server_ip ~port handlers))
    states;
  (* The open-loop Poisson arrival process. *)
  let gap_mean_ns = 1e9 /. target_rps in
  let cursor = ref 0 in
  let make_request () =
    incr next_reqid;
    let reqid = !next_reqid in
    let key_rank = Zipf.sample zipf rng in
    let key = Keygen.key ~profile ~rank:key_rank in
    let is_get = Engine.Rng.float rng 1.0 < profile.Size_dist.get_fraction in
    if is_get then { Kv.op = Kv.Get; reqid; key; value = "" }
    else
      { Kv.op = Kv.Set; reqid; key; value = String.make (profile.Size_dist.value_len rng) 'v' }
  in
  let rec arrival () =
    if now () < window_end then begin
      let st = states.(!cursor mod connections) in
      incr cursor;
      let req = make_request () in
      incr issued;
      Hashtbl.replace st.send_times req.Kv.reqid (now ());
      st.stack.Net_api.run_app ~thread:st.thread (fun () ->
          if st.outstanding < pipeline && Option.is_some st.conn then transmit st req
          else Queue.add req st.backlog);
      let gap = Engine.Rng.exponential rng ~mean:gap_mean_ns in
      Engine.Sim.after sim (max 1 (int_of_float gap)) arrival
    end
  in
  Engine.Sim.at sim arrivals_start arrival;
  (* Run to a little past the window so in-flight responses land. *)
  Engine.Sim.run ~until:(window_end + Engine.Sim_time.ms 5) sim;
  let duration_s = float_of_int (window_end - window_start) /. 1e9 in
  {
    target_rps;
    achieved_rps = float_of_int !completed_window /. duration_s;
    avg_us = Ixtelemetry.Log_hist.mean latency /. 1_000.;
    p95_us = float_of_int (Ixtelemetry.Log_hist.percentile latency 95.) /. 1_000.;
    p99_us = float_of_int (Ixtelemetry.Log_hist.percentile latency 99.) /. 1_000.;
    issued = !issued;
    completed = !completed;
  }
