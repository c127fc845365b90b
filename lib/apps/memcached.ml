module Net_api = Netapi.Net_api

(* Application costs (ns). *)
let base_ns = 2_400 (* hash + dispatch per request *)
let per_value_kb_ns = 300 (* value handling per KB *)
let get_lock_ns = 200 (* global-lock hold time for a GET *)
let set_lock_ns = 1_600 (* global-lock hold time for a SET *)

type t = {
  table : (string, string) Hashtbl.t;
  now : unit -> int;
  (* The global cache lock, as in memcached 1.4.x: a single serially
     reusable resource shared by every server thread.  Because batched
     request processing makes many requests appear simultaneous in
     simulated time, contention is modelled as an M/M/1-style queueing
     delay driven by the measured lock utilization, rather than by a
     literal free-at timestamp. *)
  mutable win_start : int;
  mutable win_hold_ns : int;
  utilization : float array; (* one cell, unboxed *)
  mutable get_count : int;
  mutable set_count : int;
  mutable hit_count : int;
}

let insert t key value = Hashtbl.replace t.table key value
let items t = Hashtbl.length t.table
let gets t = t.get_count
let sets t = t.set_count
let hits t = t.hit_count

(* Acquire the global lock, holding it for [hold] ns; returns the
   expected wait + hold time to charge to the calling thread.  The
   utilization estimate decays over 1 ms windows. *)
let lock_window_ns = 1_000_000

let with_lock t ~hold =
  let now = t.now () in
  if now - t.win_start >= lock_window_ns then begin
    let elapsed = max 1 (now - t.win_start) in
    t.utilization.(0) <-
      Float.min 0.98 (float_of_int t.win_hold_ns /. float_of_int elapsed);
    t.win_start <- now;
    t.win_hold_ns <- 0
  end;
  t.win_hold_ns <- t.win_hold_ns + hold;
  let rho = t.utilization.(0) in
  let wait =
    int_of_float (float_of_int hold *. (rho /. (1. -. rho)) /. 2.)
  in
  wait + hold

let process t stack ~thread (req : Kv_protocol.request) =
  let value_cost v = per_value_kb_ns * String.length v / 1024 in
  match req.Kv_protocol.op with
  | Kv_protocol.Get ->
      t.get_count <- t.get_count + 1;
      let locked = with_lock t ~hold:get_lock_ns in
      let value = Hashtbl.find_opt t.table req.Kv_protocol.key in
      let value, status =
        match value with
        | Some v ->
            t.hit_count <- t.hit_count + 1;
            (v, Kv_protocol.hit)
        | None -> ("", Kv_protocol.miss)
      in
      stack.Net_api.charge_app ~thread (base_ns + locked + value_cost value);
      { Kv_protocol.status; reqid = req.Kv_protocol.reqid; value }
  | Kv_protocol.Set ->
      t.set_count <- t.set_count + 1;
      let locked = with_lock t ~hold:set_lock_ns in
      Hashtbl.replace t.table req.Kv_protocol.key req.Kv_protocol.value;
      stack.Net_api.charge_app ~thread
        (base_ns + locked + value_cost req.Kv_protocol.value);
      { Kv_protocol.status = Kv_protocol.stored; reqid = req.Kv_protocol.reqid; value = "" }

let server stack ~now ~port () =
  let t =
    {
      table = Hashtbl.create 65536;
      now;
      win_start = 0;
      win_hold_ns = 0;
      utilization = [| 0. |];
      get_count = 0;
      set_count = 0;
      hit_count = 0;
    }
  in
  stack.Net_api.listen ~port (fun ~thread conn ->
      ignore conn;
      let parser = Kv_protocol.Parser.create () in
      {
        Net_api.null_handlers with
        Net_api.on_data =
          (fun conn data ->
            Kv_protocol.Parser.feed parser data;
            let rec pump () =
              match Kv_protocol.Parser.next_request parser with
              | None -> ()
              | Some req ->
                  let resp = process t stack ~thread req in
                  ignore (conn.Net_api.send (Kv_protocol.encode_response resp));
                  pump ()
            in
            pump ());
      });
  t
