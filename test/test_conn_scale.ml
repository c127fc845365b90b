(* Million-connection scale tests: TCB store + flow table
   model checking, TIME_WAIT remnant table behaviour, timer-wheel
   capacity at 1M armed timers, and the conn-scale churn workload. *)

module Wheel = Timerwheel.Timer_wheel
module Tcb = Ixtcp.Tcb
module Tcp_conn = Ixtcp.Tcp_conn
module Flow_table = Ixtcp.Flow_table
module Conn_scale = Workloads.Conn_scale

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let make_env ?store () =
  let wheel = Wheel.create ~now:0 () in
  Tcp_conn.make_env
    ~now:(fun () -> 0)
    ~wheel
    ~alloc:(fun () -> None)
    ~output:(fun _ _ -> ())
    ~rng:(Engine.Rng.create ~seed:7)
    ?store ()

let make_tcb env ~local_port ~remote_ip ~remote_port =
  Tcb.create env Tcb.default_config ~local_ip:1 ~local_port ~remote_ip
    ~remote_port ~cookie:0

(* A lookup's live view, or [None] for the dead view. *)
let live_view tcb = if Tcb.is_dead tcb then None else Some tcb

(* The connection a tuple's entry holds, or the store's dead view (a
   remnant reads as dead). *)
let find table ~local_port ~remote_ip ~remote_port =
  Flow_table.conn table (Flow_table.lookup table ~local_port ~remote_ip ~remote_port)

(* ------------------------------------------------------------------ *)
(* TCB store + flow table vs a naive map                               *)

(* Random op sequences executed against both the open-addressing flow
   table (hashes beside generation-checked handles into the TCB store,
   and TIME_WAIT remnant rows) and a Hashtbl model.  Lookup results and
   counts must agree at every step, and iteration contents and every
   remnant's state at the end.  A connection that closes into TIME_WAIT
   becomes a remnant on its tuple; its reconnect either supersedes the
   remnant on the same tuple or, once the remnant is gone, takes a
   fresh remote port, as churn does, so removes leave tombstones that
   later adds rarely reuse, and long sequences carry the table past 768
   used slots (3/4 of the initial 1024).  The key count varies per
   case: many live keys make the table double, few make it rebuild at
   the same capacity.  At the end the remnants on even remote ports
   migrate to a second table. *)
type model_entry = Conn of int | Remnant of { snd_nxt : int; deadline : int }

let prop_flow_table_matches_model =
  let open QCheck in
  let max_keys = 1024 in
  (* op: 0 = add, 1 = remove, 2 = find, 3 = close into a remnant,
     4 = supersede the remnant, 5 = sweep; keys below the case's key
     count *)
  let case =
    Gen.(
      int_range 128 max_keys >>= fun keys ->
      map
        (fun ops -> (keys, ops))
        (list_size (int_range 1 8000)
           (pair (int_range 0 5) (int_range 0 (keys - 1)))))
  in
  Test.make ~name:"flow table matches naive map under random ops" ~count:100
    (make case)
    (fun (_, ops) ->
      let store = Tcb.store_create ~initial:4 () in
      let env = make_env ~store () in
      let table = Flow_table.create ~store in
      let model : (int, model_entry) Hashtbl.t = Hashtbl.create 16 in
      let tally kind = Hashtbl.fold (fun _ e n -> if kind e then n + 1 else n) model 0 in
      let is_conn = function Conn _ -> true | Remnant _ -> false in
      (* Remote port of each connection's latest tuple; 0 before its
         first add, a tuple that must simply miss. *)
      let port = Array.make max_keys 0 in
      let tcbs = Array.make max_keys None in
      let tuple k = (1000 + (k land 3), 0xA000000 + (k lsr 2), port.(k)) in
      let remnant_of table k =
        let local_port, remote_ip, remote_port = tuple k in
        let slot = Flow_table.lookup table ~local_port ~remote_ip ~remote_port in
        if Flow_table.is_remnant table slot then Some (Flow_table.remnant_snd_nxt table slot)
        else None
      in
      let uid = ref 0 in
      let agree_stepwise =
        List.for_all
          (fun (now, (op, k)) ->
            let local_port, remote_ip, remote_port = tuple k in
            (match (op, Hashtbl.find_opt model k) with
            | 0, (None | Some (Remnant _)) ->
                incr uid;
                if not (Hashtbl.mem model k) then port.(k) <- !uid;
                let local_port, remote_ip, remote_port = tuple k in
                let tcb = make_tcb env ~local_port ~remote_ip ~remote_port in
                Tcb.set_cookie tcb !uid;
                Flow_table.add table ~local_port ~remote_ip ~remote_port tcb;
                tcbs.(k) <- Some tcb;
                Hashtbl.replace model k (Conn !uid)
            | 1, _ ->
                Flow_table.remove table ~local_port ~remote_ip ~remote_port;
                if Option.map is_conn (Hashtbl.find_opt model k) = Some true then
                  Hashtbl.remove model k
            | 3, Some (Conn u) ->
                (* As the endpoint tears a connection down into TIME_WAIT:
                   the remnant, then the (now idle) remove, then the
                   TCB's release. *)
                let deadline = now + 1 + (k mod 37) in
                Flow_table.add_remnant table ~local_port ~remote_ip ~remote_port
                  ~snd_nxt:u ~rcv_nxt:0 ~deadline;
                Flow_table.remove table ~local_port ~remote_ip ~remote_port;
                Option.iter Tcb.release tcbs.(k);
                Hashtbl.replace model k (Remnant { snd_nxt = u; deadline })
            | 4, Some (Remnant _) ->
                Flow_table.remove_remnant table
                  (Flow_table.lookup table ~local_port ~remote_ip ~remote_port);
                Hashtbl.remove model k
            | 5, _ ->
                ignore (Flow_table.sweep table ~now);
                Hashtbl.filter_map_inplace
                  (fun _ e ->
                    match e with
                    | Remnant { deadline; _ } when deadline <= now -> None
                    | e -> Some e)
                  model
            | _ -> ());
            let local_port, remote_ip, remote_port = tuple k in
            let found =
              Option.map Tcb.cookie
                (live_view (find table ~local_port ~remote_ip ~remote_port))
            in
            let expect_conn, expect_remnant =
              match Hashtbl.find_opt model k with
              | Some (Conn u) -> (Some u, None)
              | Some (Remnant { snd_nxt; _ }) -> (None, Some snd_nxt)
              | None -> (None, None)
            in
            found = expect_conn
            && remnant_of table k = expect_remnant
            && Flow_table.count table = tally is_conn
            && Flow_table.remnant_count table = tally (fun e -> not (is_conn e)))
          (List.mapi (fun now op -> (now, op)) ops)
      in
      let iterated = ref [] in
      Flow_table.iter table (fun tcb -> iterated := Tcb.cookie tcb :: !iterated);
      let conns =
        Hashtbl.fold (fun _ e acc -> match e with Conn u -> u :: acc | _ -> acc) model []
      in
      (* Every model remnant whose key [on] accepts is in [table] with
         its state, and [table] holds no others. *)
      let remnants_in table on =
        Hashtbl.fold
          (fun k e (ok, n) ->
            match e with
            | Remnant { snd_nxt; _ } when on k ->
                (ok && remnant_of table k = Some snd_nxt, n + 1)
            | _ -> (ok, n))
          model (true, 0)
        |> fun (ok, n) -> ok && Flow_table.remnant_count table = n
      in
      let even k = port.(k) land 1 = 0 in
      let all_remnants = remnants_in table (fun _ -> true) in
      let dst = Flow_table.create ~store in
      Flow_table.transfer_remnants table ~dst ~now:0
        ~select:(fun ~local_port:_ ~remote_ip:_ ~remote_port -> remote_port land 1 = 0);
      agree_stepwise
      && List.sort compare !iterated = List.sort compare conns
      && all_remnants
      && remnants_in table (fun k -> not (even k))
      && remnants_in dst even
      && Flow_table.count table = List.length conns)

(* [hash] first folds the key to [krem lxor (kloc * 0x3779B97F4A7C15)],
   so local ports 0 and 21855 collide exactly — all 63 bits — when the
   remote halves differ by [21855 * 0x3779B97F4A7C15], a product that
   fits in 48 bits (a 32-bit address and a 16-bit port).  Stored hashes
   then match and only the key words tell the two flows apart. *)
let test_flow_table_hash_collision () =
  let store = Tcb.store_create () in
  let env = make_env ~store () in
  let table = Flow_table.create ~store in
  let krem_a = (0x0A000001 lsl 16) lor 5000 in
  let krem_b = krem_a lxor (21855 * 0x3779B97F4A7C15) in
  check_bool "colliding remote half fits 48 bits" true (krem_b lsr 48 = 0);
  let flows =
    [|
      (0, krem_a lsr 16, krem_a land 0xFFFF);
      (21855, krem_b lsr 16, krem_b land 0xFFFF);
    |]
  in
  let add f =
    let local_port, remote_ip, remote_port = flows.(f) in
    let tcb = make_tcb env ~local_port ~remote_ip ~remote_port in
    Tcb.set_cookie tcb f;
    Flow_table.add table ~local_port ~remote_ip ~remote_port tcb
  in
  let remove f =
    let local_port, remote_ip, remote_port = flows.(f) in
    Flow_table.remove table ~local_port ~remote_ip ~remote_port
  in
  let found f =
    let local_port, remote_ip, remote_port = flows.(f) in
    Option.map Tcb.cookie (live_view (find table ~local_port ~remote_ip ~remote_port))
  in
  let check_found what f expect =
    Alcotest.(check (option int)) what expect (found f)
  in
  add 0;
  add 1;
  check_int "both resident" 2 (Flow_table.count table);
  check_found "first found" 0 (Some 0);
  check_found "second found" 1 (Some 1);
  remove 0;
  check_found "first gone" 0 None;
  check_found "second survives removing the first" 1 (Some 1);
  add 0;
  remove 1;
  check_found "second gone" 1 None;
  check_found "first survives removing the second" 0 (Some 0);
  (* A remnant with the same hash as a connection: neither hides the
     other, whichever comes first on the probe path, and [count] and
     [iter] see only the connection. *)
  let park f =
    let local_port, remote_ip, remote_port = flows.(f) in
    Flow_table.add_remnant table ~local_port ~remote_ip ~remote_port
      ~snd_nxt:(100 + f) ~rcv_nxt:0 ~deadline:max_int
  in
  let remnant_of f =
    let local_port, remote_ip, remote_port = flows.(f) in
    let slot = Flow_table.lookup table ~local_port ~remote_ip ~remote_port in
    if Flow_table.is_remnant table slot then Some (Flow_table.remnant_snd_nxt table slot)
    else None
  in
  let check_apart what ~conn ~remnant =
    check_found (what ^ ": connection found") conn (Some conn);
    check_found (what ^ ": remnant reads dead") remnant None;
    Alcotest.(check (option int)) (what ^ ": remnant found") (Some (100 + remnant))
      (remnant_of remnant);
    Alcotest.(check (option int)) (what ^ ": connection is no remnant") None
      (remnant_of conn);
    check_int (what ^ ": count skips the remnant") 1 (Flow_table.count table);
    check_int (what ^ ": one remnant") 1 (Flow_table.remnant_count table);
    let seen = ref [] in
    Flow_table.iter table (fun tcb -> seen := Tcb.cookie tcb :: !seen);
    Alcotest.(check (list int)) (what ^ ": iter skips the remnant") [ conn ] !seen
  in
  park 1;
  check_apart "remnant behind" ~conn:0 ~remnant:1;
  let local_port, remote_ip, remote_port = flows.(1) in
  Flow_table.remove_remnant table
    (Flow_table.lookup table ~local_port ~remote_ip ~remote_port);
  remove 0;
  park 0;
  add 1;
  check_apart "remnant ahead" ~conn:1 ~remnant:0

(* A lookup that finds no live connection returns the store's dead
   view: a miss, a stale handle whose slot was released and handed to
   another connection, and a released view itself all read slot 0's
   dead row (CLOSED, all zeros). *)
let test_flow_table_dead_view () =
  let store = Tcb.store_create () in
  let env = make_env ~store () in
  let table = Flow_table.create ~store in
  let dead = Tcb.dead_view store in
  check_bool "the dead view is dead" true (Tcb.is_dead dead);
  let a = make_tcb env ~local_port:80 ~remote_ip:0xA000001 ~remote_port:5000 in
  Flow_table.add table ~local_port:80 ~remote_ip:0xA000001 ~remote_port:5000 a;
  check_bool "a live view is not dead" false (Tcb.is_dead a);
  check_bool "a hit returns the live view" true
    (find table ~local_port:80 ~remote_ip:0xA000001 ~remote_port:5000 == a);
  check_bool "a miss returns the dead view" true
    (find table ~local_port:81 ~remote_ip:0xA000001 ~remote_port:5000 == dead);
  (* Release [a] without unhooking it, and let [b] take its slot. *)
  let fh = Tcb.flow_handle a and slot = a.Tcb.slot in
  Tcb.release a;
  check_bool "a released view is dead" true (Tcb.is_dead a);
  check_string "a released view reads CLOSED" "CLOSED"
    (Ixtcp.Tcp_state.to_string (Tcb.state a));
  check_int "a released view reads the zero row" 0 (Tcb.local_port a);
  let b = make_tcb env ~local_port:80 ~remote_ip:0xA000002 ~remote_port:5000 in
  check_int "the slot was reused" slot b.Tcb.slot;
  Flow_table.add table ~local_port:80 ~remote_ip:0xA000002 ~remote_port:5000 b;
  check_bool "the stale handle dereferences to the dead view" true
    (Tcb.deref store fh == dead);
  check_bool "the stale entry's tuple finds the dead view" true
    (find table ~local_port:80 ~remote_ip:0xA000001 ~remote_port:5000 == dead);
  check_bool "the slot's new owner is found" true
    (find table ~local_port:80 ~remote_ip:0xA000002 ~remote_port:5000 == b);
  let seen = ref [] in
  Flow_table.iter table (fun tcb -> seen := tcb :: !seen);
  check_bool "iter skips the stale entry" true (List.length !seen = 1 && List.hd !seen == b)

(* The per-connection allocation of [Tcb.create] into a store that
   needs no growth: the view record (12 words), its callbacks record (5)
   and its empty send deque (6) — no [Some] box around the view, no
   cached timer closure and no boxed Int64 from the ISS draw. *)
let test_create_allocation () =
  let store = Tcb.store_create ~initial:64 () in
  let env = make_env ~store () in
  let create n = make_tcb env ~local_port:80 ~remote_ip:(0xA000000 + n) ~remote_port:5000 in
  ignore (Sys.opaque_identity (create 0));
  let w0 = Gc.minor_words () in
  let tcb = create 1 in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity tcb);
  Alcotest.(check (float 0.)) "minor words per Tcb.create" 23. (w1 -. w0)

(* Every field a connection's row holds, as (name, admissible values
   1..range-1, setter, getter).  Words without an accessor pair go
   through [Tcb.word] at their offset; counters are set by counting. *)
let row_fields =
  let word k = ((fun t v -> Tcb.set_word t k v), fun t -> Tcb.word t k) in
  let bit b = ((fun t v -> Tcb.set_flag t b (v = 1)), fun t -> Bool.to_int (Tcb.flag t b)) in
  let bump f t v = for _ = 1 to v do f t done in
  let field name range (set, get) = (name, range, set, get) in
  let full = 1 lsl 31 in
  [
    field "iss" full (Tcb.set_iss, Tcb.iss);
    field "irs" full (Tcb.set_irs, Tcb.irs);
    field "snd_una" full (Tcb.set_snd_una, Tcb.snd_una);
    field "snd_nxt" full (Tcb.set_snd_nxt, Tcb.snd_nxt);
    field "snd_max" full (Tcb.set_snd_max, Tcb.snd_max);
    field "recover" full (Tcb.set_recover, Tcb.recover);
    field "snd_queue_seq" full (Tcb.set_snd_queue_seq, Tcb.snd_queue_seq);
    field "rcv_nxt" full (Tcb.set_rcv_nxt, Tcb.rcv_nxt);
    field "rtt_start" full (Tcb.set_rtt_start, Tcb.rtt_start);
    field "cookie" full (Tcb.set_cookie, Tcb.cookie);
    field "rto" full (word Tcb.k_rto);
    field "avoid_acc" full (word Tcb.k_avoid_acc);
    field "srtt | rttvar" full (word Tcb.k_srtt);
    field "win_acked | win_marked" full (word Tcb.k_ecn);
    field "bytes_in" full (Tcb.add_bytes_in, Tcb.bytes_in);
    field "bytes_out" full (Tcb.add_bytes_out, Tcb.bytes_out);
    field "snd_mss" 0x10000 (Tcb.set_snd_mss, Tcb.snd_mss);
    field "snd_wnd" full (Tcb.set_snd_wnd, Tcb.snd_wnd);
    field "rcv_adv_wnd" full (Tcb.set_rcv_adv_wnd, Tcb.rcv_adv_wnd);
    field "snd_queue_len" full (Tcb.set_snd_queue_len, Tcb.snd_queue_len);
    field "rcv_unconsumed" full (Tcb.set_rcv_unconsumed, Tcb.rcv_unconsumed);
    field "cwnd" full (Tcb.set_cwnd, Tcb.cwnd);
    field "ssthresh" full (Tcb.set_ssthresh, Tcb.ssthresh);
    field "segs_in" 50 (bump Tcb.incr_segs_in, Tcb.segs_in);
    field "segs_out" 50 (bump Tcb.incr_segs_out, Tcb.segs_out);
    field "rtt_seq" (1 lsl 32) (Tcb.set_rtt_seq, Tcb.rtt_seq);
    field "retransmits" 50 (bump Tcb.incr_retransmits, Tcb.retransmits);
    field "state" 10
      ( (fun t v -> Tcb.set_state t (Ixtcp.Tcp_state.of_int v)),
        fun t -> Ixtcp.Tcp_state.to_int (Tcb.state t) );
    field "last_close" 5
      ( (fun t v -> Tcb.set_last_close t Tcb.[| Normal; Reset; Timeout; Refused |].(v - 1)),
        fun t ->
          match Tcb.last_close t with
          | None -> 0
          | Some Normal -> 1
          | Some Reset -> 2
          | Some Timeout -> 3
          | Some Refused -> 4 );
    field "snd_wscale" 0x20 (Tcb.set_snd_wscale, Tcb.snd_wscale);
    field "delack_count" 0x100 (Tcb.set_delack_count, Tcb.delack_count);
    field "dupacks" 0x100 (Tcb.set_dupacks, Tcb.dupacks);
    field "rexmit_shots" 0x40 (Tcb.set_rexmit_shots, Tcb.rexmit_shots);
    field "backoff_mult" 0x100 (Tcb.set_backoff_mult, Tcb.backoff_mult);
    field "ws_enabled" 2 (bit Tcb.b_ws_enabled);
    field "fin_queued" 2 (bit Tcb.b_fin_queued);
    field "fin_sent" 2 (bit Tcb.b_fin_sent);
    field "close_notified" 2 (bit Tcb.b_close_notified);
    field "ce_to_echo" 2 (bit Tcb.b_ce_to_echo);
    field "rtt_have_sample" 2 (bit Tcb.b_rtt_have_sample);
    field "cong_recovery" 2 (bit Tcb.b_cong_recovery);
    field "port_owned" 2 (bit Tcb.b_port_owned);
    field "counted" 2 (bit Tcb.b_counted);
  ]

(* Connection [n]'s value for field [f]: nonzero, and different from
   its neighbours' wherever the field is wide enough. *)
let field_value n f range = 1 + (((n * 7919) + (f * 104_729)) mod (range - 1))

(* Each connection's row, written through the setters, must read back
   unchanged after the store grows under it and after [Tcb.migrate]
   moves it into another store (which grows too), and slot 0's dead
   row must stay all zeros (CLOSED) in both stores throughout.  Growth
   keeps each flow handle; migration rekeys it: the old handle reads
   dead in the source, and the view answers to the handle the
   destination gave it. *)
let test_rows_survive_growth_and_migration () =
  let store = Tcb.store_create ~initial:2 () in
  let env = make_env ~store () in
  let n = 3 in
  let key k = (80 + k, 0xA000000 + k, 5000 + k) in
  let fill k tcb =
    List.iteri (fun f (_, range, set, _) -> set tcb (field_value k f range)) row_fields;
    tcb.Tcb.store.Tcb.c_alpha.(tcb.Tcb.slot) <- float_of_int k +. 0.375
  in
  let tcbs =
    Array.init n (fun k ->
        let local_port, remote_ip, remote_port = key k in
        let tcb = make_tcb env ~local_port ~remote_ip ~remote_port in
        fill k tcb;
        tcb)
  in
  let handles = Array.map Tcb.flow_handle tcbs in
  let check_flow_handles what s =
    Array.iteri
      (fun k tcb ->
        let name field = Printf.sprintf "%s: conn %d %s" what k field in
        check_bool (name "handle derefs to its view") true
          (Tcb.deref s (Tcb.flow_handle tcb) == tcb);
        if s == store then check_int (name "handle kept") handles.(k) (Tcb.flow_handle tcb)
        else
          check_bool (name "old handle reads dead in the source") true
            (Tcb.deref store handles.(k) == Tcb.dead_view store))
      tcbs
  in
  let check_rows what =
    Array.iteri
      (fun k tcb ->
        let local_port, remote_ip, remote_port = key k in
        let name field = Printf.sprintf "%s: conn %d %s" what k field in
        check_int (name "local_ip") 1 (Tcb.local_ip tcb);
        check_int (name "remote_ip") remote_ip (Tcb.remote_ip tcb);
        check_int (name "local_port") local_port (Tcb.local_port tcb);
        check_int (name "remote_port") remote_port (Tcb.remote_port tcb);
        Alcotest.(check (float 0.)) (name "dctcp_alpha") (float_of_int k +. 0.375)
          (Tcb.dctcp_alpha tcb);
        List.iteri
          (fun f (field, range, _, get) ->
            check_int (name field) (field_value k f range) (get tcb))
          row_fields)
      tcbs
  in
  let check_dead_row what s =
    let dead = Tcb.dead_view s in
    for k = 0 to Tcb.row_words - 1 do
      check_int (Printf.sprintf "%s: dead row word %d" what k) 0 (Tcb.word dead k)
    done;
    check_string (what ^ ": dead row state") "CLOSED"
      (Ixtcp.Tcp_state.to_string (Tcb.state dead));
    Alcotest.(check (float 0.)) (what ^ ": dead row alpha") 0. (Tcb.dctcp_alpha dead)
  in
  check_bool "creating grew the store" true (Tcb.store_capacity store > 2);
  check_rows "after create";
  check_dead_row "source" store;
  let cap = Tcb.store_capacity store in
  Tcb.store_grow store;
  check_int "store_grow doubles" (2 * cap) (Tcb.store_capacity store);
  check_rows "after store_grow";
  check_flow_handles "after store_grow" store;
  check_dead_row "source after store_grow" store;
  let dst = Tcb.store_create ~initial:2 () in
  ignore (make_env ~store:dst ());
  Array.iter (fun tcb -> Tcb.migrate tcb dst) tcbs;
  check_int "source empty" 0 (Tcb.store_live store);
  check_int "destination holds every row" n (Tcb.store_live dst);
  check_bool "migrating grew the destination" true (Tcb.store_capacity dst > 2);
  check_rows "after migrate";
  check_flow_handles "after migrate" dst;
  check_dead_row "source after migrate" store;
  check_dead_row "destination" dst

(* 64 live flows reconnected a million times: each reconnect removes a
   flow and adds its successor on a fresh remote port.  The tombstones
   this leaves must be cleared in place, not paid for with doubling. *)
let reconnects = 1_000_000

let test_flow_table_churn_bounded () =
  let store = Tcb.store_create () in
  let env = make_env ~store () in
  let table = Flow_table.create ~store in
  let live = 64 in
  let port n = 1024 + (n mod 60_000) in
  let remote_ip i = 0xE000000 + i in
  let tcbs =
    Array.init live (fun i ->
        let tcb =
          make_tcb env ~local_port:80 ~remote_ip:(remote_ip i) ~remote_port:(port i)
        in
        Flow_table.add table ~local_port:80 ~remote_ip:(remote_ip i)
          ~remote_port:(port i) tcb;
        tcb)
  in
  for n = live to reconnects + live - 1 do
    let i = n mod live in
    Flow_table.remove table ~local_port:80 ~remote_ip:(remote_ip i)
      ~remote_port:(port (n - live));
    Tcb.release tcbs.(i);
    let tcb =
      make_tcb env ~local_port:80 ~remote_ip:(remote_ip i) ~remote_port:(port n)
    in
    Flow_table.add table ~local_port:80 ~remote_ip:(remote_ip i)
      ~remote_port:(port n) tcb;
    tcbs.(i) <- tcb
  done;
  check_int "live flows" live (Flow_table.count table);
  check_bool
    (Printf.sprintf "%d slots after %d reconnects <= 1024" (Flow_table.capacity table)
       reconnects)
    true
    (Flow_table.capacity table <= 1024);
  for n = reconnects to reconnects + live - 1 do
    let i = n mod live in
    match
      live_view
        (find table ~local_port:80 ~remote_ip:(remote_ip i)
           ~remote_port:(port n))
    with
    | Some tcb -> check_bool "latest flow" true (tcb == tcbs.(i))
    | None -> Alcotest.failf "lost flow %d after churn" i
  done

(* The module header's promise: [lookup] and [conn] run once per RX
   segment and allocate nothing, hit or miss, and an add/remove pair
   that reuses its tombstone (no rehash) allocates nothing either. *)
let test_flow_table_allocates_nothing () =
  let store = Tcb.store_create () in
  let env = make_env ~store () in
  let table = Flow_table.create ~store in
  let live = 64 in
  let tcbs =
    Array.init live (fun i ->
        let tcb =
          make_tcb env ~local_port:80 ~remote_ip:(0xD000000 + i) ~remote_port:6000
        in
        Flow_table.add table ~local_port:80 ~remote_ip:(0xD000000 + i)
          ~remote_port:6000 tcb;
        tcb)
  in
  let capacity = Flow_table.capacity table in
  let rounds = 10_000 in
  let finds ~local_port =
    let hits = ref 0 in
    for n = 0 to rounds - 1 do
      let tcb =
        find table ~local_port ~remote_ip:(0xD000000 + (n land 63))
          ~remote_port:6000
      in
      if not (Tcb.is_dead tcb) then incr hits
    done;
    !hits
  in
  let hits = Alloc_gate.none "words over 10k hits" (fun () -> finds ~local_port:80) in
  check_int "every hit found" rounds hits;
  let hits = Alloc_gate.none "words over 10k misses" (fun () -> finds ~local_port:81) in
  check_int "no miss found" 0 hits;
  Alloc_gate.none "words over 10k add/remove pairs" (fun () ->
      for n = 0 to rounds - 1 do
        let i = n land 63 in
        Flow_table.remove table ~local_port:80 ~remote_ip:(0xD000000 + i) ~remote_port:6000;
        Flow_table.add table ~local_port:80 ~remote_ip:(0xD000000 + i) ~remote_port:6000
          tcbs.(i)
      done);
  check_int "table did not grow" capacity (Flow_table.capacity table);
  check_int "every flow still live" live (Flow_table.count table);
  (* Remnant hits: the demux's one lookup, the lazy-expiry check, the
     re-ACK's sequence numbers and a refreshed deadline. *)
  for i = 0 to live - 1 do
    Flow_table.add_remnant table ~local_port:82 ~remote_ip:(0xD000000 + i)
      ~remote_port:6000 ~snd_nxt:i ~rcv_nxt:(i + 1) ~deadline:rounds
  done;
  let hits =
    Alloc_gate.none "words over 10k remnant hits" (fun () ->
        let hits = ref 0 in
        for n = 0 to rounds - 1 do
          let slot =
            Flow_table.lookup table ~local_port:82 ~remote_ip:(0xD000000 + (n land 63))
              ~remote_port:6000
          in
          if
            Flow_table.is_remnant table slot
            && (not (Flow_table.expire_remnant table slot ~now:n))
            && Flow_table.remnant_snd_nxt table slot = n land 63
            && Flow_table.remnant_rcv_nxt table slot = (n land 63) + 1
          then begin
            incr hits;
            Flow_table.refresh_remnant table slot ~deadline:(rounds + n)
          end
        done;
        !hits)
  in
  check_int "every remnant hit" rounds hits;
  check_int "no remnant expired" live (Flow_table.remnant_count table)

let test_store_grows () =
  let store = Tcb.store_create ~initial:2 () in
  let env = make_env ~store () in
  let table = Flow_table.create ~store in
  let n = 1000 in
  for i = 0 to n - 1 do
    let tcb =
      make_tcb env ~local_port:80 ~remote_ip:(0xB000000 + i) ~remote_port:5000
    in
    Tcb.set_cookie tcb i;
    Flow_table.add table ~local_port:80 ~remote_ip:(0xB000000 + i)
      ~remote_port:5000 tcb
  done;
  check_int "all live" n (Tcb.store_live store);
  check_bool "capacity grew" true (Tcb.store_capacity store >= n);
  (* Spot-check lookups after the store's arrays were reallocated. *)
  for i = 0 to n - 1 do
    match
      live_view
        (find table ~local_port:80 ~remote_ip:(0xB000000 + i)
           ~remote_port:5000)
    with
    | Some tcb -> assert (Tcb.cookie tcb = i)
    | None -> Alcotest.failf "lost connection %d after growth" i
  done

(* ------------------------------------------------------------------ *)
(* TIME_WAIT remnant table                                             *)

let remnant_table () = Flow_table.create ~store:(Tcb.store_create ())

(* The slot of the tuple's live remnant, or -1; an expired remnant is
   dropped on the way, as the endpoint's demux does. *)
let live_remnant table ~now ~local_port ~remote_ip ~remote_port =
  let slot = Flow_table.lookup table ~local_port ~remote_ip ~remote_port in
  if not (Flow_table.is_remnant table slot) then -1
  else if Flow_table.expire_remnant table slot ~now then -1
  else slot

let test_tw_collisions () =
  let tw = remnant_table () in
  (* Many tuples that differ only in remote port — whatever the hash,
     open addressing must keep them all distinct. *)
  let n = 257 in
  for i = 0 to n - 1 do
    Flow_table.add_remnant tw ~local_port:80 ~remote_ip:0xC0A80001
      ~remote_port:(1000 + i) ~snd_nxt:(100 + i) ~rcv_nxt:(200 + i)
      ~deadline:1_000_000
  done;
  check_int "all resident" n (Flow_table.remnant_count tw);
  check_int "no connections" 0 (Flow_table.count tw);
  for i = 0 to n - 1 do
    let slot =
      live_remnant tw ~now:0 ~local_port:80 ~remote_ip:0xC0A80001
        ~remote_port:(1000 + i)
    in
    check_bool "found" true (slot >= 0);
    check_int "right snd_nxt" (100 + i) (Flow_table.remnant_snd_nxt tw slot);
    check_int "right rcv_nxt" (200 + i) (Flow_table.remnant_rcv_nxt tw slot)
  done;
  (* Same tuple re-added replaces, not duplicates. *)
  Flow_table.add_remnant tw ~local_port:80 ~remote_ip:0xC0A80001 ~remote_port:1000
    ~snd_nxt:999 ~rcv_nxt:888 ~deadline:1_000_000;
  check_int "replace not duplicate" n (Flow_table.remnant_count tw);
  let slot =
    live_remnant tw ~now:0 ~local_port:80 ~remote_ip:0xC0A80001 ~remote_port:1000
  in
  check_int "replaced snd_nxt" 999 (Flow_table.remnant_snd_nxt tw slot)

let test_tw_churn_bounded () =
  let tw = remnant_table () in
  let live = 64 in
  let port n = 1024 + (n mod 60_000) in
  let add n =
    Flow_table.add_remnant tw ~local_port:80 ~remote_ip:(0xE000000 + (n mod live))
      ~remote_port:(port n) ~snd_nxt:n ~rcv_nxt:n ~deadline:max_int
  in
  for n = 0 to live - 1 do
    add n
  done;
  (* Each step ends the oldest remnant's quiet period early and parks
     a new one, holding the population at [live]. *)
  for n = live to reconnects + live - 1 do
    let old = n - live in
    let slot =
      live_remnant tw ~now:0 ~local_port:80
        ~remote_ip:(0xE000000 + (old mod live)) ~remote_port:(port old)
    in
    if slot < 0 then Alcotest.failf "lost remnant %d" old;
    Flow_table.remove_remnant tw slot;
    add n
  done;
  check_int "live remnants" live (Flow_table.remnant_count tw);
  check_bool
    (Printf.sprintf "%d slots after %d reconnects <= 1024" (Flow_table.capacity tw)
       reconnects)
    true
    (Flow_table.capacity tw <= 1024);
  for n = reconnects to reconnects + live - 1 do
    let slot =
      live_remnant tw ~now:0 ~local_port:80
        ~remote_ip:(0xE000000 + (n mod live)) ~remote_port:(port n)
    in
    check_bool "latest remnant found" true (slot >= 0);
    check_int "latest remnant's state" n (Flow_table.remnant_snd_nxt tw slot)
  done

let test_tw_expiry () =
  let tw = remnant_table () in
  Flow_table.add_remnant tw ~local_port:80 ~remote_ip:1 ~remote_port:1 ~snd_nxt:1
    ~rcv_nxt:1 ~deadline:100;
  Flow_table.add_remnant tw ~local_port:80 ~remote_ip:1 ~remote_port:2 ~snd_nxt:2
    ~rcv_nxt:2 ~deadline:300;
  check_bool "live before deadline" true
    (live_remnant tw ~now:50 ~local_port:80 ~remote_ip:1 ~remote_port:1 >= 0);
  (* Lazy expiry: a lookup at or past the deadline misses (and reaps). *)
  check_bool "live just before its deadline" true
    (live_remnant tw ~now:99 ~local_port:80 ~remote_ip:1 ~remote_port:1 >= 0);
  check_int "expired at its deadline" (-1)
    (live_remnant tw ~now:100 ~local_port:80 ~remote_ip:1 ~remote_port:1);
  check_int "expired is a miss" (-1)
    (live_remnant tw ~now:200 ~local_port:80 ~remote_ip:1 ~remote_port:1);
  check_bool "reaped on the way" true
    (Flow_table.lookup tw ~local_port:80 ~remote_ip:1 ~remote_port:1 < 0);
  check_bool "later deadline still live" true
    (live_remnant tw ~now:200 ~local_port:80 ~remote_ip:1 ~remote_port:2 >= 0);
  (* Sweep reaps everything expired. *)
  let reaped = Flow_table.sweep tw ~now:1_000 in
  check_int "sweep reaped the rest" 1 reaped;
  check_int "empty" 0 (Flow_table.remnant_count tw);
  (* Remnants alone fill the table past 3/8 live: it doubles, and the
     sweep still finds each row's new slot. *)
  let n = 1_000 in
  for i = 0 to n - 1 do
    Flow_table.add_remnant tw ~local_port:80 ~remote_ip:2 ~remote_port:i ~snd_nxt:i
      ~rcv_nxt:i ~deadline:(2_000 + (i land 1))
  done;
  check_bool "the table doubled" true (Flow_table.capacity tw > 1024);
  check_int "sweep reaped the even ports" (n / 2) (Flow_table.sweep tw ~now:2_000);
  for i = 0 to n - 1 do
    let slot = live_remnant tw ~now:2_000 ~local_port:80 ~remote_ip:2 ~remote_port:i in
    if i land 1 = 0 then check_int "swept" (-1) slot
    else check_int "kept with its state" i (Flow_table.remnant_snd_nxt tw slot)
  done

let test_tw_refresh () =
  let tw = remnant_table () in
  Flow_table.add_remnant tw ~local_port:80 ~remote_ip:9 ~remote_port:9 ~snd_nxt:5
    ~rcv_nxt:6 ~deadline:100;
  let slot = live_remnant tw ~now:0 ~local_port:80 ~remote_ip:9 ~remote_port:9 in
  Flow_table.refresh_remnant tw slot ~deadline:500;
  check_bool "refreshed deadline holds" true
    (live_remnant tw ~now:400 ~local_port:80 ~remote_ip:9 ~remote_port:9 >= 0)

(* ------------------------------------------------------------------ *)
(* Timer wheel at 1M armed timers                                      *)

let million = 1_000_000

let test_wheel_million_fire () =
  let w = Wheel.create ~now:0 () in
  let tick = Wheel.default_tick_ns in
  let fired = ref 0 in
  for i = 0 to million - 1 do
    (* Spread over ~65k ticks so every level of the hierarchy holds
       timers and cascades run. *)
    ignore
      (Wheel.schedule w
         ~deadline:((1 + (i mod 65_536)) * tick)
         (fun () -> incr fired))
  done;
  let s = Wheel.stats w in
  check_int "all armed" million s.Wheel.armed;
  check_int "high-water mark" million s.Wheel.max_armed;
  check_int "resident equals armed before any cancel" million
    (Array.fold_left ( + ) 0 s.Wheel.resident);
  Wheel.advance w ~now:(70_000 * tick);
  check_int "all fired" million !fired;
  check_int "none pending" 0 (Wheel.pending w);
  let s = Wheel.stats w in
  check_int "fired accounted" million s.Wheel.fired;
  check_int "nothing resident" 0 (Array.fold_left ( + ) 0 s.Wheel.resident);
  check_bool "cascades actually happened" true (s.Wheel.cascades > 0)

let test_wheel_million_cancel () =
  let w = Wheel.create ~now:0 () in
  let tick = Wheel.default_tick_ns in
  let timers =
    Array.init million (fun i ->
        Wheel.schedule w
          ~deadline:((1 + (i mod 65_536)) * tick)
          (fun () -> Alcotest.fail "cancelled timer fired"))
  in
  Array.iter (fun timer -> Wheel.cancel w timer) timers;
  (* Cancelling frees each cell at once, not at its slot's visit... *)
  check_int "armed drops to zero at cancel" 0 (Wheel.pending w);
  check_int "nothing resident" 0 (Array.fold_left ( + ) 0 (Wheel.stats w).Wheel.resident);
  Alcotest.(check int) "idle wheel reports no expiry" Wheel.no_expiry
    (Wheel.next_expiry w);
  (* ...so advancing a wheel whose every timer was cancelled must not
     grind tick by tick through 65k slots (wall-clock guard: this jump
     is O(1)). *)
  let t0 = Unix.gettimeofday () in
  Wheel.advance w ~now:(1_000_000_000 * tick);
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "advance over cancelled timers is immediate" true (elapsed < 0.5);
  let s = Wheel.stats w in
  check_int "cancelled accounted" million s.Wheel.cancelled;
  check_int "none fired" 0 s.Wheel.fired

(* ------------------------------------------------------------------ *)
(* conn-scale workload                                                 *)

let smoke_conns = 2_000
let smoke_events = 6_000

let test_conn_scale_smoke () =
  let r =
    Conn_scale.run ~syn_cookies:true ~conns:smoke_conns ~events:smoke_events ()
  in
  check_int "all connections sustained" smoke_conns r.Conn_scale.r_connection_count;
  check_int "store holds exactly the live set" smoke_conns
    r.Conn_scale.r_store_live;
  check_bool "connections were churned" true (r.Conn_scale.r_closes > 100);
  check_bool "every close reconnected" true
    (r.Conn_scale.r_reconnects = r.Conn_scale.r_closes);
  check_bool "cookie handshakes" true
    (r.Conn_scale.r_cookies_validated >= smoke_conns);
  check_int "no cookie rejects" 0 r.Conn_scale.r_cookies_rejected;
  check_int "no resets" 0 r.Conn_scale.r_rsts;
  check_bool "data flowed on the fast path" true
    (r.Conn_scale.r_fast_hits > r.Conn_scale.r_events / 2);
  check_bool "TIME_WAIT remnants drained at the end" true
    (r.Conn_scale.r_time_wait_live = 0)

let test_conn_scale_classic_listen () =
  (* Same workload through the stateful SYN_RCVD path. *)
  let r =
    Conn_scale.run ~syn_cookies:false ~conns:500 ~events:1_000 ()
  in
  check_int "all connections sustained" 500 r.Conn_scale.r_connection_count;
  check_int "no cookies on the classic path" 0 r.Conn_scale.r_cookies_sent;
  check_int "no resets" 0 r.Conn_scale.r_rsts

let test_conn_scale_deterministic () =
  let snap () =
    (Conn_scale.run ~conns:800 ~events:2_000 ~seed:11 ()).Conn_scale.r_snapshot
  in
  check_string "same seed, bit-identical snapshot" (snap ()) (snap ());
  let other =
    (Conn_scale.run ~conns:800 ~events:2_000 ~seed:12 ()).Conn_scale.r_snapshot
  in
  check_bool "different seed, different churn" true (other <> snap ())

(* The churn phase's whole TIME_WAIT path, pinned in
   golden/conn_scale.expected: every 16th event closes a connection
   into a remnant, and its reconnect either supersedes the remnant or
   waits out its quiet period for the sweep.  Cookies on and off take
   the two listen paths. *)
let test_conn_scale_pinned () =
  let snap syn_cookies =
    (Conn_scale.run ~syn_cookies ~conns:2_000 ~events:6_000 ~seed:42 ())
      .Conn_scale.r_snapshot
  in
  Golden.record "churn, cookies on" (snap true ^ "\n");
  Golden.record "churn, cookies off" (snap false ^ "\n")

(* A resident reading is one [Gc.stat], which runs one full major
   collection of its own; [run] reads twice (before and after
   establishment), so a run forces exactly two collections.  A
   [Gc.full_major] in front of each reading would double that. *)
let test_conn_scale_two_collections () =
  let forced () = (Gc.quick_stat ()).Gc.forced_major_collections in
  let before = forced () in
  let r = Conn_scale.run ~conns:256 ~events:256 () in
  let after = forced () in
  check_int "all connections sustained" 256 r.Conn_scale.r_connection_count;
  check_int "one forced collection per resident reading" 2 (after - before)

(* The store's own words: a row, the DCTCP float, a generation, a
   free-list entry and a view pointer per slot, at every capacity. *)
let test_store_words () =
  let store = Tcb.store_create ~initial:64 () in
  ignore (make_env ~store ());
  check_int "29 words per slot" (64 * 29) (Tcb.store_words store);
  Tcb.store_grow store;
  check_int "grown store" (128 * 29) (Tcb.store_words store)

let flood_syns = 1_000_000

let test_syn_flood_stateless () =
  let f = Conn_scale.syn_flood ~syns:flood_syns ~seed:42 () in
  check_int "every SYN answered with a cookie" flood_syns
    f.Conn_scale.f_cookies_sent;
  check_int "no TCBs allocated" 0 f.Conn_scale.f_tcbs_allocated;
  check_int "no connections" 0 f.Conn_scale.f_connections;
  check_bool "per-SYN allocation stays small" true
    (f.Conn_scale.f_minor_words_per_syn < 256.)

(* The cookie listen path allocates nothing: with the mbuf pool's
   buffers made, 10 k SYNs on distinct tuples, each answered by a
   stateless SYN-ACK, cost no word — no cookie tuple, no listener
   [Some], no reply header. *)
let test_cookie_listen_allocates_nothing () =
  let pool = Ixmem.Mempool.create ~capacity:1024 ~name:"syn-flood" () in
  let ep =
    Ixtcp.Tcp_endpoint.create
      ~now:(fun () -> 0)
      ~wheel:(Wheel.create ~now:0 ())
      ~alloc:(fun () -> Ixmem.Mempool.alloc pool)
      ~output_raw:(fun ~remote_ip:_ mbuf -> Ixmem.Mbuf.decref mbuf)
      ~rng:(Engine.Rng.create ~seed:1)
      ~local_ip:(Ixnet.Ip_addr.of_octets 10 0 0 1)
      ~config:{ Tcb.default_config with Tcb.syn_cookies = true }
      ()
  in
  Ixtcp.Tcp_endpoint.listen ep ~port:80 ~on_accept:ignore;
  let seg = Ixnet.Tcp_segment.scratch () in
  seg.Ixnet.Tcp_segment.dst_port <- 80;
  seg.Ixnet.Tcp_segment.syn <- true;
  seg.Ixnet.Tcp_segment.window <- 0xFFFF;
  seg.Ixnet.Tcp_segment.mss <- Some 1460;
  let syn k =
    match Ixmem.Mempool.alloc pool with
    | None -> Alcotest.fail "mbuf pool exhausted"
    | Some mbuf ->
        seg.Ixnet.Tcp_segment.src_port <- 2_000 + (k mod 60_000);
        seg.Ixnet.Tcp_segment.seq <- k * 7;
        Ixtcp.Tcp_endpoint.rx_segment ep
          ~src_ip:(Ixnet.Ip_addr.of_octets 10 2 ((k / 60_000) land 0xFF) 1)
          seg mbuf;
        Ixmem.Mbuf.decref mbuf
  in
  for k = 0 to 999 do
    syn k
  done;
  Alloc_gate.none "words over 10k SYNs" (fun () ->
      for k = 1_000 to 10_999 do
        syn k
      done);
  check_int "every SYN answered with a cookie" 11_000
    (Ixtcp.Tcp_endpoint.syn_cookies_sent ep);
  check_int "no connections" 0 (Ixtcp.Tcp_endpoint.connection_count ep)

(* Establishment allocates each connection's [Tcb.create] (23 words)
   and nothing else per handshake; [Conn_scale]'s reply ring and the
   wheel's cell pool grow a few times during it, which the one word of
   slack covers (23.04 at 2 k connections, 23.00 at 1 M). *)
let establish_words_budget = 24.

(* The memory gates: a [base_conns] and a [full_conns] churn leg plus a
   SYN flood.  Per-event cost is gated on minor words per churn event,
   the deterministic measure of allocation cost, not on wall clock,
   which would make the flatness gate flaky. *)
let check_gates ~base_conns ~full_conns ~events ~syns () =
  let base = Conn_scale.run ~conns:base_conns ~events () in
  let full = Conn_scale.run ~conns:full_conns ~events () in
  let flood = Conn_scale.syn_flood ~syns ~seed:42 () in
  let base_words = base.Conn_scale.r_churn_minor_words_per_event in
  let full_words = full.Conn_scale.r_churn_minor_words_per_event in
  let flatness = if base_words > 0. then (full_words /. base_words) -. 1. else 0. in
  check_int "sustained every connection" full_conns full.Conn_scale.r_connection_count;
  List.iter
    (fun (r : Conn_scale.result) ->
      let words = r.Conn_scale.r_establish_minor_words_per_conn in
      check_bool
        (Printf.sprintf "%.2f minor words/conn established <= %.0f (%d conns)" words
           establish_words_budget r.Conn_scale.r_conns)
        true
        (words <= establish_words_budget))
    [ base; full ];
  check_bool
    (Printf.sprintf "%.1f resident bytes/conn <= 400" full.Conn_scale.r_bytes_per_conn)
    true
    (full.Conn_scale.r_bytes_per_conn <= 400.);
  check_bool
    (Printf.sprintf "minor words/event %.2f -> %.2f (%d -> %d conns) flat within 15%%"
       base_words full_words base_conns full_conns)
    true
    (Float.abs flatness <= 0.15);
  check_int "SYN flood allocates no TCBs" 0 flood.Conn_scale.f_tcbs_allocated;
  (* Steady-state comparison floor: at 16 words the two sides are both
     "a queue cell and change", and a ratio gate on noise helps no one. *)
  let steady = Float.max full_words 16. in
  check_bool
    (Printf.sprintf "SYN flood minor words/SYN %.2f <= 2x steady state (%.2f)"
       flood.Conn_scale.f_minor_words_per_syn steady)
    true
    (flood.Conn_scale.f_minor_words_per_syn <= 2. *. steady)

let test_gates_smoke () =
  check_gates ~base_conns:2_000 ~full_conns:20_000 ~events:20_000 ~syns:20_000 ()

let test_gates_full () =
  check_gates ~base_conns:10_000 ~full_conns:million ~events:200_000 ~syns:flood_syns ()

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Golden.run "conn_scale"
    [
      ( "store",
        [
          qt prop_flow_table_matches_model;
          Alcotest.test_case "store growth keeps handles valid" `Quick
            test_store_grows;
          Alcotest.test_case "exact hash collision" `Quick
            test_flow_table_hash_collision;
          Alcotest.test_case "misses, stale handles and released views read dead"
            `Quick test_flow_table_dead_view;
          Alcotest.test_case "Tcb.create allocates 23 words" `Quick
            test_create_allocation;
          Alcotest.test_case "store words per slot" `Quick test_store_words;
          Alcotest.test_case "every field survives growth and migration" `Quick
            test_rows_survive_growth_and_migration;
          Alcotest.test_case "1M reconnects keep the table small" `Quick
            test_flow_table_churn_bounded;
          Alcotest.test_case "find, add and remove allocate nothing" `Quick
            test_flow_table_allocates_nothing;
        ] );
      ( "time-wait",
        [
          Alcotest.test_case "collision handling" `Quick test_tw_collisions;
          Alcotest.test_case "1M reconnects keep the table small" `Quick
            test_tw_churn_bounded;
          Alcotest.test_case "expiry: lazy + sweep" `Quick test_tw_expiry;
          Alcotest.test_case "refresh" `Quick test_tw_refresh;
        ] );
      ( "wheel-1m",
        [
          Alcotest.test_case "1M timers all fire" `Quick test_wheel_million_fire;
          Alcotest.test_case "1M cancels are O(1) visible" `Quick
            test_wheel_million_cancel;
        ] );
      ( "conn-scale",
        [
          Alcotest.test_case "churn smoke (cookies)" `Quick test_conn_scale_smoke;
          Alcotest.test_case "churn smoke (classic listen)" `Quick
            test_conn_scale_classic_listen;
          Alcotest.test_case "same-seed determinism" `Quick
            test_conn_scale_deterministic;
          Alcotest.test_case "pinned churn snapshot" `Quick
            test_conn_scale_pinned;
          Alcotest.test_case "two collections per run" `Quick
            test_conn_scale_two_collections;
          Alcotest.test_case "SYN flood allocates no TCBs" `Quick
            test_syn_flood_stateless;
          Alcotest.test_case "cookie listen path allocates nothing" `Quick
            test_cookie_listen_allocates_nothing;
          Alcotest.test_case "memory gates, 2k -> 20k conns" `Quick
            test_gates_smoke;
          Alcotest.test_case "memory gates, 10k -> 1M conns" `Quick
            test_gates_full;
        ] );
    ]
