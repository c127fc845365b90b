(* Million-connection scale tests (ISSUE 7): SoA store + flow table
   model checking, TIME_WAIT remnant table behaviour, timer-wheel
   capacity at 1M armed timers, and the conn-scale churn workload. *)

module Wheel = Timerwheel.Timer_wheel
module Tcb = Ixtcp.Tcb
module Flow_table = Ixtcp.Flow_table
module Tw_table = Ixtcp.Tw_table
module Conn_scale = Workloads.Conn_scale

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let make_env ?store () =
  let wheel = Wheel.create ~now:0 () in
  Tcb.make_env
    ~now:(fun () -> 0)
    ~wheel
    ~alloc:(fun () -> None)
    ~output:(fun _ _ -> ())
    ~rng:(Engine.Rng.create ~seed:7)
    ~handle_alloc:(ref 0) ?store ()

let make_tcb env ~local_port ~remote_ip ~remote_port =
  Tcb.create env Tcb.default_config ~local_ip:1 ~local_port ~remote_ip
    ~remote_port ~cookie:0

(* ------------------------------------------------------------------ *)
(* SoA store + flow table vs a naive map                               *)

(* Random op sequences executed against both the open-addressing flow
   table (hashes beside generation-checked handles into the SoA store)
   and a Hashtbl model.  Lookup results and counts must agree at every
   step, and iteration contents at the end.  Each add reconnects one of
   [keys] connections on a fresh remote port, as churn does, so removes
   leave tombstones that later adds rarely reuse, and long sequences
   carry the table past 768 used slots (3/4 of the initial 1024).  The
   key count varies per case: many live keys make the table double,
   few make it rebuild at the same capacity. *)
let prop_flow_table_matches_model =
  let open QCheck in
  let max_keys = 1024 in
  (* op: 0 = add, 1 = remove, 2 = find; keys below the case's key count *)
  let case =
    Gen.(
      int_range 128 max_keys >>= fun keys ->
      map
        (fun ops -> (keys, ops))
        (list_size (int_range 1 8000)
           (pair (int_range 0 2) (int_range 0 (keys - 1)))))
  in
  Test.make ~name:"flow table matches naive map under random ops" ~count:100
    (make case)
    (fun (_, ops) ->
      let store = Tcb.store_create ~initial:4 () in
      let env = make_env ~store () in
      let table = Flow_table.create ~store in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      (* Remote port of each connection's latest tuple; 0 before its
         first add, a tuple that must simply miss. *)
      let port = Array.make max_keys 0 in
      let tuple k = (1000 + (k land 3), 0xA000000 + (k lsr 2), port.(k)) in
      let uid = ref 0 in
      let agree_stepwise =
        List.for_all
          (fun (op, k) ->
            (match op with
            | 0 ->
                if not (Hashtbl.mem model k) then begin
                  incr uid;
                  port.(k) <- !uid;
                  let local_port, remote_ip, remote_port = tuple k in
                  let tcb = make_tcb env ~local_port ~remote_ip ~remote_port in
                  Tcb.set_cookie tcb !uid;
                  Flow_table.add table ~local_port ~remote_ip ~remote_port tcb;
                  Hashtbl.replace model k !uid
                end
            | 1 ->
                let local_port, remote_ip, remote_port = tuple k in
                Flow_table.remove table ~local_port ~remote_ip ~remote_port;
                Hashtbl.remove model k
            | _ -> ());
            let local_port, remote_ip, remote_port = tuple k in
            let found =
              match Flow_table.find table ~local_port ~remote_ip ~remote_port with
              | Some tcb -> Some (Tcb.cookie tcb)
              | None -> None
            in
            found = Hashtbl.find_opt model k
            && Flow_table.count table = Hashtbl.length model)
          ops
      in
      let iterated = ref [] in
      Flow_table.iter table (fun tcb -> iterated := Tcb.cookie tcb :: !iterated);
      agree_stepwise
      && List.sort compare !iterated
         = List.sort compare (Hashtbl.fold (fun _ uid acc -> uid :: acc) model []))

(* [hash] first folds the key to [krem lxor (kloc * 0x3779B97F4A7C15)],
   so local ports 0 and 21855 collide exactly — all 63 bits — when the
   remote halves differ by [21855 * 0x3779B97F4A7C15], a product that
   fits in 48 bits (a 32-bit address and a 16-bit port).  Stored hashes
   then match and only the key columns tell the two flows apart. *)
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
    match Flow_table.find table ~local_port ~remote_ip ~remote_port with
    | Some tcb -> Some (Tcb.cookie tcb)
    | None -> None
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
  check_found "first survives removing the second" 0 (Some 0)

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
      Flow_table.find table ~local_port:80 ~remote_ip:(remote_ip i)
        ~remote_port:(port n)
    with
    | Some tcb -> check_bool "latest flow" true (tcb == tcbs.(i))
    | None -> Alcotest.failf "lost flow %d after churn" i
  done

(* The module header's promise: [find] runs once per RX segment and
   allocates nothing, hit or miss, and an add/remove pair that reuses
   its tombstone (no rehash) allocates nothing either. *)
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
      match
        Flow_table.find table ~local_port ~remote_ip:(0xD000000 + (n land 63))
          ~remote_port:6000
      with
      | Some _ -> incr hits
      | None -> ()
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
  check_int "every flow still live" live (Flow_table.count table)

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
  (* Spot-check lookups after the column arrays were reallocated. *)
  for i = 0 to n - 1 do
    match
      Flow_table.find table ~local_port:80 ~remote_ip:(0xB000000 + i)
        ~remote_port:5000
    with
    | Some tcb -> assert (Tcb.cookie tcb = i)
    | None -> Alcotest.failf "lost connection %d after growth" i
  done

(* ------------------------------------------------------------------ *)
(* TIME_WAIT remnant table                                             *)

let test_tw_collisions () =
  let tw = Tw_table.create () in
  (* Many tuples that differ only in remote port — whatever the hash,
     open addressing must keep them all distinct. *)
  let n = 257 in
  for i = 0 to n - 1 do
    Tw_table.add tw ~local_port:80 ~remote_ip:0xC0A80001 ~remote_port:(1000 + i)
      ~snd_nxt:(100 + i) ~rcv_nxt:(200 + i) ~deadline:1_000_000
  done;
  check_int "all resident" n (Tw_table.count tw);
  for i = 0 to n - 1 do
    let slot =
      Tw_table.find_slot tw ~now:0 ~local_port:80 ~remote_ip:0xC0A80001
        ~remote_port:(1000 + i)
    in
    check_bool "found" true (slot >= 0);
    check_int "right snd_nxt" (100 + i) (Tw_table.fin_snd_nxt tw slot);
    check_int "right rcv_nxt" (200 + i) (Tw_table.fin_rcv_nxt tw slot)
  done;
  (* Same tuple re-added replaces, not duplicates. *)
  Tw_table.add tw ~local_port:80 ~remote_ip:0xC0A80001 ~remote_port:1000
    ~snd_nxt:999 ~rcv_nxt:888 ~deadline:1_000_000;
  check_int "replace not duplicate" n (Tw_table.count tw);
  let slot =
    Tw_table.find_slot tw ~now:0 ~local_port:80 ~remote_ip:0xC0A80001
      ~remote_port:1000
  in
  check_int "replaced snd_nxt" 999 (Tw_table.fin_snd_nxt tw slot)

let test_tw_churn_bounded () =
  let tw = Tw_table.create () in
  let live = 64 in
  let port n = 1024 + (n mod 60_000) in
  let add n =
    Tw_table.add tw ~local_port:80 ~remote_ip:(0xE000000 + (n mod live))
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
      Tw_table.find_slot tw ~now:0 ~local_port:80
        ~remote_ip:(0xE000000 + (old mod live)) ~remote_port:(port old)
    in
    if slot < 0 then Alcotest.failf "lost remnant %d" old;
    Tw_table.remove tw slot;
    add n
  done;
  check_int "live remnants" live (Tw_table.count tw);
  check_bool
    (Printf.sprintf "%d slots after %d reconnects <= 1024" (Tw_table.capacity tw)
       reconnects)
    true
    (Tw_table.capacity tw <= 1024);
  for n = reconnects to reconnects + live - 1 do
    let slot =
      Tw_table.find_slot tw ~now:0 ~local_port:80
        ~remote_ip:(0xE000000 + (n mod live)) ~remote_port:(port n)
    in
    check_bool "latest remnant found" true (slot >= 0);
    check_int "latest remnant's state" n (Tw_table.fin_snd_nxt tw slot)
  done

let test_tw_expiry () =
  let tw = Tw_table.create () in
  Tw_table.add tw ~local_port:80 ~remote_ip:1 ~remote_port:1 ~snd_nxt:1
    ~rcv_nxt:1 ~deadline:100;
  Tw_table.add tw ~local_port:80 ~remote_ip:1 ~remote_port:2 ~snd_nxt:2
    ~rcv_nxt:2 ~deadline:300;
  check_bool "live before deadline" true
    (Tw_table.find_slot tw ~now:50 ~local_port:80 ~remote_ip:1 ~remote_port:1
    >= 0);
  (* Lazy expiry: a lookup past the deadline misses (and reaps). *)
  check_int "expired is a miss" (-1)
    (Tw_table.find_slot tw ~now:200 ~local_port:80 ~remote_ip:1 ~remote_port:1);
  check_bool "later deadline still live" true
    (Tw_table.find_slot tw ~now:200 ~local_port:80 ~remote_ip:1 ~remote_port:2
    >= 0);
  (* Sweep reaps everything expired. *)
  let reaped = Tw_table.sweep tw ~now:1_000 in
  check_int "sweep reaped the rest" 1 reaped;
  check_int "empty" 0 (Tw_table.count tw)

let test_tw_refresh () =
  let tw = Tw_table.create () in
  Tw_table.add tw ~local_port:80 ~remote_ip:9 ~remote_port:9 ~snd_nxt:5
    ~rcv_nxt:6 ~deadline:100;
  let slot =
    Tw_table.find_slot tw ~now:0 ~local_port:80 ~remote_ip:9 ~remote_port:9
  in
  Tw_table.refresh tw slot ~deadline:500;
  check_bool "refreshed deadline holds" true
    (Tw_table.find_slot tw ~now:400 ~local_port:80 ~remote_ip:9 ~remote_port:9
    >= 0)

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

let flood_syns = 1_000_000

let test_syn_flood_stateless () =
  let f = Conn_scale.syn_flood ~syns:flood_syns ~seed:42 () in
  check_int "every SYN answered with a cookie" flood_syns
    f.Conn_scale.f_cookies_sent;
  check_int "no TCBs allocated" 0 f.Conn_scale.f_tcbs_allocated;
  check_int "no connections" 0 f.Conn_scale.f_connections;
  check_bool "per-SYN allocation stays small" true
    (f.Conn_scale.f_minor_words_per_syn < 256.)

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
  Alcotest.run "conn_scale"
    [
      ( "store",
        [
          qt prop_flow_table_matches_model;
          Alcotest.test_case "store growth keeps handles valid" `Quick
            test_store_grows;
          Alcotest.test_case "exact hash collision" `Quick
            test_flow_table_hash_collision;
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
          Alcotest.test_case "SYN flood allocates no TCBs" `Quick
            test_syn_flood_stateless;
          Alcotest.test_case "memory gates, 2k -> 20k conns" `Quick
            test_gates_smoke;
          Alcotest.test_case "memory gates, 10k -> 1M conns" `Quick
            test_gates_full;
        ] );
    ]
