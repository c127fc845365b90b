(* The traced run's instruments.

   A pass-through tap on every NIC-facing link times each delivery
   into [Nic.receive] and copies the first frames it sees.  The tap
   forwards every frame unchanged at its arrival time, so a traced run
   simulates exactly what an untraced one does.  After the run the
   captured frames are replayed through single layers' public
   functions, each timed alone, giving ns/op and minor words/op. *)

module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Seg = Ixnet.Tcp_segment
module Ip = Ixnet.Ipv4_packet
module Wheel = Timerwheel.Timer_wheel
module Tcb = Ixtcp.Tcb
module Tcp_endpoint = Ixtcp.Tcp_endpoint
module Kv = Apps.Kv_protocol
open Measure

type t = {
  now : unit -> int;  (** simulated ns *)
  mutable srv_ns : int;
  mutable srv_frames : int;
  mutable cli_ns : int;
  mutable cli_frames : int;
  cap_to_server : bool array;
  cap_time : int array;
  cap_bytes : Bytes.t array;
  mutable cap_n : int;
}

let create ?(capacity = 24_000) ~now () =
  {
    now;
    srv_ns = 0;
    srv_frames = 0;
    cli_ns = 0;
    cli_frames = 0;
    cap_to_server = Array.make capacity false;
    cap_time = Array.make capacity 0;
    cap_bytes = Array.make capacity Bytes.empty;
    cap_n = 0;
  }

let tap t ~to_server frame deliver =
  let n = t.cap_n in
  if n < Array.length t.cap_bytes then begin
    t.cap_to_server.(n) <- to_server;
    t.cap_time.(n) <- t.now ();
    t.cap_bytes.(n) <- Ixhw.Frame.copy_bytes frame;
    t.cap_n <- n + 1
  end;
  let t0 = now_ns () in
  deliver frame;
  let dt = now_ns () - t0 in
  if to_server then begin
    t.srv_ns <- t.srv_ns + dt;
    t.srv_frames <- t.srv_frames + 1
  end
  else begin
    t.cli_ns <- t.cli_ns + dt;
    t.cli_frames <- t.cli_frames + 1
  end

let attach t (c : Harness.Cluster.t) =
  List.iter
    (fun l -> Ixhw.Link.set_tap l (Some (tap t ~to_server:true)))
    c.Harness.Cluster.server_rx_links;
  List.iter
    (fun l -> Ixhw.Link.set_tap l (Some (tap t ~to_server:false)))
    c.Harness.Cluster.client_rx_links

(* ------------------------------------------------------------------ *)
(* Captured frames, decoded once                                       *)

type pkt = {
  mbuf : Mbuf.t;  (** the frame, restored to [off]/[len] before each use *)
  off : int;
  len : int;
  time : int;
  to_server : bool;
  tcp : bool;
  src_ip : int;
  dst_ip : int;
  src_port : int;
  dst_port : int;
  tcp_off : int;  (** absolute offset of the TCP header in [mbuf.buf] *)
  tcp_len : int;
  payload : string;  (** TCP payload *)
  syn : bool;
  ackf : bool;
  seq : int;
}

let restore p =
  p.mbuf.Mbuf.off <- p.off;
  p.mbuf.Mbuf.len <- p.len

let packets t =
  let eth = Ixnet.Ethernet.scratch () and ip = Ip.scratch () and seg = Seg.scratch () in
  List.filter_map
    (fun i ->
      let b = t.cap_bytes.(i) in
      let len = Bytes.length b in
      let m = Mbuf.create ~size:(Mbuf.headroom + len) () in
      Mbuf.append_bytes m b 0 len;
      let off = m.Mbuf.off in
      let base =
        {
          mbuf = m; off; len; time = t.cap_time.(i); to_server = t.cap_to_server.(i);
          tcp = false; src_ip = 0; dst_ip = 0; src_port = 0; dst_port = 0;
          tcp_off = 0; tcp_len = 0; payload = ""; syn = false; ackf = false; seq = 0;
        }
      in
      let p =
        if Ixnet.Ethernet.decode_into m eth && Ip.decode_into m ip
           && ip.Ip.protocol = Ip.Tcp
        then begin
          let tcp_off = m.Mbuf.off and tcp_len = m.Mbuf.len in
          if Seg.decode_into m ~src:ip.Ip.src ~dst:ip.Ip.dst seg then
            {
              base with
              tcp = true; src_ip = ip.Ip.src; dst_ip = ip.Ip.dst;
              src_port = seg.Seg.src_port; dst_port = seg.Seg.dst_port;
              tcp_off; tcp_len;
              payload = Bytes.sub_string m.Mbuf.buf seg.Seg.payload_off seg.Seg.payload_len;
              syn = seg.Seg.syn; ackf = seg.Seg.ack_flag; seq = seg.Seg.seq;
            }
          else base
        end
        else base
      in
      restore p;
      Some p)
    (List.init t.cap_n Fun.id)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

type cost = { ns_per_op : float; words_per_op : float }

let no_cost = { ns_per_op = 0.; words_per_op = 0. }

(* Run [pass] (which returns its op count) until at least three passes
   and 30 ms have elapsed; report the median pass's ns/op. *)
let time_passes pass =
  let per_pass = ref [] and words = ref 0. and ops_total = ref 0 in
  let t_start = now_ns () in
  while List.length !per_pass < 3 || now_ns () - t_start < 30_000_000 do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let ops = pass () in
    let dt = now_ns () - t0 in
    words := !words +. (Gc.minor_words () -. w0);
    ops_total := !ops_total + ops;
    per_pass := ratio (float_of_int dt) (float_of_int ops) :: !per_pass
  done;
  if !ops_total = 0 then no_cost
  else
    {
      ns_per_op = median !per_pass;
      words_per_op = !words /. float_of_int !ops_total;
    }

let tcp_pkts pkts = Array.of_list (List.filter (fun p -> p.tcp) (Array.to_list pkts))

(* net: Ethernet + IPv4 + TCP decode (the TCP decode verifies the
   checksum) of every captured frame. *)
let replay_decode pkts =
  let eth = Ixnet.Ethernet.scratch () and ip = Ip.scratch () and seg = Seg.scratch () in
  time_passes (fun () ->
      Array.iter
        (fun p ->
          restore p;
          let m = p.mbuf in
          if Ixnet.Ethernet.decode_into m eth && Ip.decode_into m ip
             && ip.Ip.protocol = Ip.Tcp
          then ignore (Seg.decode_into m ~src:ip.Ip.src ~dst:ip.Ip.dst seg))
        pkts;
      Array.length pkts)

let replay_checksum tcp =
  let inits =
    Array.map
      (fun p ->
        Ixnet.Checksum.pseudo_header_sum ~src:p.src_ip ~dst:p.dst_ip ~protocol:6
          ~length:p.tcp_len)
      tcp
  in
  time_passes (fun () ->
      Array.iteri
        (fun i p ->
          if not (Ixnet.Checksum.verify p.mbuf.Mbuf.buf ~off:p.tcp_off ~len:p.tcp_len ~init:inits.(i))
          then raise (Check_failed "replayed frame fails its checksum"))
        tcp;
      Array.length tcp)

(* hw: the NIC's Toeplitz classification of each server-bound tuple. *)
let replay_rss tcp =
  let srv = Array.of_list (List.filter (fun p -> p.to_server) (Array.to_list tcp)) in
  let sink = ref 0 in
  time_passes (fun () ->
      Array.iter
        (fun p ->
          sink :=
            !sink
            lxor Ixhw.Toeplitz.hash_tuple ~src_ip:p.src_ip ~dst_ip:p.dst_ip
                   ~src_port:p.src_port ~dst_port:p.dst_port ())
        srv;
      Array.length srv)

(* mem: one mbuf lifecycle per captured frame — pool alloc, fill with
   the frame, release. *)
let replay_mempool pkts =
  let pool = Mempool.create ~capacity:1024 ~name:"ixbench-replay" () in
  time_passes (fun () ->
      Array.iter
        (fun p ->
          match Mempool.alloc pool with
          | None -> raise (Check_failed "replay mempool exhausted")
          | Some m ->
              Mbuf.append_bytes m p.mbuf.Mbuf.buf p.off p.len;
              Mbuf.decref m)
        pkts;
      Array.length pkts)

(* mem: the send queue — push each server send (captured payload size),
   and drop the front as an ACK would every fourth push; cost per send. *)
let replay_iov_deque tcp =
  let sends =
    List.filter_map
      (fun p -> if (not p.to_server) && p.payload <> "" then Some (Ixmem.Iovec.of_string p.payload) else None)
      (Array.to_list tcp)
    |> Array.of_list
  in
  let q = Ixmem.Iov_deque.create () in
  time_passes (fun () ->
      Array.iteri
        (fun i iov ->
          Ixmem.Iov_deque.push q iov;
          if i land 3 = 3 then Ixmem.Iov_deque.drop_front q (Ixmem.Iov_deque.bytes q))
        sends;
      Ixmem.Iov_deque.clear q;
      Array.length sends)

(* timerwheel: a retransmission timer re-armed per server-bound segment
   of its flow, the wheel advanced to each segment's arrival time. *)
let replay_wheel tcp =
  let srv = Array.of_list (List.filter (fun p -> p.to_server) (Array.to_list tcp)) in
  if Array.length srv = 0 then no_cost
  else begin
    let flows = Hashtbl.create 1024 in
    let slot =
      Array.map
        (fun p ->
          let k = (p.src_ip lsl 16) lor p.src_port in
          match Hashtbl.find_opt flows k with
          | Some i -> i
          | None ->
              let i = Hashtbl.length flows in
              Hashtbl.replace flows k i;
              i)
        srv
    in
    let timers = Array.make (Hashtbl.length flows) Wheel.null in
    let fire () = () in
    time_passes (fun () ->
        let w = Wheel.create ~now:srv.(0).time () in
        Array.iteri
          (fun i p ->
            Wheel.advance w ~now:p.time;
            Wheel.cancel w timers.(slot.(i));
            timers.(slot.(i)) <- Wheel.schedule w ~deadline:(p.time + 200_000) fire)
          srv;
        Array.fill timers 0 (Array.length timers) Wheel.null;
        Array.length srv)
  end

(* apps: the server's request parser over each flow's captured byte
   stream. *)
let replay_kv_parse tcp ~port =
  let srv =
    List.filter (fun p -> p.to_server && p.dst_port = port && p.payload <> "") (Array.to_list tcp)
    |> Array.of_list
  in
  if Array.length srv = 0 then no_cost
  else
    time_passes (fun () ->
        let parsers = Hashtbl.create 2048 in
        let reqs = ref 0 in
        Array.iter
          (fun p ->
            let k = (p.src_ip lsl 16) lor p.src_port in
            let parser =
              match Hashtbl.find_opt parsers k with
              | Some x -> x
              | None ->
                  let x = Kv.Parser.create () in
                  Hashtbl.replace parsers k x;
                  x
            in
            Kv.Parser.feed parser p.payload;
            let rec pull () =
              match Kv.Parser.next_request parser with
              | Some _ ->
                  incr reqs;
                  pull ()
              | None -> ()
            in
            pull ())
          srv;
        !reqs)

(* telemetry: recording the run's own latency samples. *)
let replay_hist samples =
  let n = Samples.length samples in
  if n = 0 then no_cost
  else
    time_passes (fun () ->
        let h = Ixtelemetry.Log_hist.create () in
        for i = 0 to n - 1 do
          Ixtelemetry.Log_hist.record h (Samples.get samples i)
        done;
        n)

(* tcp: the server side of every captured connection, replayed into a
   fresh endpoint configured like the IX server's.  The replay endpoint
   picks its own initial sequence numbers, so each client ACK is
   rebased from the live server's ISS onto the replay's; the live
   server's sends are re-issued on the replay connection when they
   reached the client.  [fidelity] is the share of replayed segments
   the replay endpoint took without a RST or challenge ACK — how far
   the replay reproduces the live connection states. *)
type tcp_replay = { cost : cost; fidelity : float }

let replay_tcp_once tcp ~server_ip ~port =
  let flow ip p = (ip lsl 16) lor p in
  let pool = Mempool.create ~capacity:65_536 ~name:"ixbench-tcp-replay" () in
  let clock = ref (if Array.length tcp > 0 then tcp.(0).time else 0) in
  let wheel = Wheel.create ~now:!clock () in
  let live_iss = Hashtbl.create 4096 and replay_iss = Hashtbl.create 4096 in
  let tcbs = Hashtbl.create 4096 in
  let out = Seg.scratch () in
  let output_raw ~remote_ip mbuf =
    if Seg.decode_into mbuf ~src:server_ip ~dst:remote_ip out && out.Seg.syn && out.Seg.ack_flag
    then Hashtbl.replace replay_iss (flow remote_ip out.Seg.dst_port) out.Seg.seq;
    Mbuf.decref mbuf
  in
  let ep =
    Tcp_endpoint.create
      ~now:(fun () -> !clock)
      ~wheel
      ~alloc:(fun () -> Mempool.alloc pool)
      ~output_raw ~rng:(Engine.Rng.create ~seed:1) ~local_ip:server_ip
      ~config:Ix_core.Ix_host.ix_tcp_config ()
  in
  Tcp_endpoint.listen ep ~port ~on_accept:(fun tcb ->
      Hashtbl.replace tcbs (flow (Tcb.remote_ip tcb) (Tcb.remote_port tcb)) tcb;
      tcb.Tcb.callbacks.Tcb.on_recv <-
        (fun m _ len ->
          Mbuf.decref m;
          Ixtcp.Tcp_conn.consume tcb len));
  let eth = Ixnet.Ethernet.scratch () and ip = Ip.scratch () and seg = Seg.scratch () in
  let zeros = Bytes.make 2048 '\000' in
  let replayed = ref 0 and ns = ref 0 and words = ref 0. in
  Array.iter
    (fun p ->
      if p.to_server && p.dst_port = port then begin
        match Mempool.alloc pool with
        | None -> raise (Check_failed "tcp replay mempool exhausted")
        | Some m ->
            Mbuf.append_bytes m p.mbuf.Mbuf.buf p.off p.len;
            if Ixnet.Ethernet.decode_into m eth && Ip.decode_into m ip
               && Seg.decode_into m ~src:ip.Ip.src ~dst:ip.Ip.dst seg
            then begin
              let k = flow p.src_ip p.src_port in
              (if seg.Seg.ack_flag then
                 match (Hashtbl.find_opt live_iss k, Hashtbl.find_opt replay_iss k) with
                 | Some l, Some r -> seg.Seg.ack <- (seg.Seg.ack - l + r) land 0xFFFF_FFFF
                 | _ -> ());
              clock := p.time;
              Wheel.advance wheel ~now:p.time;
              let w0 = Gc.minor_words () in
              let t0 = now_ns () in
              Tcp_endpoint.rx_segment ep ~src_ip:p.src_ip seg m;
              ns := !ns + (now_ns () - t0);
              words := !words +. (Gc.minor_words () -. w0);
              incr replayed
            end;
            Mbuf.decref m
      end
      else if (not p.to_server) && p.src_port = port then begin
        let k = flow p.dst_ip p.dst_port in
        if p.syn && p.ackf then Hashtbl.replace live_iss k p.seq
        else if p.payload <> "" then
          match Hashtbl.find_opt tcbs k with
          | Some tcb ->
              clock := max !clock p.time;
              ignore
                (Ixtcp.Tcp_conn.send_iov tcb
                   (Ixmem.Iovec.sub (Ixmem.Iovec.of_bytes zeros) 0 (String.length p.payload)))
          | None -> ()
      end)
    tcp;
  let n = !replayed in
  let bad = Tcp_endpoint.rsts_sent ep + Tcp_endpoint.challenge_acks_sent ep in
  ( {
      ns_per_op = ratio (float_of_int !ns) (float_of_int n);
      words_per_op = ratio !words (float_of_int n);
    },
    if n = 0 then 0. else Float.max 0. (float_of_int (n - bad) /. float_of_int n) )

let replay_tcp tcp ~server_ip ~port =
  let runs = List.init 3 (fun _ -> replay_tcp_once tcp ~server_ip ~port) in
  let c0, fidelity = List.hd runs in
  {
    cost = { c0 with ns_per_op = median (List.map (fun (c, _) -> c.ns_per_op) runs) };
    fidelity;
  }

(* Everything the traced run reports about single layers. *)
type replays = {
  decode : cost;
  checksum : cost;
  rss : cost;
  mempool : cost;
  iov : cost;
  wheel : cost;
  kv : cost;
  hist : cost;
  tcp : tcp_replay;
}

let no_replays =
  {
    decode = no_cost; checksum = no_cost; rss = no_cost; mempool = no_cost;
    iov = no_cost; wheel = no_cost; kv = no_cost; hist = no_cost;
    tcp = { cost = no_cost; fidelity = 0. };
  }

let replay t ~server_ip ~port ~latencies =
  let pkts = packets t in
  let tcp = tcp_pkts pkts in
  {
    decode = replay_decode pkts;
    checksum = replay_checksum tcp;
    rss = replay_rss tcp;
    mempool = replay_mempool pkts;
    iov = replay_iov_deque tcp;
    wheel = replay_wheel tcp;
    kv = replay_kv_parse tcp ~port;
    hist = replay_hist latencies;
    tcp = replay_tcp tcp ~server_ip ~port;
  }
