(* One connection's control block outside any endpoint, shared by the
   TCP and DCTCP suites: the RTT estimator and congestion-control
   functions of [Tcb] act on its row directly, with no segment ever
   sent.  [mss], the RTO bounds and DCTCP come from the config; the
   initial window is [iw] segments. *)

open Ixtcp

let create ?(dctcp = false) ?(min_rto_ns = 1_000_000)
    ?(max_rto_ns = 60_000_000_000) ~mss ~iw () =
  let env =
    Tcp_conn.make_env
      ~now:(fun () -> 0)
      ~wheel:(Timerwheel.Timer_wheel.create ~now:0 ())
      ~alloc:(fun () -> None)
      ~output:(fun _ mbuf -> Ixmem.Mbuf.decref mbuf)
      ~rng:(Engine.Rng.create ~seed:1) ()
  in
  let cfg = { Tcb.default_config with mss; min_rto_ns; max_rto_ns; dctcp } in
  let tcb =
    Tcb.create env cfg ~local_ip:1 ~local_port:1 ~remote_ip:2 ~remote_port:2
      ~cookie:0
  in
  Tcb.set_cwnd tcb (mss * iw);
  tcb
