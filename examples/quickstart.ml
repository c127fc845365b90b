(* Quickstart: the IX dataplane in ~80 lines.

   Builds a two-machine simulated testbed (one IX server, one Linux
   client machine, a 10GbE switch), serves an echo application written
   directly against libix — including the zero-copy read path — and
   reports what happened.

     dune exec examples/quickstart.exe *)

module Cluster = Harness.Cluster
module Libix = Ix_core.Libix
module Ix_host = Ix_core.Ix_host

let () =
  (* 1. A testbed: IX server with 2 elastic threads, one client box. *)
  let server = Cluster.server_spec ~threads:2 Cluster.Ix in
  let cluster = Cluster.build ~client_hosts:1 ~client_threads:1 ~server () in
  let host = Option.get cluster.Cluster.server_ix in

  (* 2. An echo server on the *raw* libix API, using the zero-copy
     reader: payloads arrive as read-only mbuf slices; recv_done both
     releases the buffer and opens the receive window (Table 1). *)
  let echoed = ref 0 in
  for thread = 0 to Ix_host.thread_count host - 1 do
    let lib = Ix_host.libix host thread in
    Libix.set_zero_copy_reader lib (fun conn mbuf off len ->
        incr echoed;
        let payload = Bytes.sub_string mbuf.Ixmem.Mbuf.buf off len in
        ignore (Libix.send conn payload);
        Libix.recv_done conn mbuf len);
    Libix.run lib (fun () ->
        Libix.listen lib ~port:7 ~on_accept:(fun _conn -> Netapi.Net_api.null_handlers))
  done;

  (* 3. A client that sends three messages and prints the echoes. *)
  let client = List.hd cluster.Cluster.clients in
  let replies = ref [] in
  let handlers =
    {
      Netapi.Net_api.on_connected =
        (fun conn ~ok ->
          if ok then ignore (conn.Netapi.Net_api.send "hello dataplane"));
      on_data =
        (fun conn data ->
          replies := data :: !replies;
          if List.length !replies < 3 then
            ignore (conn.Netapi.Net_api.send (Printf.sprintf "message %d" (List.length !replies + 1)))
          else conn.Netapi.Net_api.close ());
      on_sent = (fun _ _ -> ());
      on_closed = (fun _ _ -> ());
    }
  in
  client.Netapi.Net_api.connect ~thread:0 ~ip:cluster.Cluster.server_ip ~port:7 handlers;

  (* 4. Run the simulated world. *)
  Engine.Sim.run ~until:(Engine.Sim_time.ms 50) cluster.Cluster.sim;

  Printf.printf "echoed %d messages through the dataplane\n" !echoed;
  List.iteri (fun i r -> Printf.printf "  reply %d: %S\n" (i + 1) r) (List.rev !replies);
  let dp0 = Ix_host.dataplane host 0 and dp1 = Ix_host.dataplane host 1 in
  Printf.printf "run-to-completion cycles: %d (thread 0) + %d (thread 1)\n"
    (Ix_core.Dataplane.cycles_run dp0)
    (Ix_core.Dataplane.cycles_run dp1);
  Printf.printf "protection-domain crossings: %d\n"
    (Ix_core.Protection.crossings (Ix_core.Dataplane.protection dp0)
    + Ix_core.Protection.crossings (Ix_core.Dataplane.protection dp1));
  Printf.printf "kernel share of CPU time: %.1f%%\n" (100. *. Ix_host.kernel_share host)
