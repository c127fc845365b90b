type port = { mutable mac : Ixnet.Mac_addr.t; mutable out : Link.t option }

type t = {
  sim : Engine.Sim.t;
  ports : port array;
  mac_table : (Ixnet.Mac_addr.t, int) Hashtbl.t;
  mutable bonds : int list list;
  (* Per-port LAG membership, precomputed by [bond]: [bond_member.(p)]
     is the member array of the group containing port [p], or [[||]]
     when [p] is unbonded.  [forward] runs once per frame and must not
     allocate, so the list scan happens at bonding time, not here. *)
  mutable bond_member : int array array;
  mutable forwarded_count : int;
  mutable flooded_count : int;
  (* Frames crossing the fabric, tagged with their ingress port.  The
     crossing latency is constant, so frames leave in input order: each
     input schedules one event running the shared [forward_next] thunk,
     which pops the ring head — no per-frame closure. *)
  crossing : Frame_ring.t;
  mutable forward_next : unit -> unit;
}

let attach t ~port ~mac ~out =
  t.ports.(port).mac <- mac;
  t.ports.(port).out <- Some out;
  Hashtbl.replace t.mac_table mac port

let bond t ~ports =
  t.bonds <- ports :: t.bonds;
  let members = Array.of_list ports in
  List.iter (fun p -> t.bond_member.(p) <- members) ports

(* Egress consumes one frame reference: either the link takes it, or
   an unattached port drops it (releasing the wire buffer). *)
let egress t port_idx frame =
  match t.ports.(port_idx).out with
  | Some link -> Link.send link frame
  | None -> Frame.release frame (* unattached port: frame dropped *)

let forward t ~ingress_port frame =
  let dst = Frame.dst_mac frame in
  if Ixnet.Mac_addr.is_broadcast dst then begin
    t.flooded_count <- t.flooded_count + 1;
    (* Flooding fans the single incoming reference out to k egresses:
       the first egress reuses it, each further one takes its own
       retain; zero egresses means the reference is released here. *)
    let sent_first = ref false in
    for i = 0 to Array.length t.ports - 1 do
      if i <> ingress_port && Option.is_some t.ports.(i).out then begin
        if !sent_first then Frame.retain frame else sent_first := true;
        egress t i frame
      end
    done;
    if not !sent_first then Frame.release frame
  end
  else begin
    match Hashtbl.find t.mac_table dst with
    | exception Not_found ->
        (* unknown unicast: drop (hosts are statically attached) *)
        Frame.release frame
    | port_idx ->
        t.forwarded_count <- t.forwarded_count + 1;
        (* Pick the LAG member carrying this frame's flow. *)
        let members = t.bond_member.(port_idx) in
        let port_idx =
          if Array.length members = 0 then port_idx
          else members.(Frame.l3l4_hash frame mod Array.length members)
        in
        egress t port_idx frame
  end

let forward_head t =
  let ingress_port = Frame_ring.head_tag t.crossing in
  forward t ~ingress_port (Frame_ring.pop t.crossing)

(* Cut-through latency from ingress to egress. *)
let crossing_ns = 300

let create sim ~ports () =
  {
    sim;
    ports = Array.init ports (fun _ -> { mac = Ixnet.Mac_addr.zero; out = None });
    mac_table = Hashtbl.create 64;
    bonds = [];
    bond_member = Array.make ports [||];
    forwarded_count = 0;
    flooded_count = 0;
    crossing = Frame_ring.create ();
    forward_next = ignore;
  }
  |> fun t ->
  t.forward_next <- (fun () -> forward_head t);
  t

let input t ~ingress_port frame =
  Frame_ring.push t.crossing frame ~tag:ingress_port;
  Engine.Sim.after t.sim crossing_ns t.forward_next

let forwarded t = t.forwarded_count
let flooded t = t.flooded_count
