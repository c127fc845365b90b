type port = { mutable mac : Ixnet.Mac_addr.t; mutable out : Link.t option }

type t = {
  ports : port array;
  mac_table : (Ixnet.Mac_addr.t, int) Hashtbl.t;
  (* Per-port LAG membership, precomputed by [bond]: [bond_member.(p)]
     is the member array of the group containing port [p], or [[||]]
     when [p] is unbonded.  [input] runs once per frame and must not
     allocate, so the list scan happens at bonding time, not here. *)
  bond_member : int array array;
  mutable forwarded_count : int;
  mutable flooded_count : int;
}

let attach t ~port ~mac ~out =
  t.ports.(port).mac <- mac;
  t.ports.(port).out <- Some out;
  Hashtbl.replace t.mac_table mac port

let bond t ~ports =
  let members = Array.of_list ports in
  List.iter (fun p -> t.bond_member.(p) <- members) ports

(* Egress consumes one frame reference: either the link takes it, or
   an unattached port drops it (releasing the wire buffer). *)
let egress t port_idx frame =
  match t.ports.(port_idx).out with
  | Some link -> Link.send link frame
  | None -> Frame.release frame (* unattached port: frame dropped *)

let input t ~ingress_port frame =
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

(* Cut-through latency from ingress to egress.  It is constant, so it
   is charged on the link into the switch: forwarding on input keeps
   the frames' arrival order, and each egress link sees the same
   send times as if the crossing were a separate event. *)
let crossing_ns = 300

let create ~ports () =
  {
    ports = Array.init ports (fun _ -> { mac = Ixnet.Mac_addr.zero; out = None });
    mac_table = Hashtbl.create 64;
    bond_member = Array.make ports [||];
    forwarded_count = 0;
    flooded_count = 0;
  }

let forwarded t = t.forwarded_count
let flooded t = t.flooded_count
