module Ip_map = Map.Make (Int)

type t = {
  table : Ixnet.Mac_addr.t Ip_map.t Rcu.t;
  parked : (Ixnet.Ip_addr.t, Ixmem.Mbuf.t list) Hashtbl.t;
  mutable retired : int;
}

let max_parked_per_ip = 8

let create mgr = { table = Rcu.make mgr Ip_map.empty; parked = Hashtbl.create 16; retired = 0 }

let lookup t ip = Ip_map.find_opt ip (Rcu.read t.table)
let find t ip = Ip_map.find ip (Rcu.read t.table)

let learn t ip mac =
  match lookup t ip with
  | Some known when known = mac -> ()
  | Some _ | None ->
      Rcu.update t.table (Ip_map.add ip mac) ~retired:(fun _old ->
          t.retired <- t.retired + 1)

let park t ip mbuf =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.parked ip) in
  if List.length existing >= max_parked_per_ip then Ixmem.Mbuf.decref mbuf
  else Hashtbl.replace t.parked ip (mbuf :: existing)

let take_parked t ip =
  match Hashtbl.find_opt t.parked ip with
  | None -> []
  | Some frames ->
      Hashtbl.remove t.parked ip;
      List.rev frames

let entries t = Ip_map.cardinal (Rcu.read t.table)
let retired_versions t = t.retired

let parked_count t =
  Hashtbl.fold (fun _ frames acc -> acc + List.length frames) t.parked 0
