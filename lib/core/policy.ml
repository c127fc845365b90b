type action = Allow | Deny

type rule = {
  src_ip : Ixnet.Ip_addr.t option;
  dst_port : int option;
  action : action;
}

type t = {
  mutable rules : rule list; (* insertion order *)
  mutable rate : int option; (* bytes per second *)
  tokens : float array; (* one cell, so a per-packet update boxes nothing *)
  mutable last_refill : int;
  mutable denied_count : int;
  mutable metered_count : int;
}

let create () =
  {
    rules = [];
    rate = None;
    tokens = [| 0. |];
    last_refill = 0;
    denied_count = 0;
    metered_count = 0;
  }

(* Appending is O(rules), but rules change on the control path while
   [admit] runs per packet, so the list is kept in evaluation order. *)
let add_rule t rule = t.rules <- t.rules @ [ rule ]
let clear_rules t = t.rules <- []

let set_rate_limit t ~bytes_per_sec =
  t.rate <- bytes_per_sec;
  t.tokens.(0) <- (match bytes_per_sec with Some r -> float_of_int r /. 100. | None -> 0.)

let rule_matches rule ~src_ip ~dst_port =
  (match rule.src_ip with Some ip -> ip = src_ip | None -> true)
  && match rule.dst_port with Some p -> p = dst_port | None -> true

(* Top-level rather than a local closure over the packet fields, so a
   lookup allocates nothing. *)
let rec scan ~src_ip ~dst_port = function
  | [] -> Allow
  | rule :: rest ->
      if rule_matches rule ~src_ip ~dst_port then rule.action
      else scan ~src_ip ~dst_port rest

let firewall_action t ~src_ip ~dst_port = scan ~src_ip ~dst_port t.rules

let metering_admits t ~now ~len =
  match t.rate with
  | None -> true
  | Some rate ->
      (* Refill the bucket for elapsed time; cap at 10 ms worth. *)
      let elapsed_s = float_of_int (now - t.last_refill) /. 1e9 in
      t.last_refill <- now;
      let cap = float_of_int rate /. 100. in
      t.tokens.(0) <- Float.min cap (t.tokens.(0) +. (elapsed_s *. float_of_int rate));
      if t.tokens.(0) >= float_of_int len then begin
        t.tokens.(0) <- t.tokens.(0) -. float_of_int len;
        true
      end
      else false

let admit t ~now ~src_ip ~dst_port ~len =
  match firewall_action t ~src_ip ~dst_port with
  | Deny ->
      t.denied_count <- t.denied_count + 1;
      false
  | Allow ->
      if metering_admits t ~now ~len then true
      else begin
        t.metered_count <- t.metered_count + 1;
        false
      end

let denied t = t.denied_count
let metered_drops t = t.metered_count
