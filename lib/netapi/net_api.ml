type close_reason = Ixtcp.Tcb.close_reason =
  | Normal
  | Reset
  | Timeout
  | Refused

let close_reason_name = function
  | Normal -> "normal"
  | Reset -> "reset"
  | Timeout -> "timeout"
  | Refused -> "refused"

type census = { capacity : int; live : int }

type conn = {
  id : int;
  send : string -> bool;
  close : unit -> unit;
  abort : unit -> unit;
  peer : Ixnet.Ip_addr.t * int;
  home : unit -> int;
}

type handlers = {
  on_connected : conn -> ok:bool -> unit;
  on_data : conn -> string -> unit;
  on_sent : conn -> int -> unit;
  on_closed : conn -> close_reason -> unit;
}

let null_handlers =
  {
    on_connected = (fun _ ~ok:_ -> ());
    on_data = (fun _ _ -> ());
    on_sent = (fun _ _ -> ());
    on_closed = (fun _ _ -> ());
  }

let inert_conn ~peer ~home =
  { id = -1; send = (fun _ -> false); close = ignore; abort = ignore; peer; home }

type stack = {
  name : string;
  threads : unit -> census;
  connect : thread:int -> ip:Ixnet.Ip_addr.t -> port:int -> handlers -> unit;
  listen : port:int -> (thread:int -> conn -> handlers) -> unit;
  run_app : thread:int -> (unit -> unit) -> unit;
  charge_app : thread:int -> int -> unit;
  metrics : unit -> Ixtelemetry.Metrics.snapshot;
  conn_count : unit -> int;
}

let capacity stack = (stack.threads ()).capacity
let live_threads stack = (stack.threads ()).live

let static_census n =
  let census = { capacity = n; live = n } in
  fun () -> census

let kernel_share stack =
  Ixtelemetry.Metrics.snap_gauge (stack.metrics ()) "kernel_share"

let busy_ns stack =
  int_of_float (Ixtelemetry.Metrics.snap_gauge (stack.metrics ()) "busy_ns")
