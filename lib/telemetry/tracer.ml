type stage =
  | Rx_driver
  | Tcp_in
  | Event_delivery
  | User_phase
  | Syscall
  | Timer
  | Tx_driver
  | Crossing

let stages =
  [
    Rx_driver;
    Tcp_in;
    Event_delivery;
    User_phase;
    Syscall;
    Timer;
    Tx_driver;
    Crossing;
  ]

let stage_code = function
  | Rx_driver -> 0
  | Tcp_in -> 1
  | Event_delivery -> 2
  | User_phase -> 3
  | Syscall -> 4
  | Timer -> 5
  | Tx_driver -> 6
  | Crossing -> 7

let stage_of_code = function
  | 0 -> Rx_driver
  | 1 -> Tcp_in
  | 2 -> Event_delivery
  | 3 -> User_phase
  | 4 -> Syscall
  | 5 -> Timer
  | 6 -> Tx_driver
  | _ -> Crossing

let stage_name = function
  | Rx_driver -> "rx-driver"
  | Tcp_in -> "tcp-in"
  | Event_delivery -> "event-delivery"
  | User_phase -> "user-app"
  | Syscall -> "syscalls"
  | Timer -> "timers"
  | Tx_driver -> "tx-driver"
  | Crossing -> "ring-crossings"

let n_stages = List.length stages

type t = {
  thread : int;
  capacity : int;
  codes : int array;
  starts : int array;
  stops : int array;
  mutable head : int;       (* next write slot *)
  mutable retained : int;   (* min recorded capacity *)
  mutable recorded : int;   (* all-time span count *)
  totals : int array;       (* all-time ns per stage *)
  counts : int array;       (* all-time spans per stage *)
}

let create ?(capacity = 4096) ~thread () =
  let capacity = max 1 capacity in
  {
    thread;
    capacity;
    codes = Array.make capacity 0;
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    head = 0;
    retained = 0;
    recorded = 0;
    totals = Array.make n_stages 0;
    counts = Array.make n_stages 0;
  }

let thread t = t.thread

let span t stage ~start ~stop =
  if stop > start then begin
    let code = stage_code stage in
    t.codes.(t.head) <- code;
    t.starts.(t.head) <- start;
    t.stops.(t.head) <- stop;
    t.head <- (t.head + 1) mod t.capacity;
    if t.retained < t.capacity then t.retained <- t.retained + 1;
    t.recorded <- t.recorded + 1;
    t.totals.(code) <- t.totals.(code) + (stop - start);
    t.counts.(code) <- t.counts.(code) + 1
  end

type span = { stage : stage; start : int; stop : int }

let iter t f =
  let first = (t.head - t.retained + t.capacity) mod t.capacity in
  for i = 0 to t.retained - 1 do
    let slot = (first + i) mod t.capacity in
    f
      {
        stage = stage_of_code t.codes.(slot);
        start = t.starts.(slot);
        stop = t.stops.(slot);
      }
  done

let spans t =
  let acc = ref [] in
  iter t (fun s -> acc := s :: !acc);
  List.rev !acc

let recorded t = t.recorded

let breakdown t =
  List.map
    (fun stage ->
      let c = stage_code stage in
      (stage, t.totals.(c), t.counts.(c)))
    stages

let busy_ns t = Array.fold_left ( + ) 0 t.totals
