type domain = Kernel | User | Idle_poll

type t = {
  core_id : int;
  mutable free_time : Engine.Sim_time.t;
  mutable kernel_busy : int;
  mutable user_busy : int;
  mutable poll_busy : int;
}

let create ~id = { core_id = id; free_time = 0; kernel_busy = 0; user_busy = 0; poll_busy = 0 }
let free_at t = t.free_time
let busy t ~now = t.free_time > now

let charge t ~now domain ns =
  assert (ns >= 0);
  let start = Engine.Sim_time.max now t.free_time in
  let finish = start + ns in
  t.free_time <- finish;
  (match domain with
  | Kernel -> t.kernel_busy <- t.kernel_busy + ns
  | User -> t.user_busy <- t.user_busy + ns
  | Idle_poll -> t.poll_busy <- t.poll_busy + ns);
  finish

let kernel_ns t = t.kernel_busy
let user_ns t = t.user_busy
let busy_ns_total t = t.kernel_busy + t.user_busy + t.poll_busy

let kernel_share t =
  let total = t.kernel_busy + t.user_busy in
  if total = 0 then 0. else float_of_int t.kernel_busy /. float_of_int total

let reset_accounting t =
  t.kernel_busy <- 0;
  t.user_busy <- 0;
  t.poll_busy <- 0
