module Mbuf = Ixmem.Mbuf

type handle = int
type kind = Knock | Connected | Recv | Sent | Dead | Udp_recv

(* Row layout: slot 0 holds the kind code (the constructor's index in
   [kind]); the rest are named by the accessors below.
     slot 1  cookie (Connected, Recv, Sent, Dead) | port (Knock, Udp_recv)
     slot 2  handle (Knock, Connected) | off (Recv, Udp_recv)
             | bytes_sent (Sent) | reason code (Dead)
     slot 3  ok (Connected) | len (Recv, Udp_recv) | window_size (Sent)
     slot 4  src_ip (Knock, Udp_recv)
     slot 5  src_port (Knock, Udp_recv) *)
let stride = 6

type events = {
  mutable rows : int array; (* rows.(stride*i .. stride*i+5) is event i *)
  mutable mbufs : Mbuf.t array; (* event i's mbuf (Recv, Udp_recv) *)
  mutable len : int;
  fill : Mbuf.t; (* inert mbuf for the other slots *)
}

let create_events ~fill = { rows = [||]; mbufs = [||]; len = 0; fill }
let[@inline] count ev = ev.len
let[@inline] slot ev i k = ev.rows.((stride * i) + k)

let kind ev i =
  match slot ev i 0 with
  | 0 -> Knock
  | 1 -> Connected
  | 2 -> Recv
  | 3 -> Sent
  | 4 -> Dead
  | _ -> Udp_recv

let[@inline] cookie ev i = slot ev i 1
let[@inline] port ev i = slot ev i 1
let[@inline] handle ev i = slot ev i 2
let[@inline] off ev i = slot ev i 2
let[@inline] bytes_sent ev i = slot ev i 2
let[@inline] ok ev i = slot ev i 3 <> 0
let[@inline] len ev i = slot ev i 3
let[@inline] window_size ev i = slot ev i 3
let[@inline] src_ip ev i = slot ev i 4
let[@inline] src_port ev i = slot ev i 5
let[@inline] mbuf ev i = ev.mbufs.(i)

let reason ev i : Ixtcp.Tcb.close_reason =
  match slot ev i 2 with
  | 0 -> Normal
  | 1 -> Reset
  | 2 -> Timeout
  | _ -> Refused

let reason_code : Ixtcp.Tcb.close_reason -> int = function
  | Normal -> 0
  | Reset -> 1
  | Timeout -> 2
  | Refused -> 3

let grow ev =
  let cap = Int.max 64 (2 * Array.length ev.mbufs) in
  let rows = Array.make (stride * cap) 0 and mbufs = Array.make cap ev.fill in
  Array.blit ev.rows 0 rows 0 (stride * ev.len);
  Array.blit ev.mbufs 0 mbufs 0 ev.len;
  ev.rows <- rows;
  ev.mbufs <- mbufs

(* Append one row; returns its index. *)
let push ev code s1 s2 s3 s4 s5 =
  let i = ev.len in
  if i = Array.length ev.mbufs then grow ev;
  let k = stride * i and rows = ev.rows in
  rows.(k) <- code;
  rows.(k + 1) <- s1;
  rows.(k + 2) <- s2;
  rows.(k + 3) <- s3;
  rows.(k + 4) <- s4;
  rows.(k + 5) <- s5;
  ev.len <- i + 1;
  i

let stage_knock ev ~handle ~src_ip ~src_port ~port =
  ignore (push ev 0 port handle 0 src_ip src_port)

let stage_connected ev ~cookie ~handle ~ok =
  ignore (push ev 1 cookie handle (Bool.to_int ok) 0 0)

let stage_recv ev ~cookie mbuf ~off ~len =
  let i = push ev 2 cookie off len 0 0 in
  ev.mbufs.(i) <- mbuf

let stage_sent ev ~cookie ~bytes_sent ~window_size =
  ignore (push ev 3 cookie bytes_sent window_size 0 0)

let stage_dead ev ~cookie reason = ignore (push ev 4 cookie (reason_code reason) 0 0 0)

let stage_udp_recv ev ~port ~src_ip ~src_port mbuf ~off ~len =
  let i = push ev 5 port off len src_ip src_port in
  ev.mbufs.(i) <- mbuf

let clear ev =
  Array.fill ev.mbufs 0 ev.len ev.fill;
  ev.len <- 0

(* Remove the rows whose slot 1 is [key], keeping the others in order.
   With [move], each removed row is first patched in place with
   [cookie] in slot 1 — parked rows are all connection events, so that
   is their cookie slot — and appended to [into]. *)
let extract ev ~key ~cookie ~into ~move =
  let kept = ref 0 in
  for i = 0 to ev.len - 1 do
    let k = stride * i in
    if ev.rows.(k + 1) = key then begin
      if move then begin
        ev.rows.(k + 1) <- cookie;
        let j =
          push into ev.rows.(k) cookie ev.rows.(k + 2) ev.rows.(k + 3) ev.rows.(k + 4)
            ev.rows.(k + 5)
        in
        into.mbufs.(j) <- ev.mbufs.(i)
      end
    end
    else begin
      if !kept < i then begin
        Array.blit ev.rows k ev.rows (stride * !kept) stride;
        ev.mbufs.(!kept) <- ev.mbufs.(i)
      end;
      incr kept
    end
  done;
  Array.fill ev.mbufs !kept (ev.len - !kept) ev.fill;
  ev.len <- !kept

let unpark ev ~key ~cookie ~into = extract ev ~key ~cookie ~into ~move:true
let discard ev ~key = extract ev ~key ~cookie:0 ~into:ev ~move:false
