module Mbuf = Ixmem.Mbuf
module Iov_deque = Ixmem.Iov_deque
module Net_api = Netapi.Net_api

let max_pending_send = 1 lsl 20

type conn = {
  cookie : int;
  mutable owner : t;
      (* current home thread's libix; flow-group migration retargets it,
         and every conn-directed operation routes through it so syscalls
         always reach the dataplane that owns the TCB *)
  mutable handle : int; (* -1 until the dataplane reports it *)
  mutable handlers : Net_api.handlers;
  net : Net_api.conn;
      (* the conn's one portable value: every handler and the acceptor
         receive it, before and after a migration *)
  write_queue : Iov_deque.t;
      (* in order; consumed from the front.  A [sys_sendv] moves
         exactly the bytes the stack accepts off it, so its byte count
         is the backlog [send] bounds. *)
  mutable dirty : bool;
  mutable dead : bool;
}

and t = {
  dp : Dataplane.t;
  conns : (int, conn) Hashtbl.t; (* by cookie *)
  acceptors : (int, Net_api.conn -> Net_api.handlers) Hashtbl.t;
      (* by listening port *)
  udp_handlers :
    (int, src:Ixnet.Ip_addr.t * int -> string -> unit) Hashtbl.t; (* by port *)
  cookie_alloc : int ref;
      (* shared across a host's libs so cookies stay unique when a conn
         migrates between threads (events route by cookie) *)
  (* Conns with queued writes for this round's flush:
     [dirty_conns.(0 .. n_dirty-1)] in marking order, and the spare
     side [flush] swaps in, so a conn marked while a round flushes
     waits for the next one.  Unused slots hold [no_conn]. *)
  mutable dirty_conns : conn array;
  mutable n_dirty : int;
  mutable flushing : conn array;
  no_conn : conn;
  mutable zc_reader : (conn -> Mbuf.t -> int -> int -> unit) option;
}

let fresh_cookie t =
  let c = !(t.cookie_alloc) in
  t.cookie_alloc := c + 1;
  c

let push_dirty t conn =
  if t.n_dirty = Array.length t.dirty_conns then begin
    let dirty = Array.make (Int.max 16 (2 * t.n_dirty)) t.no_conn in
    Array.blit t.dirty_conns 0 dirty 0 t.n_dirty;
    t.dirty_conns <- dirty
  end;
  t.dirty_conns.(t.n_dirty) <- conn;
  t.n_dirty <- t.n_dirty + 1

let mark_dirty conn =
  let o = conn.owner in
  if not conn.dirty then begin
    conn.dirty <- true;
    push_dirty o conn
  end

(* Coalesce each dirty connection's queued writes into one sendv (the
   libix behaviour the paper describes), reissuing trimmed suffixes on
   later rounds.  The syscall carries the write queue itself:
   execution moves the accepted prefix by reference onto the TCB's
   send queue, so nothing is materialized or rebuilt per round.  Conns
   flush most recently marked first. *)
let flush t =
  let dirty = t.dirty_conns and n = t.n_dirty in
  t.dirty_conns <- t.flushing;
  t.flushing <- dirty;
  t.n_dirty <- 0;
  for i = n - 1 downto 0 do
    let conn = dirty.(i) in
    dirty.(i) <- t.no_conn;
    conn.dirty <- false;
    if (not conn.dead) && conn.handle >= 0
       && not (Iov_deque.is_empty conn.write_queue)
    then Dataplane.sys_sendv t.dp conn.handle conn.write_queue ~on_result:ignore
  done

let run t f =
  if Dataplane.in_app_context t.dp then f ()
  else
    Dataplane.bootstrap t.dp (fun () ->
        f ();
        flush t)

(* Conn-directed operations route through [conn.owner]: after a
   flow-group migration the TCB lives on another thread's dataplane
   under a new handle, and a syscall staged on the old thread would be
   rejected there.  [migrate_conns] retargets the owner and rebinds the
   handle in one step, so the pair stays valid wherever the conn
   currently lives. *)

let recv_done conn mbuf len =
  Dataplane.sys_recv_done conn.owner.dp conn.handle ~bytes_acked:len ~on_result:ignore;
  Mbuf.decref mbuf

(* The string itself goes onto the write queue, by reference: the
   per-message echo path runs this once per request, so it builds no
   list and no slice record. *)
let send conn data =
  let len = String.length data in
  if conn.dead || Iov_deque.bytes conn.write_queue + len > max_pending_send then false
  else begin
    Iov_deque.push_substring conn.write_queue data 0 len;
    mark_dirty conn;
    true
  end

let close conn =
  if not conn.dead then Dataplane.sys_close conn.owner.dp conn.handle ~on_result:ignore

let abort conn =
  if not conn.dead then Dataplane.sys_abort conn.owner.dp conn.handle ~on_result:ignore

(* The portable conn's operations enter the current owner's user
   context first, so a write issued from outside a handler (a timer, an
   open-loop generator) is still flushed in a sendv.  Handlers already
   run in the user phase, so the common case is a direct call. *)
let in_owner_context op conn =
  let o = conn.owner in
  if Dataplane.in_app_context o.dp then op conn else run o (fun () -> op conn)

let owner_send conn data =
  let o = conn.owner in
  if Dataplane.in_app_context o.dp then send conn data
  else begin
    let ok = ref false in
    run o (fun () -> ok := send conn data);
    !ok
  end

(* The portable id is the cookie: host-unique (one allocator per host)
   and stable across migration, as [Net_api.conn.id] promises. *)
let new_conn t ~cookie ~handle ~peer handlers =
  let rec conn =
    {
      cookie;
      owner = t;
      handle;
      handlers;
      net;
      write_queue = Iov_deque.create ();
      dirty = false;
      dead = false;
    }
  and net =
    {
      Net_api.id = cookie;
      send = (fun data -> owner_send conn data);
      close = (fun () -> in_owner_context close conn);
      abort = (fun () -> in_owner_context abort conn);
      peer;
      home = (fun () -> Dataplane.thread_id conn.owner.dp);
    }
  in
  Hashtbl.replace t.conns cookie conn;
  conn

let handle_event t ev i =
  match Ix_api.kind ev i with
  | Ix_api.Knock -> (
      let handle = Ix_api.handle ev i in
      match Hashtbl.find t.acceptors (Ix_api.port ev i) with
      | exception Not_found ->
          (* No acceptor: reject the knock. *)
          Dataplane.sys_close t.dp handle ~on_result:ignore
      | on_accept ->
          let cookie = fresh_cookie t in
          let conn =
            new_conn t ~cookie ~handle
              ~peer:(Ix_api.src_ip ev i, Ix_api.src_port ev i)
              Net_api.null_handlers
          in
          Dataplane.sys_accept t.dp handle ~cookie ~on_result:ignore;
          conn.handlers <- on_accept conn.net)
  | Ix_api.Connected -> (
      let cookie = Ix_api.cookie ev i and ok = Ix_api.ok ev i in
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> ()
      | conn ->
          conn.handle <- Ix_api.handle ev i;
          if not ok then begin
            conn.dead <- true;
            Hashtbl.remove t.conns cookie
          end;
          conn.handlers.Net_api.on_connected conn.net ~ok;
          if ok && not (Iov_deque.is_empty conn.write_queue) then
            mark_dirty conn)
  | Ix_api.Recv -> (
      let mbuf = Ix_api.mbuf ev i and off = Ix_api.off ev i and len = Ix_api.len ev i in
      match Hashtbl.find t.conns (Ix_api.cookie ev i) with
      | exception Not_found -> Mbuf.decref mbuf
      | conn -> (
          match t.zc_reader with
          | Some reader -> reader conn mbuf off len
          | None ->
              (* Compatibility path: one copy, close to its use (§6). *)
              let data = Bytes.sub_string mbuf.Mbuf.buf off len in
              Dataplane.charge_user t.dp (len * 100 / 1024);
              Dataplane.sys_recv_done t.dp conn.handle ~bytes_acked:len ~on_result:ignore;
              Mbuf.decref mbuf;
              conn.handlers.Net_api.on_data conn.net data))
  | Ix_api.Sent -> (
      match Hashtbl.find t.conns (Ix_api.cookie ev i) with
      | exception Not_found -> ()
      | conn ->
          let bytes_sent = Ix_api.bytes_sent ev i in
          if not (Iov_deque.is_empty conn.write_queue) then mark_dirty conn;
          conn.handlers.Net_api.on_sent conn.net bytes_sent)
  | Ix_api.Dead -> (
      let cookie = Ix_api.cookie ev i in
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> ()
      | conn ->
          conn.dead <- true;
          Hashtbl.remove t.conns cookie;
          conn.handlers.Net_api.on_closed conn.net (Ix_api.reason ev i))
  | Ix_api.Udp_recv -> (
      let mbuf = Ix_api.mbuf ev i and off = Ix_api.off ev i and len = Ix_api.len ev i in
      match Hashtbl.find t.udp_handlers (Ix_api.port ev i) with
      | exception Not_found -> Mbuf.decref mbuf
      | handler ->
          (* Compatibility path: one copy, close to its use (§6). *)
          let data = Bytes.sub_string mbuf.Mbuf.buf off len in
          Dataplane.charge_user t.dp (len * 100 / 1024);
          Mbuf.decref mbuf;
          handler ~src:(Ix_api.src_ip ev i, Ix_api.src_port ev i) data)

(* §4.5 containment: an exception out of an application handler is the
   app's fault, not the dataplane's — the offending connection is
   aborted (RST to the peer, [close_reason = Reset]), the fault counted
   under [dataplane.<id>.app_faults], and the rest of the event batch
   is delivered normally.  A [Recv]'s compatibility path releases the
   event's mbuf *before* invoking [on_data] (see [handle_event]), so
   containment leaks no buffers. *)
let contain_fault t ev i =
  Dataplane.note_app_fault t.dp;
  let abort_conn conn =
    conn.dead <- true;
    Hashtbl.remove conn.owner.conns conn.cookie;
    if conn.handle >= 0 then
      Dataplane.sys_abort conn.owner.dp conn.handle ~on_result:ignore
  in
  match Ix_api.kind ev i with
  | Ix_api.Connected | Ix_api.Recv | Ix_api.Sent -> (
      match Hashtbl.find_opt t.conns (Ix_api.cookie ev i) with
      | Some conn -> abort_conn conn
      | None -> ())
  | Ix_api.Knock ->
      let handle = Ix_api.handle ev i in
      (* The acceptor raised; the conn was just registered under a fresh
         cookie.  Find it by handle (cold path) and tear it down. *)
      let found = ref None in
      Hashtbl.iter
        (fun _ conn -> if conn.handle = handle then found := Some conn)
        t.conns;
      (match !found with
      | Some conn -> abort_conn conn
      | None -> Dataplane.sys_abort t.dp handle ~on_result:ignore)
  | Ix_api.Dead | Ix_api.Udp_recv ->
      (* Already dead, or connectionless: nothing to abort. *)
      ()

let create ~cookie_alloc dp =
  let conns = Hashtbl.create 1024
  and acceptors = Hashtbl.create 8
  and udp_handlers = Hashtbl.create 8
  and no_queue = Iov_deque.create () in
  let rec t =
    {
      dp;
      conns;
      acceptors;
      udp_handlers;
      cookie_alloc;
      dirty_conns = [||];
      n_dirty = 0;
      flushing = [||];
      no_conn;
      zc_reader = None;
    }
  and no_conn =
    {
      cookie = -1;
      owner = t;
      handle = -1;
      handlers = Net_api.null_handlers;
      net = Net_api.inert_conn ~peer:(0, 0) ~home:(fun () -> Dataplane.thread_id dp);
      write_queue = no_queue;
      dirty = false;
      dead = true;
    }
  in
  Dataplane.set_app dp (fun ev ->
      for i = 0 to Ix_api.count ev - 1 do
        try handle_event t ev i with _ -> contain_fault t ev i
      done;
      flush t);
  t

let connect t ~ip ~port handlers =
  let conn = new_conn t ~cookie:(fresh_cookie t) ~handle:(-1) ~peer:(ip, port) handlers in
  Dataplane.sys_connect t.dp ~cookie:conn.cookie ~dst_ip:ip ~dst_port:port
    ~on_result:(fun handle -> if handle >= 0 then conn.handle <- handle)

let listen t ~port ~on_accept =
  Hashtbl.replace t.acceptors port on_accept;
  Dataplane.listen t.dp ~port

let udp_bind t ~port handler =
  Hashtbl.replace t.udp_handlers port handler;
  Dataplane.udp_bind t.dp ~port

let udp_send t ~src_port ~dst_ip ~dst_port data =
  let payload = Iov_deque.create () in
  Iov_deque.push_substring payload data 0 (String.length data);
  Dataplane.sys_udp_sendv t.dp ~src_port ~dst_ip ~dst_port payload ~on_result:ignore

let set_zero_copy_reader t reader = t.zc_reader <- Some reader

(* Flow-group migration, libix side: re-home the conns whose TCBs just
   moved and rebind each to its new handle on the destination thread.
   Dirty conns move flush lists too, so their queued writes flush
   there, ahead of the destination's own, in [handles] order. *)
let migrate_conns ~src ~dst handles =
  let moved =
    List.filter_map
      (fun (cookie, handle) ->
        match Hashtbl.find_opt src.conns cookie with
        | None -> None
        | Some conn ->
            Hashtbl.remove src.conns cookie;
            Hashtbl.replace dst.conns cookie conn;
            conn.owner <- dst;
            conn.handle <- handle;
            Some conn)
      handles
  in
  let dirty_moved = List.filter (fun c -> c.dirty) moved in
  if dirty_moved <> [] then begin
    let kept =
      List.filter
        (fun c -> not (List.memq c dirty_moved))
        (Array.to_list (Array.sub src.dirty_conns 0 src.n_dirty))
    in
    Array.fill src.dirty_conns 0 src.n_dirty src.no_conn;
    src.n_dirty <- 0;
    List.iter (push_dirty src) kept;
    List.iter (push_dirty dst) (List.rev dirty_moved)
  end;
  List.length moved
