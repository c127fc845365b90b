module Mbuf = Ixmem.Mbuf
module Iovec = Ixmem.Iovec
module Iov_deque = Ixmem.Iov_deque

let max_pending_send = 1 lsl 20

type handlers = {
  on_connected : conn -> ok:bool -> unit;
  on_data : conn -> string -> unit;
  on_sent : conn -> int -> unit;
  on_closed : conn -> Ixtcp.Tcb.close_reason -> unit;
}

and conn = {
  cookie : int;
  mutable owner : t;
      (* current home thread's libix; flow-group migration retargets it,
         and every conn-directed operation routes through it so syscalls
         always reach the dataplane that owns the TCB *)
  mutable handle : int; (* -1 until the dataplane reports it *)
  mutable peer : Ixnet.Ip_addr.t * int;
  mutable handlers : handlers;
  write_queue : Iov_deque.t; (* in order; consumed from the front *)
  mutable queued_bytes : int;
  mutable in_flight : int; (* bytes accepted by the stack, not yet acked *)
  mutable dirty : bool;
  mutable dead : bool;
  mutable on_sendv : int -> unit;
      (* [Sys_sendv] completion, built once per conn by [new_conn] so a
         flush round allocates no closure *)
}

and t = {
  dp : Dataplane.t;
  conns : (int, conn) Hashtbl.t; (* by cookie *)
  acceptors : (int, conn -> handlers) Hashtbl.t; (* by listening port *)
  udp_handlers :
    (int, src:Ixnet.Ip_addr.t * int -> string -> unit) Hashtbl.t; (* by port *)
  cookie_alloc : int ref;
      (* shared across a host's libs so cookies stay unique when a conn
         migrates between threads (events route by cookie) *)
  mutable dirty_conns : conn list;
  mutable zc_reader : (conn -> Mbuf.t -> int -> int -> unit) option;
}

let default_handlers =
  {
    on_connected = (fun _ ~ok:_ -> ());
    on_data = (fun _ _ -> ());
    on_sent = (fun _ _ -> ());
    on_closed = (fun _ _ -> ());
  }

let dataplane t = t.dp
let peer conn = conn.peer
let owner conn = conn.owner
let home_thread conn = Dataplane.thread_id conn.owner.dp
let cookie conn = conn.cookie

let fresh_cookie t =
  let c = !(t.cookie_alloc) in
  t.cookie_alloc := c + 1;
  c

let new_conn t ~cookie ~handle ~peer handlers =
  let conn =
    {
      cookie;
      owner = t;
      handle;
      peer;
      handlers;
      write_queue = Iov_deque.create ();
      queued_bytes = 0;
      in_flight = 0;
      dirty = false;
      dead = false;
      on_sendv = ignore;
    }
  in
  conn.on_sendv <-
    (fun accepted ->
      if accepted > 0 then begin
        conn.queued_bytes <- conn.queued_bytes - accepted;
        conn.in_flight <- conn.in_flight + accepted
      end);
  Hashtbl.replace t.conns cookie conn;
  conn

let mark_dirty conn =
  let o = conn.owner in
  if not conn.dirty then begin
    conn.dirty <- true;
    o.dirty_conns <- conn :: o.dirty_conns
  end

(* Coalesce each dirty connection's queued writes into one sendv (the
   libix behaviour the paper describes), reissuing trimmed suffixes on
   later rounds.  The syscall carries the write queue itself:
   execution moves the accepted prefix by reference onto the TCB's
   send queue, so nothing is materialized or rebuilt per round. *)
let flush t =
  let dirty = t.dirty_conns in
  t.dirty_conns <- [];
  List.iter
    (fun conn ->
      conn.dirty <- false;
      if (not conn.dead) && conn.handle >= 0
         && not (Iov_deque.is_empty conn.write_queue)
      then
        Dataplane.syscall t.dp
          (Ix_api.Sys_sendv { handle = conn.handle; queue = conn.write_queue })
          ~on_result:conn.on_sendv)
    dirty

let handle_event t ev =
  match ev with
  | Ix_api.Ev_knock { handle; src_ip; src_port; dst_port } -> (
      match Hashtbl.find t.acceptors dst_port with
      | exception Not_found ->
          (* No acceptor: reject the knock. *)
          Dataplane.syscall t.dp (Ix_api.Sys_close { handle }) ~on_result:ignore
      | on_accept ->
          let cookie = fresh_cookie t in
          let conn =
            new_conn t ~cookie ~handle ~peer:(src_ip, src_port) default_handlers
          in
          Dataplane.syscall t.dp (Ix_api.Sys_accept { handle; cookie }) ~on_result:ignore;
          conn.handlers <- on_accept conn)
  | Ix_api.Ev_connected { cookie; handle; ok } -> (
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> ()
      | conn ->
          conn.handle <- handle;
          if not ok then begin
            conn.dead <- true;
            Hashtbl.remove t.conns cookie
          end;
          conn.handlers.on_connected conn ~ok;
          if ok && not (Iov_deque.is_empty conn.write_queue) then
            mark_dirty conn)
  | Ix_api.Ev_recv { cookie; mbuf; off; len } -> (
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> Mbuf.decref mbuf
      | conn -> (
          match t.zc_reader with
          | Some reader -> reader conn mbuf off len
          | None ->
              (* Compatibility path: one copy, close to its use (§6). *)
              let data = Bytes.sub_string mbuf.Mbuf.buf off len in
              Dataplane.charge_user t.dp (len * 100 / 1024);
              Dataplane.syscall t.dp
                (Ix_api.Sys_recv_done { handle = conn.handle; bytes_acked = len })
                ~on_result:ignore;
              Mbuf.decref mbuf;
              conn.handlers.on_data conn data))
  | Ix_api.Ev_sent { cookie; bytes_sent; _ } -> (
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> ()
      | conn ->
          conn.in_flight <- Int.max 0 (conn.in_flight - bytes_sent);
          if not (Iov_deque.is_empty conn.write_queue) then mark_dirty conn;
          conn.handlers.on_sent conn bytes_sent)
  | Ix_api.Ev_dead { cookie; reason } -> (
      match Hashtbl.find t.conns cookie with
      | exception Not_found -> ()
      | conn ->
          conn.dead <- true;
          Hashtbl.remove t.conns cookie;
          conn.handlers.on_closed conn reason)
  | Ix_api.Ev_udp_recv { dst_port; src_ip; src_port; mbuf; off; len } -> (
      match Hashtbl.find t.udp_handlers dst_port with
      | exception Not_found -> Mbuf.decref mbuf
      | handler ->
          (* Compatibility path: one copy, close to its use (§6). *)
          let data = Bytes.sub_string mbuf.Mbuf.buf off len in
          Dataplane.charge_user t.dp (len * 100 / 1024);
          Mbuf.decref mbuf;
          handler ~src:(src_ip, src_port) data)

(* §4.5 containment: an exception out of an application handler is the
   app's fault, not the dataplane's — the offending connection is
   aborted (RST to the peer, [close_reason = Reset]), the fault counted
   under [dataplane.<id>.app_faults], and the rest of the event batch
   is delivered normally.  Ev_recv's compatibility path releases the
   event's mbuf *before* invoking [on_data] (see [handle_event]), so
   containment leaks no buffers. *)
let contain_fault t ev =
  Dataplane.note_app_fault t.dp;
  let abort_conn conn =
    conn.dead <- true;
    Hashtbl.remove conn.owner.conns conn.cookie;
    if conn.handle >= 0 then
      Dataplane.syscall conn.owner.dp
        (Ix_api.Sys_abort { handle = conn.handle })
        ~on_result:ignore
  in
  match ev with
  | Ix_api.Ev_connected { cookie; _ }
  | Ix_api.Ev_recv { cookie; _ }
  | Ix_api.Ev_sent { cookie; _ } -> (
      match Hashtbl.find_opt t.conns cookie with
      | Some conn -> abort_conn conn
      | None -> ())
  | Ix_api.Ev_knock { handle; _ } ->
      (* The acceptor raised; the conn was just registered under a fresh
         cookie.  Find it by handle (cold path) and tear it down. *)
      let found = ref None in
      Hashtbl.iter
        (fun _ conn -> if conn.handle = handle then found := Some conn)
        t.conns;
      (match !found with
      | Some conn -> abort_conn conn
      | None ->
          Dataplane.syscall t.dp (Ix_api.Sys_abort { handle }) ~on_result:ignore)
  | Ix_api.Ev_dead _ | Ix_api.Ev_udp_recv _ ->
      (* Already dead, or connectionless: nothing to abort. *)
      ()

let create ~cookie_alloc dp =
  let t =
    {
      dp;
      conns = Hashtbl.create 1024;
      acceptors = Hashtbl.create 8;
      udp_handlers = Hashtbl.create 8;
      cookie_alloc;
      dirty_conns = [];
      zc_reader = None;
    }
  in
  Dataplane.set_app dp (fun events n ->
      for i = 0 to n - 1 do
        let ev = events.(i) in
        try handle_event t ev with _ -> contain_fault t ev
      done;
      flush t);
  t

let run t f =
  Dataplane.bootstrap t.dp (fun () ->
      f ();
      flush t)

let connect t ~ip ~port handlers =
  let conn = new_conn t ~cookie:(fresh_cookie t) ~handle:(-1) ~peer:(ip, port) handlers in
  Dataplane.syscall t.dp
    (Ix_api.Sys_connect { cookie = conn.cookie; dst_ip = ip; dst_port = port })
    ~on_result:(fun handle -> if handle >= 0 then conn.handle <- handle)

let listen t ~port ~on_accept =
  Hashtbl.replace t.acceptors port on_accept;
  Dataplane.listen t.dp ~port

let udp_bind t ~port handler =
  Hashtbl.replace t.udp_handlers port handler;
  Dataplane.udp_bind t.dp ~port

let udp_send t ~src_port ~dst_ip ~dst_port data =
  Dataplane.syscall t.dp
    (Ix_api.Sys_udp_sendv
       { src_port; dst_ip; dst_port; iovs = [ Iovec.of_string data ] })
    ~on_result:ignore

let set_zero_copy_reader t reader = t.zc_reader <- Some reader

(* Conn-directed operations route through [conn.owner]: after a
   flow-group migration the TCB lives on another thread's dataplane
   under a new handle, and a syscall staged on the old thread would be
   rejected there.  [migrate_conns] retargets the owner and rebinds the
   handle in one step, so the pair stays valid wherever the conn
   currently lives. *)

let recv_done conn mbuf len =
  Dataplane.syscall conn.owner.dp
    (Ix_api.Sys_recv_done { handle = conn.handle; bytes_acked = len })
    ~on_result:ignore;
  Mbuf.decref mbuf

(* One copied slice onto the write queue: the per-message echo path
   runs this once per request, so it builds no list. *)
let send conn data =
  let len = String.length data in
  if conn.dead || conn.queued_bytes + len > max_pending_send then false
  else begin
    Iov_deque.push conn.write_queue (Iovec.of_string data);
    conn.queued_bytes <- conn.queued_bytes + len;
    mark_dirty conn;
    true
  end

let close conn =
  if not conn.dead then
    Dataplane.syscall conn.owner.dp
      (Ix_api.Sys_close { handle = conn.handle })
      ~on_result:ignore

let abort conn =
  if not conn.dead then
    Dataplane.syscall conn.owner.dp
      (Ix_api.Sys_abort { handle = conn.handle })
      ~on_result:ignore

(* Flow-group migration, libix side: re-home the conns whose TCBs just
   moved and rebind each to its new handle on the destination thread.
   Dirty conns move lists too, so their queued writes flush there. *)
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
    src.dirty_conns <-
      List.filter (fun c -> not (List.memq c dirty_moved)) src.dirty_conns;
    dst.dirty_conns <- dirty_moved @ dst.dirty_conns
  end;
  List.length moved
