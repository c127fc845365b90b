(* Epoch-based reclamation: each update captures the set of threads that
   must still quiesce; when the set empties, the callback fires. *)

type pending = { mutable waiting_for : bool array; callback : unit -> unit }

type manager = { thread_count : int; mutable pendings : pending list }

let create_manager ~threads = { thread_count = threads; pendings = [] }

let all_done p = Array.for_all (fun w -> not w) p.waiting_for

(* Every elastic thread calls this once per cycle; with no update
   pending (the steady state) it returns before building the filter's
   closure. *)
let quiescent m ~thread =
  if m.pendings <> [] then
    m.pendings <-
      List.filter
        (fun p ->
          if thread < Array.length p.waiting_for then p.waiting_for.(thread) <- false;
          if all_done p then begin
            p.callback ();
            false
          end
          else true)
        m.pendings

let pending_callbacks m = List.length m.pendings

type 'a t = { mgr : manager; mutable value : 'a }

let make mgr value = { mgr; value }
let read t = t.value

let update t f ~retired =
  let old_value = t.value in
  t.value <- f old_value;
  if t.mgr.thread_count = 0 then retired old_value
  else begin
    let p =
      {
        waiting_for = Array.make t.mgr.thread_count true;
        callback = (fun () -> retired old_value);
      }
    in
    t.mgr.pendings <- p :: t.mgr.pendings
  end
