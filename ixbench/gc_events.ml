(* Per-domain minor-GC time from the runtime's event rings
   (OCaml 5 runtime_events).  Every minor collection is a
   stop-the-world rendezvous across running domains, so the time each
   domain spends inside [EV_MINOR] is what a domain-parallel sweep pays
   for sharing one minor-GC protocol.  Ring 0 is the main domain. *)

module R = Runtime_events

type t = {
  cursor : R.cursor;
  callbacks : R.Callbacks.t;
  stw_ns : (int, int) Hashtbl.t;  (** ring -> accumulated ns *)
  lost : int ref;  (** events overwritten before they were read *)
}

let create () =
  R.start ();
  let started = Hashtbl.create 8 and stw_ns = Hashtbl.create 8 and lost = ref 0 in
  let ts x = Int64.to_int (R.Timestamp.to_int64 x) in
  let runtime_begin ring x phase =
    if phase = R.EV_MINOR then Hashtbl.replace started ring (ts x)
  in
  let runtime_end ring x phase =
    if phase = R.EV_MINOR then
      match Hashtbl.find_opt started ring with
      | Some b ->
          Hashtbl.remove started ring;
          let prev = Option.value (Hashtbl.find_opt stw_ns ring) ~default:0 in
          Hashtbl.replace stw_ns ring (prev + (ts x - b))
      | None -> ()
  in
  let callbacks =
    R.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let t = { cursor = R.create_cursor None; callbacks; stw_ns; lost } in
  (* Discard whatever the rings already hold. *)
  ignore (R.read_poll t.cursor t.callbacks None);
  Hashtbl.reset stw_ns;
  lost := 0;
  t

let poll t = ignore (R.read_poll t.cursor t.callbacks None)

(* Accumulated minor-GC ns of ring [i] since [create]. *)
let stw_ns t i = Option.value (Hashtbl.find_opt t.stw_ns i) ~default:0
let lost t = !(t.lost)
let close t = R.free_cursor t.cursor
