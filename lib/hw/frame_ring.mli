(** FIFO of in-flight frames for components whose deliveries fire in
    enqueue order: a {!Link}'s pending arrivals and a {!Switch}'s
    frames crossing the fabric.  The owner schedules one event per
    frame with a shared thunk that pops the head, so nothing is
    allocated per frame.  Each frame carries an int tag. *)

type t

val create : unit -> t

val push : t -> Frame.t -> tag:int -> unit
(** Append a frame at the tail.  Takes over the caller's frame
    reference. *)

val head_tag : t -> int
(** Tag of the head frame; the ring must be non-empty. *)

val pop : t -> Frame.t
(** Remove and return the head frame, handing its reference to the
    caller; the ring must be non-empty. *)
