(** A byte queue of slices, consumed from the front in byte
    granularity.

    Backs the libix per-connection write queue, the TCB send queue and
    the socket host's send backlog.  A slice is held as a bytes
    reference plus its (off, len) span packed into one int of a second
    column, not as an {!Iovec.t} record: [push_substring] is O(1) amortized and allocates
    nothing once the columns have grown, and partial front consumption
    (a TCP stack accepting a prefix of a sendv, an ACK covering part of
    a slice) rewrites the front span in place.  Single-owner, like
    everything on the per-core path. *)

type t

val create : unit -> t
(** Empty queue; the backing array is allocated lazily on first push. *)

val is_empty : t -> bool

val bytes : t -> int
(** Unconsumed bytes queued. *)

val push : t -> Iovec.t -> unit
(** Append a slice (by reference — the bytes are not copied).  Empty
    slices are ignored.  Raises [Invalid_argument] if the slice's
    offset is negative or its offset or length reaches 2{^31}. *)

val push_substring : t -> string -> int -> int -> unit
(** [push_substring t s off len] appends bytes [off .. off+len-1] of
    [s] by reference, like [push (Iovec.sub (Iovec.of_string s) off
    len)] without the records.  Raises [Invalid_argument] on a range
    outside [s]. *)

val clear : t -> unit
(** Drop everything, including the slice references (a cleared queue
    pins no application buffers).  The backing array is kept for
    reuse. *)

val drop_front : t -> int -> unit
(** [drop_front t n] consumes [n] bytes from the front (the ACK path).
    Allocation-free.  Raises [Invalid_argument] if [n] is negative or
    exceeds {!bytes}. *)

val blit_to : t -> skip:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes starting [skip] bytes past the front into [dst]
    at [dst_off] — the segment-gather path.  Raises
    [Invalid_argument] if the range exceeds {!bytes}. *)

val transfer : src:t -> dst:t -> max_bytes:int -> int
(** Move up to [max_bytes] bytes from the front of [src] onto the back
    of [dst], returning the bytes moved.  Whole slices move by
    reference; a split at the boundary rewrites the source's front
    span.  Allocation-free once [dst]'s columns have grown. *)
