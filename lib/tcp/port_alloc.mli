(** Ephemeral port allocation with RSS reversal (§4.4).

    The Toeplitz hash cannot be inverted, so a client thread that wants
    the *reply* of an outbound connection steered back to itself simply
    probes the ephemeral range until it finds a free port whose reverse
    flow hashes to the desired queue.  [alloc] takes that steering
    predicate. *)

type t

val create : ?lo:int -> ?hi:int -> unit -> t
(** Default range 16384..65535. *)

val alloc : t -> suitable:(int -> bool) -> int
(** Find a free port satisfying [suitable], scanning from a rotating
    cursor.  Returns [-1] if the whole range is exhausted.  Allocates
    nothing. *)

val free : t -> int -> unit
(** Return a port to the pool.  Freeing an in-range port that is not
    currently allocated is counted in {!double_frees} (a reservation
    lifecycle bug) and otherwise ignored; out-of-range ports (e.g. a
    listener's well-known port) are silently ignored. *)

val in_use : t -> int

val double_frees : t -> int
(** Number of {!free} calls that found the port already free. *)
