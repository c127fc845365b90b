(** Simulated time.

    All simulation time is kept as an integer number of nanoseconds from
    the start of the run.  A 63-bit [int] covers ~146 years of simulated
    time, far beyond any experiment in this repository. *)

type t = int
(** Nanoseconds since the beginning of the simulation. *)

val zero : t

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val of_float_us : float -> t
(** [of_float_us x] rounds [x] microseconds to the nearest nanosecond. *)

val to_float_us : t -> float
(** [to_float_us t] is [t] expressed in microseconds. *)

val to_float_s : t -> float
(** [to_float_s t] is [t] expressed in seconds. *)

val add : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Pretty-print with an adaptive unit (ns, µs, ms or s). *)
