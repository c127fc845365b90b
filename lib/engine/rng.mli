(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the simulation draws from an explicit
    [Rng.t], so a run is fully determined by its seed.  SplitMix64 is
    small, fast and statistically solid for simulation purposes. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split rng] derives an independent stream; used to give each
    component (host, connection, workload) its own generator. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Sample an exponential distribution with the given mean.  Used for
    open-loop Poisson arrival processes. *)

val uniform_range : t -> lo:int -> hi:int -> int
(** Uniform over the inclusive range [\[lo, hi\]]. *)
