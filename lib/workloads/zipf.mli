(** Zipfian key popularity, the standard model for memcached key access
    skew (Atikoglu et al. [2]).  Sampling uses the rejection-inversion
    method of Hörmann & Derflinger, O(1) per sample with no large
    tables. *)

type t

val create : n:int -> theta:float -> t
(** Ranks 1..n with P(k) ∝ 1/k^theta (theta in (0,1) ∪ (1,∞)). *)

val sample : t -> Engine.Rng.t -> int
(** A rank in [1, n]; rank 1 is the hottest. *)
