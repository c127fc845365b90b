(** Read-copy-update (§4.4).

    IX keeps a small number of shared structures (e.g. the ARP table)
    behind RCU: common-case reads are coherence-free, rare updates
    publish a new version, and retired versions are reclaimed only
    after a quiescent period spanning one full run-to-completion cycle
    of *every* elastic thread — exactly the paper's reclamation rule.

    ['a Rcu.t] holds an immutable value of type ['a]; [update] swaps it
    and defers a reclamation callback until all registered threads have
    passed through [quiescent]. *)

type manager

val create_manager : threads:int -> manager
(** One manager per dataplane group; [threads] elastic threads must
    each report quiescence. *)

val quiescent : manager -> thread:int -> unit
(** Thread [thread] finished a run-to-completion cycle. *)

val pending_callbacks : manager -> int

type 'a t

val make : manager -> 'a -> 'a t

val read : 'a t -> 'a
(** Coherence-free snapshot read. *)

val update : 'a t -> ('a -> 'a) -> retired:('a -> unit) -> unit
(** Publish [f current]; [retired] runs on the old value once every
    thread has quiesced. *)
