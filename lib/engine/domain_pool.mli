(** A fixed-size pool of OCaml 5 domains with an index-addressed work
    queue, built for fanning *independent* simulations out over cores.

    Determinism contract: {!map} collects results by submission index,
    so it returns exactly what [List.map (fun f -> f ()) fs] would —
    regardless of which domain ran which task or in what order they
    finished.  Exceptions from tasks are captured and re-raised in the
    submitter (lowest submission index wins).  The pool is for
    coarse-grained work (whole simulations): each task claims one lock
    round trip.

    Tasks must be independent — in particular they must not touch
    module-level mutable state (the repository lint enforces that none
    exists in [lib/]) and must not submit work to a pool themselves;
    nested submission raises [Invalid_argument].

    Requested widths are clamped to
    [Domain.recommended_domain_count ()]: in OCaml 5 every minor
    collection is a stop-the-world rendezvous across running domains,
    so oversubscribing cores turns the fan-out into a GC convoy that is
    strictly slower than sequential execution.  Clamping keeps the
    batch profitable (or at worst neutral) on any machine while
    preserving the determinism contract — results never depend on the
    effective width. *)

type t

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the submitting
    domain participates in every batch, so total parallelism is
    [jobs]).  [jobs = 1] spawns nothing: {!map} then runs every task
    inline on the caller.  Raises [Invalid_argument] if [jobs < 1].
    The width is clamped to [Domain.recommended_domain_count ()]; see
    the module comment. *)

val jobs : t -> int
(** Effective (post-clamp) width of the pool. *)

val map : t -> (unit -> 'a) list -> 'a list
(** Run the tasks to completion across the pool and return their
    results in submission order.  Re-raises the lowest-index task
    exception (with its backtrace) after the batch has drained.
    Raises [Invalid_argument] when called from inside a pool task
    (nested submit), after {!shutdown}, or while another batch is in
    flight on this pool. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Subsequent {!map}
    calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on
    the way out (also on exception). *)

val map_jobs : jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot convenience: when the effective (post-clamp) width is 1
    this is a guaranteed plain [List.map] on the calling domain (the
    exact sequential code path — no pool, no domains); otherwise a
    temporary pool runs the batch.  Raises [Invalid_argument] if
    [jobs < 1]. *)
