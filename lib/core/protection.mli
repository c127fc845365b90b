(** The three-way protection model (§4.1).

    IX runs the Linux control plane in VMX root ring 0, each dataplane
    kernel in VMX non-root ring 0, and untrusted application code in
    VMX non-root ring 3.  The performance-relevant property is that a
    ring crossing inside non-root mode costs roughly one L3 cache miss
    (§6, citing Dune), while a full VM transition to the control plane
    costs far more; the semantic property is that application code can
    never touch dataplane state.

    This module models both: it prices each transition kind and tracks
    the current domain so that forbidden accesses are detected in
    simulation (dataplane structures assert [require] on entry). *)

type domain = Vmx_root | Dataplane_kernel | User

type t

val create : unit -> t
(** Starts in the dataplane kernel.  Costs: 90 ns per non-root ring
    crossing (≈ one L3 miss), 1.5 µs per VM transition to the control
    plane. *)

val current : t -> domain

val enter_user : t -> int
(** Transition dataplane kernel → user; returns the cycle cost (ns). *)

val enter_kernel : t -> int
(** Transition user → dataplane kernel; returns the cost (ns). *)

val control_plane_call : t -> int
(** Round trip to the VMX-root control plane (e.g. a forwarded POSIX
    system call from a background thread); returns the cost. *)

val require : t -> domain -> unit
(** Assert the current domain — dataplane entry points call
    [require t Dataplane_kernel] so a misbehaving "application" in a
    test cannot reach protected state without the transition. *)

exception Protection_violation of string

val crossings : t -> int
(** Total ring crossings so far (2 per run-to-completion cycle in the
    common case — the cost IX amortizes with batching). *)
