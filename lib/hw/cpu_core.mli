(** A hardware thread as a serially reusable resource.

    Stacks charge work durations to a core; the core tracks when it will
    next be free and accounts busy time split between protection domains
    so experiments can report the kernel-time share (the paper's
    memcached analysis: ~75 % kernel time under Linux vs < 10 % under
    IX). *)

type domain = Kernel | User | Idle_poll

type t

val create : id:int -> t

val free_at : t -> Engine.Sim_time.t
(** Earliest time new work could start. *)

val busy : t -> now:Engine.Sim_time.t -> bool

val charge : t -> now:Engine.Sim_time.t -> domain -> int -> Engine.Sim_time.t
(** [charge core ~now domain ns] queues [ns] of work in [domain]
    starting no earlier than [now]; returns the completion time. *)

val kernel_ns : t -> int
val user_ns : t -> int

val busy_ns_total : t -> int
(** All accounted busy time (kernel + user + idle-poll). *)

val kernel_share : t -> float
(** Fraction of (kernel+user) busy time spent in the kernel domain. *)

val reset_accounting : t -> unit
(** Zero the busy counters (e.g. after warmup) without touching
    [free_at]. *)
