(** Plain-text tables for the benchmark harness, in the style of the
    paper's figures' underlying data. *)

val table : title:string -> headers:string list -> string list list -> string
(** A titled, column-aligned table, as text starting with a blank line. *)

val f1 : float -> string
(** One decimal place. *)

val f2 : float -> string

val mps : float -> string
(** Messages/second, in millions ("3.81M"). *)

val kps : float -> string
(** Requests/second, in thousands ("1550K"). *)

val gbps : float -> string
val us : float -> string
val pct : float -> string
