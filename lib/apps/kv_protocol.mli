(** The key-value wire protocol used by the memcached-style benchmarks:
    a compact binary framing (opcode, key, value) with incremental
    stream parsing on both sides.

    Request:  [op:1][reqid:4][keylen:2][vallen:4][key][value]
    Response: [status:1][reqid:4][vallen:4][value]

    [reqid] is an opaque client token echoed back so pipelined requests
    (mutilate pipelines up to 4, §5.5) can be matched to their send
    timestamps. *)

type op = Get | Set

type request = { op : op; reqid : int; key : string; value : string }
type response = { status : int; reqid : int; value : string }

val hit : int
val miss : int
val stored : int

val encode_request : request -> string
val encode_response : response -> string

module Parser : sig
  (** Incremental stream parser: feed TCP payload chunks, pull complete
      messages. *)

  type t

  val create : unit -> t
  val feed : t -> string -> unit

  val next_request : t -> request option
  val next_response : t -> response option
end
