(** Chrome [trace_event] JSON exporter.

    Serializes retained tracer spans as complete ("X"-phase) events,
    one [tid] per elastic thread, timestamps in microseconds.  The
    output loads directly in [chrome://tracing] / Perfetto. *)

val to_json : Tracer.t list -> string
(** One JSON object [{"traceEvents": [...]}]; spans of each tracer are
    emitted oldest-first so per-[tid] timestamps are monotonic. *)

val write_file : string -> Tracer.t list -> unit
(** [write_file path tracers] writes {!to_json} to [path]. *)
