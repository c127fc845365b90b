(* Sim timestamps are integer ns; trace_event wants µs.  Emitting
   fractional µs with three decimals keeps the ns precision exact. *)
let us_of_ns ns = float_of_int ns /. 1000.

(* Every span goes in one process; each tracer is its own thread. *)
let pid = 1

let to_json tracers =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun tr ->
      let tid = Tracer.thread tr in
      Tracer.iter tr (fun (s : Tracer.span) ->
          if !first then first := false else Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"name\":\"%s\",\"cat\":\"dataplane\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
            (Tracer.stage_name s.stage)
            (us_of_ns s.start)
            (us_of_ns (s.stop - s.start))
            pid tid))
    tracers;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write_file path tracers =
  let oc = open_out path in
  output_string oc (to_json tracers);
  close_out oc
