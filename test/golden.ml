(* Golden snapshots.  A suite's pinned cases [record] the full text of
   each snapshot, byte for byte (each ends in a newline), under a title
   line; once every case has passed, [run] prints the sections on
   stderr, which dune diffs against the checked-in
   golden/<suite>.expected (see test/dune). *)

let sections = Buffer.create 65_536

let record title text = Printf.bprintf sections "==> %s <==\n%s" title text

let run name groups =
  Alcotest.run ~and_exit:false name groups;
  prerr_string (Buffer.contents sections)
