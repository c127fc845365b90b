(* Repository lint: no module-level mutable state in lib/, no
   allocating header decodes on the RX hot path, no cross-thread
   synchronization primitives on the per-core dataplane paths, no
   per-packet payload copies on the wire path, and no physical
   comparison against [ignore] (second to fifth passes below).

   The parallel experiment harness (Engine.Domain_pool) runs whole
   simulations concurrently on separate domains; a top-level [ref],
   [Hashtbl], or stray [Atomic] in lib/ is cross-simulation shared
   state — a data race at worst, nondeterminism at best.  This walks
   every .ml under the given roots and flags column-0 *value* bindings
   whose right-hand side allocates mutable state.

   Heuristic, not a typechecker: a binding is a column-0 [let] whose
   name is followed directly by [:] or [=] (parameters mean it's a
   function, whose body allocates per call — fine).  The header (up to
   and including the first line of the right-hand side) is scanned for
   the tokens [ref], [Hashtbl.create] and [Atomic.make] at word
   boundaries.  Deliberate, documented exceptions go on the allowlist
   below. *)

let allowlist =
  [
    (* The engine-wide event meter: a deliberate Atomic aggregate,
       flushed per completed run. *)
    ("engine/sim.ml", "global_executed");
    (* Debug-only mbuf ids: Atomic so concurrent sims don't race; ids
       are documented as interleaving-dependent. *)
    ("mem/mbuf.ml", "next_id");
    (* Domain-local by construction (Domain.DLS). *)
    ("engine/domain_pool.ml", "in_task_key");
  ]

let forbidden_tokens = [ "ref"; "Hashtbl.create"; "Atomic.make" ]

let is_word_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' | '.' -> true
  | _ -> false

(* [tok] present in [line] with non-identifier characters (and no '.')
   on both sides, so "ref" does not match "prefix" or "Mbuf.decref". *)
let contains_token line tok =
  let nl = String.length line and nt = String.length tok in
  let rec at i =
    if i + nt > nl then false
    else if
      String.sub line i nt = tok
      && (i = 0 || not (is_word_char line.[i - 1]))
      && (i + nt = nl || not (is_word_char line.[i + nt]))
    then true
    else at (i + 1)
  in
  at 0

let is_ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Parse "let [rec] <name>" at column 0 and return the binding name iff
   the next non-space character is ':' or '=' — i.e. a value binding
   with no parameters.  "let () = ..." and function bindings return
   None. *)
let value_binding_name line =
  let n = String.length line in
  let skip_ws i =
    let rec go i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i in
    go i
  in
  let starts_with_at pre i =
    i + String.length pre <= n && String.sub line i (String.length pre) = pre
  in
  if not (starts_with_at "let " 0) then None
  else
    let i = skip_ws 4 in
    let i = if starts_with_at "rec " i then skip_ws (i + 4) else i in
    let j =
      let rec go j = if j < n && is_ident_char line.[j] then go (j + 1) else j in
      go i
    in
    if j = i then None
    else
      let name = String.sub line i (j - i) in
      let k = skip_ws j in
      if k < n && (line.[k] = ':' || line.[k] = '=') then Some name else None

(* The binding "header": the let-line, extended while no '=' has
   appeared yet, plus one more line when '=' ends the line (the
   right-hand side starts on the next). *)
let binding_header lines i =
  let n = Array.length lines in
  let buf = Buffer.create 128 in
  let rec collect i seen_eq =
    if i >= n then Buffer.contents buf
    else begin
      Buffer.add_string buf lines.(i);
      Buffer.add_char buf ' ';
      let line = lines.(i) in
      let has_eq = seen_eq || String.contains line '=' in
      let rhs_started =
        has_eq
        &&
        match String.rindex_opt line '=' with
        | Some p -> String.trim (String.sub line (p + 1) (String.length line - p - 1)) <> ""
        | None -> true
      in
      if rhs_started then Buffer.contents buf
      else collect (i + 1) has_eq
    end
  in
  collect i false

(* Second pass: the RX hot path must stay on the scratch-record decode
   API.  [Tcp_segment.decode] / [Ipv4_packet.decode] allocate a fresh
   header record per segment; inside the per-frame loop of the
   dataplane or the TCP demux that is exactly the allocation the fast
   path exists to avoid — use [decode_into] with the per-core scratch
   instead (see DESIGN.md, "receive fast path"). *)

let hot_path_files =
  [ "core/dataplane.ml"; "tcp/tcp_endpoint.ml"; "tcp/tcb.ml"; "tcp/tw_table.ml" ]

(* Third pass: the per-core dataplane paths hold no cross-thread
   synchronization primitives.  Per-thread state is exclusively owned
   (DESIGN.md §8): placement changes travel through the RCU cell and
   the control plane's migration protocol — parked frames, indirection
   retargets, explicit TCB handover — never through locks or atomics
   shared between elastic threads.  A Mutex/Atomic creeping in here
   means shared mutable state on the per-core path. *)

let per_core_files =
  [
    "core/dataplane.ml";
    "core/libix.ml";
    "core/ix_host.ml";
    "core/control_plane.ml";
    "core/elastic.ml";
    "tcp/tcp_endpoint.ml";
    "tcp/tcp_conn.ml";
    "tcp/tcb.ml";
    "tcp/tw_table.ml";
    "tcp/model/model_tcp.ml";
    "workloads/conn_scale.ml";
  ]

let sync_primitives = [ "Mutex"; "Condition"; "Semaphore"; "Atomic"; "Domain" ]

(* Fourth pass: no per-packet copies on the wire path.  lib/hw and
   lib/core move every frame of every simulation; a [Frame.of_mbuf]
   snapshot or a [Bytes.sub_string] payload copy there reintroduces
   exactly the per-packet allocation the zero-copy wire path removed
   (DESIGN.md §9: NICs transmit refcounted views over the sender's
   mbuf; faults copy-on-write; libix readers see payloads in place).
   Deliberate exceptions go on the allowlist: an entry is a
   (path-suffix, substring) pair and excuses a flagged line when the
   substring appears on that line or the one above it — so the excuse
   lives next to the copy it excuses. *)

let per_packet_dirs = [ "hw"; "core" ]
let per_packet_copies = [ "Frame.of_mbuf"; "Bytes.sub_string" ]

let per_packet_allowlist =
  [
    (* libix compatibility readers: an app that registered no
       zero-copy reader gets one copy, close to its use (§6). *)
    ("core/libix.ml", "Compatibility path");
  ]

let contains_sub line sub =
  let nl = String.length line and ns = String.length sub in
  let rec at i =
    if i + ns > nl then false
    else if String.sub line i ns = sub then true
    else at (i + 1)
  in
  at 0

let in_dir path d = contains_sub path (Filename.dir_sep ^ d ^ Filename.dir_sep)

let allocating_decodes =
  [
    "Tcp_segment.decode";
    "Ixnet.Tcp_segment.decode";
    "Seg.decode";
    "Ipv4_packet.decode";
    "Ixnet.Ipv4_packet.decode";
  ]

let failures = ref []

(* Like [contains_token], but the match may be qualified further to the
   right: "Mutex" matches "Mutex.create".  The left side still requires
   a non-word boundary so "Engine.Domain_pool" never matches "Domain". *)
let contains_module_use line tok =
  let nl = String.length line and nt = String.length tok in
  let rec at i =
    if i + nt > nl then false
    else if
      String.sub line i nt = tok
      && (i = 0 || not (is_word_char line.[i - 1]))
      && (i + nt = nl || not (is_ident_char line.[i + nt]))
    then true
    else at (i + 1)
  in
  at 0

(* Fifth pass: no physical comparison against [ignore].  [ignore] is a
   primitive, so every use of it as a value is a fresh eta-expanded
   closure, never physically equal to a field initialised with it.  A
   cached-thunk check written [if t.thunk == ignore then install ...]
   therefore never installs the real thunk.  Sentinels must be a named
   function ([no_thunk], as in Dataplane). *)

let compares_with_ignore line =
  let n = String.length line in
  let rec at i =
    i + 2 <= n
    && ((let op = String.sub line i 2 in
         (op = "==" || op = "!=")
         &&
         let j = ref (i + 2) in
         while !j < n && line.[!j] = ' ' do
           incr j
         done;
         !j + 6 <= n
         && String.sub line !j 6 = "ignore"
         && (!j + 6 = n || not (is_ident_char line.[!j + 6])))
       || at (i + 1))
  in
  at 0

let lint_ignore_sentinel path lines =
  Array.iteri
    (fun i line ->
      if compares_with_ignore line then
        failures :=
          Printf.sprintf
            "%s:%d: physical comparison with `ignore` is always false (each \
             use is a fresh closure) — compare against a named sentinel such \
             as `no_thunk`"
            path (i + 1)
          :: !failures)
    lines

let lint_per_core path lines =
  if List.exists (fun suffix -> Filename.check_suffix path suffix) per_core_files
  then
    Array.iteri
      (fun i line ->
        List.iter
          (fun tok ->
            if contains_module_use line tok then
              failures :=
                Printf.sprintf
                  "%s:%d: `%s` on the per-core dataplane path — per-thread \
                   state is exclusively owned; route placement changes \
                   through the RCU cell and the migration protocol \
                   (DESIGN.md §8)"
                  path (i + 1) tok
                :: !failures)
          sync_primitives)
      lines

let lint_per_packet path lines =
  if List.exists (fun d -> in_dir path d) per_packet_dirs then
    Array.iteri
      (fun i line ->
        List.iter
          (fun tok ->
            if contains_token line tok then
              let allowed =
                List.exists
                  (fun (suffix, sub) ->
                    Filename.check_suffix path suffix
                    && (contains_sub line sub
                       || (i > 0 && contains_sub lines.(i - 1) sub)))
                  per_packet_allowlist
              in
              if not allowed then
                failures :=
                  Printf.sprintf
                    "%s:%d: `%s` copies a packet payload on the wire path — \
                     borrow the mbuf (Frame.borrow_mbuf, zero-copy readers) \
                     or add a documented allowlist entry (DESIGN.md §9)"
                    path (i + 1) tok
                  :: !failures)
          per_packet_copies)
      lines

let lint_hot_path path lines =
  if List.exists (fun suffix -> Filename.check_suffix path suffix) hot_path_files
  then
    Array.iteri
      (fun i line ->
        List.iter
          (fun tok ->
            if contains_token line tok then
              failures :=
                Printf.sprintf
                  "%s:%d: `%s` allocates a header record on the RX hot path \
                   (use decode_into with the per-core scratch)"
                  path (i + 1) tok
                :: !failures)
          allocating_decodes)
      lines

let lint_file path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = Array.of_list (List.rev !lines) in
  lint_hot_path path lines;
  lint_per_core path lines;
  lint_per_packet path lines;
  lint_ignore_sentinel path lines;
  Array.iteri
    (fun i line ->
      match value_binding_name line with
      | None -> ()
      | Some name ->
          let allowed =
            List.exists
              (fun (suffix, n) ->
                n = name
                && String.length path >= String.length suffix
                && String.sub path
                     (String.length path - String.length suffix)
                     (String.length suffix)
                   = suffix)
              allowlist
          in
          if not allowed then
            let header = binding_header lines i in
            List.iter
              (fun tok ->
                if contains_token header tok then
                  failures :=
                    Printf.sprintf "%s:%d: top-level `%s` binds mutable state (%s)"
                      path (i + 1) name tok
                    :: !failures)
              forbidden_tokens)
    lines

(* Coverage guard: the subsystem directories the lint is expected to
   scan under lib/.  If one goes missing from the walk (renamed, or
   silently excluded), the lint would pass vacuously for that subsystem
   — fail loudly instead.  New lib/ subdirectories belong here. *)
let required_dirs =
  [
    "apps"; "baselines"; "core"; "engine"; "faults"; "harness"; "hw"; "mem";
    "model"; "net"; "netapi"; "tcp"; "telemetry"; "timerwheel"; "workloads";
  ]

let visited_dirs = ref []

let rec walk dir =
  visited_dirs := Filename.basename dir :: !visited_dirs;
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then walk path
      else if Filename.check_suffix path ".ml" then lint_file path)
    (Sys.readdir dir)

let () =
  let roots =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "lib" ] | _ :: rest -> rest
  in
  List.iter walk roots;
  if List.exists (fun r -> Filename.basename r = "lib") roots then begin
    let missing =
      List.filter (fun d -> not (List.mem d !visited_dirs)) required_dirs
    in
    if missing <> [] then begin
      Printf.eprintf
        "lint-globals: expected lib/ subsystem(s) not scanned: %s — renamed? \
         Update required_dirs in test/lint_globals.ml.\n"
        (String.concat ", " missing);
      exit 1
    end
  end;
  match List.rev !failures with
  | [] -> print_endline "lint-globals: no module-level mutable state in lib/"
  | fs ->
      List.iter prerr_endline fs;
      Printf.eprintf
        "lint-globals: %d violation(s).  Thread state through the simulation \
         instead of module-level mutables (see DESIGN.md, \"parallel \
         harness\"), keep the RX hot path on decode_into, or add a documented \
         allowlist entry in test/lint_globals.ml.\n"
        (List.length fs);
      exit 1
