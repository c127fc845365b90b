(* Repository lint: no module-level mutable state in lib/, no
   allocating header decodes on the RX hot path, no cross-thread
   synchronization primitives on the per-core dataplane paths, no
   per-packet payload copies on the wire path, no physical comparison
   against [ignore], no lib/ module that only tests use, no lib/ export
   that no other file names, no polymorphic [max]/[min] on the
   per-event paths, no [Obj] anywhere in lib/ and no boxed mutable
   number field (second to tenth passes below).

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
  [ "core/dataplane.ml"; "tcp/tcp_endpoint.ml"; "tcp/tcb.ml"; "tcp/flow_table.ml" ]

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
    "tcp/flow_table.ml";
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

(* Sixth pass: no lib/ module that only tests use.  Each lib/**/X.ml
   must be referenced by name ([X.], or an alias [module M = X]) from
   another .ml under lib/, bin/ or ixbench/, comments and string
   literals stripped.  A module only test/ reaches is code the system
   never runs, and its unit tests prove nothing about the code that
   does.  Deliberate exceptions go on the
   allowlist with their reason. *)

let test_only_allowlist =
  [
    (* The model-TCP oracle harness: test_conformance drives it against
       the real endpoint; nothing in the running system needs an
       oracle. *)
    "harness/conformance.ml";
  ]

(* [src] with comments and string literals blanked, newlines kept so
   line numbers survive; character literals holding a quote are skipped
   so they open no string. *)
let strip_comments src =
  let n = String.length src in
  let out = Buffer.create n in
  let depth = ref 0 and i = ref 0 in
  let at s = !i + String.length s <= n && String.sub src !i (String.length s) = s in
  while !i < n do
    if at "'\"'" then i := !i + 3
    else if at "(*" then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && at "*)" then begin
      decr depth;
      i := !i + 2
    end
    else if src.[!i] = '"' then begin
      incr i;
      while !i < n && src.[!i] <> '"' do
        if src.[!i] = '\\' then incr i;
        if !i < n && src.[!i] = '\n' then Buffer.add_char out '\n';
        incr i
      done;
      incr i;
      Buffer.add_char out ' '
    end
    else begin
      Buffer.add_char out (if !depth = 0 || src.[!i] = '\n' then src.[!i] else ' ');
      incr i
    end
  done;
  Buffer.contents out

(* Capitalized identifier -> paths of the files that mention it. *)
let module_users : (string, string) Hashtbl.t = Hashtbl.create 256

let record_module_names path src =
  let src = strip_comments src in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if
      src.[!i] >= 'A' && src.[!i] <= 'Z' && (!i = 0 || not (is_ident_char src.[!i - 1]))
    then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      Hashtbl.add module_users (String.sub src !i (!j - !i)) path;
      i := !j
    end
    else incr i
  done

let lib_modules = ref []

let lint_test_only () =
  List.iter
    (fun path ->
      let name =
        String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
      in
      let used = List.exists (( <> ) path) (Hashtbl.find_all module_users name) in
      if
        (not used)
        && not (List.exists (Filename.check_suffix path) test_only_allowlist)
      then
        failures :=
          Printf.sprintf
            "%s: module `%s` is referenced from no other file under lib/, \
             bin/ or ixbench/ — delete it, or add a documented allowlist \
             entry if only tests should use it"
            path name
          :: !failures)
    (List.rev !lib_modules)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Seventh pass: no unused export.  Each [val v] of a lib/**/x.mli must
   be named by some file outside module X — under lib/, bin/, ixbench/,
   test/ or examples/, comments and string literals stripped.  A file
   names [v] when it writes [A.v] with [A] one of X's names (X itself, a
   module declared inside x.mli, or a local alias [module A = ….X]), or
   when it opens one of those names ([open A], [let open A in], [A.(…)])
   and mentions [v] bare.  An export nothing names is a dead entry
   point: make it private to its module, or delete it if the module
   does not use it either.  Deliberate exceptions go on the allowlist
   with their reason. *)

let unused_export_allowlist =
  [
    (* The one-group migration protocol of DESIGN.md §8, which
       Dataplane's migration hooks document themselves against; today
       only [rebalance] (and through it add/remove_core) calls it. *)
    ("Control_plane", "migrate_flow_group");
  ]

type file_names = {
  qualified : (string * string, unit) Hashtbl.t;  (* (A, v) for each "A.v" *)
  aliases : (string * string) list;  (* (A, P) for "module A = ….P" *)
  opened : string list;  (* P for "open ….P", "P.(" *)
  bare : (string, unit) Hashtbl.t;  (* every lowercase identifier *)
}

(* Identifiers and single punctuation characters of [src]. *)
let tokens src =
  let n = String.length src in
  let acc = ref [] and i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      acc := String.sub src !i (!j - !i) :: !acc;
      i := !j
    end
    else begin
      if not (List.mem c [ ' '; '\n'; '\t'; '\r' ]) then acc := String.make 1 c :: !acc;
      incr i
    end
  done;
  Array.of_list (List.rev !acc)

let is_upper tok = tok <> "" && tok.[0] >= 'A' && tok.[0] <= 'Z'
let is_lower tok = tok <> "" && ((tok.[0] >= 'a' && tok.[0] <= 'z') || tok.[0] = '_')

(* The last component of the module path starting at token [i]. *)
let rec path_end toks i =
  if i + 2 < Array.length toks && toks.(i + 1) = "." && is_upper toks.(i + 2) then
    path_end toks (i + 2)
  else toks.(i)

let scan_names src =
  let toks = tokens (strip_comments src) in
  let n = Array.length toks in
  let qualified = Hashtbl.create 64 and bare = Hashtbl.create 256 in
  let aliases = ref [] and opened = ref [] in
  for i = 0 to n - 1 do
    let tok = toks.(i) in
    if is_lower tok then Hashtbl.replace bare tok ();
    if is_upper tok && i + 2 < n && toks.(i + 1) = "." then begin
      if is_lower toks.(i + 2) then Hashtbl.replace qualified (tok, toks.(i + 2)) ();
      if toks.(i + 2) = "(" then opened := tok :: !opened
    end;
    if tok = "open" then begin
      let j = if i + 1 < n && toks.(i + 1) = "!" then i + 2 else i + 1 in
      if j < n && is_upper toks.(j) then opened := path_end toks j :: !opened
    end;
    if
      tok = "module" && i + 3 < n && is_upper toks.(i + 1) && toks.(i + 2) = "="
      && is_upper toks.(i + 3)
    then aliases := (toks.(i + 1), path_end toks (i + 3)) :: !aliases
  done;
  { qualified; aliases = !aliases; opened = !opened; bare }

(* Every scanned .ml, with its module name. *)
let name_users : (string * file_names) list ref = ref []

let record_name_users path src =
  let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  name_users := (m, scan_names src) :: !name_users

(* [val] names of an .mli, and the modules it declares inside. *)
let exports src =
  let toks = tokens (strip_comments src) in
  let n = Array.length toks in
  let vals = ref [] and inner = ref [] in
  for i = 0 to n - 2 do
    if toks.(i) = "val" && is_lower toks.(i + 1) then vals := toks.(i + 1) :: !vals;
    if toks.(i) = "module" && is_upper toks.(i + 1) then inner := toks.(i + 1) :: !inner
  done;
  (List.rev !vals, !inner)

let names_value ~names v f =
  let local =
    names @ List.filter_map (fun (a, p) -> if List.mem p names then Some a else None) f.aliases
  in
  List.exists (fun a -> Hashtbl.mem f.qualified (a, v)) local
  || (List.exists (fun p -> List.mem p local) f.opened && Hashtbl.mem f.bare v)

let lint_unused_exports mli_paths =
  List.iter
    (fun path ->
      let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
      let vals, inner = exports (read_file path) in
      let names = m :: inner in
      List.iter
        (fun v ->
          let used =
            List.exists (fun (owner, f) -> owner <> m && names_value ~names v f) !name_users
          in
          if (not used) && not (List.mem (m, v) unused_export_allowlist) then
            failures :=
              Printf.sprintf
                "%s: `%s.%s` is exported but no file outside %s names it — \
                 make it private or delete it, or add a documented allowlist \
                 entry"
                path m v m
              :: !failures)
        vals)
    mli_paths


(* Eighth pass: no polymorphic [max]/[min] on the per-event paths.
   [Stdlib.max] and [Stdlib.min] are polymorphic: even on ints each call
   goes through the generic compare, a C call per use — and
   [Cpu_core.charge], [Link] and the TCP window arithmetic run on every
   event.  Under the directories below, a bare [max]/[min] followed by
   an argument (or any [Stdlib.max]/[Stdlib.min]) must be [Int.max],
   [Int.min] or another typed version.  Comments and string literals
   are ignored.  Deliberate exceptions go on the allowlist as
   (path-suffix, substring of the flagged code line) with their
   reason. *)

let typed_minmax_dirs = [ "engine"; "timerwheel"; "hw"; "mem"; "tcp"; "core"; "baselines" ]

let typed_minmax_allowlist =
  [
    (* The definition of sequence-space (wrapping) max, not a use of
       the polymorphic one. *)
    ("tcp/seqno.ml", "let max a b");
  ]

(* [max] or [min] used as a bare function at [i]: not qualified, not a
   label, and followed on its line by the start of an argument. *)
let bare_minmax_at line i =
  let n = String.length line in
  i + 3 <= n
  && (let w = String.sub line i 3 in
      w = "max" || w = "min")
  && (i = 0 || not (is_word_char line.[i - 1] || line.[i - 1] = '~' || line.[i - 1] = '?'))
  && i + 3 < n
  && (line.[i + 3] = ' ' || line.[i + 3] = '\t')
  &&
  let j = ref (i + 3) in
  while !j < n && (line.[!j] = ' ' || line.[!j] = '\t') do
    incr j
  done;
  !j < n && (is_ident_char line.[!j] || List.mem line.[!j] [ '('; '!'; '[' ])

let lint_typed_minmax path code_lines =
  if List.exists (fun d -> in_dir path d) typed_minmax_dirs then
    Array.iteri
      (fun i code ->
        let bare =
          let rec from k = k < String.length code && (bare_minmax_at code k || from (k + 1)) in
          from 0
        in
        if
          (bare || contains_token code "Stdlib.max" || contains_token code "Stdlib.min")
          && not
               (List.exists
                  (fun (suffix, sub) -> Filename.check_suffix path suffix && contains_sub code sub)
                  typed_minmax_allowlist)
        then
          failures :=
            Printf.sprintf
              "%s:%d: polymorphic `max`/`min` on a per-event path — use \
               `Int.max`/`Int.min` (or the type's own), or add a documented \
               allowlist entry"
              path (i + 1)
            :: !failures)
      code_lines

(* Ninth pass: no [Obj] in lib/.  [Obj.magic] and friends step outside
   the type system: a sentinel conjured with [Obj.magic ()] where a
   record is expected type-checks and then crashes, or silently reads
   garbage, the first time a field is read through it.  Where a value
   must stand for "nothing" without an option box, build a real one
   (the store's dead TCB view is the model).  Comments and string
   literals are ignored. *)

let obj_modules = [ "Obj"; "Stdlib.Obj" ]

let lint_no_obj path code_lines =
  Array.iteri
    (fun i code ->
      if List.exists (contains_module_use code) obj_modules then
        failures :=
          Printf.sprintf
            "%s:%d: `Obj` in lib/ bypasses the type system — build a real \
             value instead (a sentinel record, as Tcb's dead view)"
            path (i + 1)
          :: !failures)
    code_lines

(* Tenth pass: no [mutable <field> : float | int64 | int32] record field
   in lib/.  Each write to such a field boxes a new value — a float or
   Int64 per packet, sample or random draw.  Keep the number unboxed: a
   one-cell float array (as [Log_hist.sum]), an 8-byte [Bytes] read as
   a 64-bit word (as [Rng]'s state), or an int.  Comments and string
   literals are ignored. *)

let boxed_number_types = [ "float"; "Float.t"; "int64"; "Int64.t"; "int32"; "Int32.t" ]

(* [code] declares a mutable field of a boxed number type: the tokens
   "mutable", a name and ':', then a type that ends at ';', '}' or the
   end of the line and spells one of [boxed_number_types]. *)
let boxed_mutable_field code =
  let toks = tokens code in
  let n = Array.length toks in
  let rec type_at i acc =
    if i >= n || toks.(i) = ";" || toks.(i) = "}" then List.mem acc boxed_number_types
    else type_at (i + 1) (acc ^ toks.(i))
  in
  let rec from i =
    i + 3 < n
    && ((toks.(i) = "mutable" && is_lower toks.(i + 1) && toks.(i + 2) = ":" && type_at (i + 3) "")
       || from (i + 1))
  in
  from 0

let lint_boxed_fields path code_lines =
  Array.iteri
    (fun i code ->
      if boxed_mutable_field code then
        failures :=
          Printf.sprintf
            "%s:%d: a mutable float/int64/int32 field boxes a new number on \
             every write — keep it unboxed (a one-cell float array, an 8-byte \
             Bytes word, or an int)"
            path (i + 1)
          :: !failures)
    code_lines

let lint_file path =
  let src = read_file path in
  lib_modules := path :: !lib_modules;
  record_module_names path src;
  record_name_users path src;
  let lines = Array.of_list (String.split_on_char '\n' src) in
  lint_hot_path path lines;
  lint_per_core path lines;
  lint_per_packet path lines;
  lint_ignore_sentinel path lines;
  let code_lines = Array.of_list (String.split_on_char '\n' (strip_comments src)) in
  lint_typed_minmax path code_lines;
  lint_no_obj path code_lines;
  lint_boxed_fields path code_lines;
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

(* Under _build the walk meets compiled artifacts that a concurrent
   rebuild may be rewriting, so it stats only what can matter — .ml
   files and extension-less entries (directories) — and skips an entry
   that vanishes between [readdir] and the stat. *)
let rec walk f dir =
  visited_dirs := Filename.basename dir :: !visited_dirs;
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      let ml = Filename.check_suffix entry ".ml" in
      if ml || Filename.extension entry = "" then
        match Sys.is_directory path with
        | true -> walk f path
        | false -> if ml then f path
        | exception Sys_error _ -> ())
    (Sys.readdir dir)

(* Usage: lint_globals [ROOT...] [--refs DIR...] [--names DIR...] —
   every pass lints the .ml files under the ROOTs (default lib); the
   refs DIRs (default bin and ixbench) count as users for the sixth and
   seventh passes, the names DIRs (default test and examples) for the
   seventh only. *)
let () =
  (* The arguments up to the next flag, and those after [flag]. *)
  let rec leading = function
    | a :: rest when not (String.starts_with ~prefix:"--" a) -> a :: leading rest
    | _ -> []
  in
  let rec after flag = function
    | [] -> []
    | a :: rest -> if a = flag then leading rest else after flag rest
  in
  let roots, ref_roots, name_roots =
    match Array.to_list Sys.argv with
    | [] | [ _ ] -> ([ "lib" ], [ "bin"; "ixbench" ], [ "test"; "examples" ])
    | _ :: args -> (leading args, after "--refs" args, after "--names" args)
  in
  List.iter (walk lint_file) roots;
  List.iter
    (walk (fun path ->
         let src = read_file path in
         record_module_names path src;
         record_name_users path src))
    ref_roots;
  List.iter (walk (fun path -> record_name_users path (read_file path))) name_roots;
  lint_test_only ();
  lint_unused_exports
    (List.filter Sys.file_exists (List.map (fun ml -> ml ^ "i") (List.rev !lib_modules)));
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
