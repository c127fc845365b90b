(* The in-use set is a bitmap over the port range — one bit per port,
   ~6 KB for the full ephemeral range, allocation-free on both [alloc]
   and [free].  The Hashtbl it replaces resized itself up to the
   population high-water mark and rehashed on the hot connect path; at
   million-connection churn that was measurable GC traffic. *)

type t = {
  lo : int;
  hi : int;
  bits : Bytes.t; (* bit i = port lo+i in use *)
  mutable in_use : int;
  mutable cursor : int;
  mutable double_frees : int;
      (* [free] calls for an in-range port that was not allocated —
         each one is a lifecycle bug (a reservation returned twice, or
         never taken); counted instead of silently ignored so tests
         and the chaos audit can assert zero *)
}

let create ?(lo = 16384) ?(hi = 65535) () =
  {
    lo;
    hi;
    bits = Bytes.make (((hi - lo + 1) + 7) / 8) '\000';
    in_use = 0;
    cursor = lo;
    double_frees = 0;
  }

let[@inline] test t port =
  let i = port - t.lo in
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set t port =
  let i = port - t.lo in
  Bytes.unsafe_set t.bits (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits (i lsr 3)) lor (1 lsl (i land 7))))

let[@inline] clear t port =
  let i = port - t.lo in
  Bytes.unsafe_set t.bits (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land lnot (1 lsl (i land 7))))

(* A top-level recursion rather than a local closure, so a probe
   allocates nothing. *)
let rec probe t ~suitable ~range attempts cursor =
  if attempts >= range then -1
  else begin
    let port = t.lo + ((cursor - t.lo) mod range) in
    if (not (test t port)) && suitable port then begin
      set t port;
      t.in_use <- t.in_use + 1;
      t.cursor <- port + 1;
      port
    end
    else probe t ~suitable ~range (attempts + 1) (cursor + 1)
  end

let alloc t ~suitable = probe t ~suitable ~range:(t.hi - t.lo + 1) 0 t.cursor

let free t port =
  if port >= t.lo && port <= t.hi then begin
    if test t port then begin
      clear t port;
      t.in_use <- t.in_use - 1
    end
    else t.double_frees <- t.double_frees + 1
  end

let in_use t = t.in_use
let double_frees t = t.double_frees
