(* Tests for mbufs, mempools, iovecs and the slice deque. *)

module Mbuf = Ixmem.Mbuf
module Mempool = Ixmem.Mempool
module Iovec = Ixmem.Iovec
module Iov_deque = Ixmem.Iov_deque

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Mbuf ---------------- *)

let test_mbuf_append_payload () =
  let m = Mbuf.create () in
  Mbuf.append m "hello ";
  Mbuf.append m "world";
  Alcotest.(check string) "payload" "hello world" (Mbuf.payload m);
  check_int "len" 11 m.Mbuf.len

let test_mbuf_prepend_adjust () =
  let m = Mbuf.create () in
  Mbuf.append m "payload";
  let off = Mbuf.prepend m 4 in
  Bytes.blit_string "HDR:" 0 m.Mbuf.buf off 4;
  Alcotest.(check string) "with header" "HDR:payload" (Mbuf.payload m);
  Mbuf.adjust m 4;
  Alcotest.(check string) "header consumed" "payload" (Mbuf.payload m)

let test_mbuf_headroom_exhaustion () =
  let m = Mbuf.create () in
  Alcotest.check_raises "prepend beyond headroom"
    (Invalid_argument "Mbuf.prepend: no headroom") (fun () ->
      ignore (Mbuf.prepend m (Mbuf.headroom + 1)))

let test_mbuf_tailroom_exhaustion () =
  let m = Mbuf.create ~size:256 () in
  Alcotest.check_raises "append beyond capacity"
    (Invalid_argument "Mbuf.append: no tailroom") (fun () ->
      Mbuf.append m (String.make 300 'x'))

let test_mbuf_refcount () =
  let m = Mbuf.create () in
  let freed = ref 0 in
  m.Mbuf.on_free <- (fun _ -> incr freed);
  Mbuf.incref m;
  Mbuf.decref m;
  check_int "still held" 0 !freed;
  Mbuf.decref m;
  check_int "freed once" 1 !freed;
  Alcotest.check_raises "double free detected"
    (Invalid_argument "Mbuf.decref: refcount already zero") (fun () ->
      Mbuf.decref m)

(* ---------------- Mempool ---------------- *)

let test_mempool_alloc_free_cycle () =
  let pool = Mempool.create ~capacity:64 ~name:"t" () in
  let m = Option.get (Mempool.alloc pool) in
  check_int "live" 1 (Mempool.live_count pool);
  Mbuf.decref m;
  check_int "released" 0 (Mempool.live_count pool);
  let m2 = Option.get (Mempool.alloc pool) in
  check_bool "recycled object is fresh" true (m2.Mbuf.len = 0 && m2.Mbuf.refcount = 1);
  Mbuf.decref m2

let test_mempool_exhaustion () =
  let pool = Mempool.create ~capacity:4 ~name:"small" () in
  let taken = List.init 4 (fun _ -> Option.get (Mempool.alloc pool)) in
  Alcotest.(check (option unit))
    "exhausted" None
    (Option.map ignore (Mempool.alloc pool));
  check_int "failure recorded" 1 (Mempool.stat_failures pool);
  List.iter Mbuf.decref taken;
  check_bool "recovers after frees" true (Option.is_some (Mempool.alloc pool))

let test_mempool_stats () =
  let pool = Mempool.create ~capacity:16 ~name:"s" () in
  for _ = 1 to 10 do
    Mbuf.decref (Option.get (Mempool.alloc pool))
  done;
  check_int "allocs counted" 10 (Mempool.stat_allocs pool);
  Alcotest.(check string) "name" "s" (Mempool.name pool)

(* Buffers are created on demand: a released buffer is the next one
   handed out, the pool still stops at exactly [capacity] live buffers,
   and a closed gate still fails — counted — while buffers are free. *)
let test_mempool_on_demand () =
  let capacity = 5 in
  let pool = Mempool.create ~capacity ~name:"demand" () in
  let m = Option.get (Mempool.alloc pool) in
  Mbuf.decref m;
  check_bool "the released buffer comes back" true (Option.get (Mempool.alloc pool) == m);
  let rest = List.init (capacity - 1) (fun _ -> Mempool.alloc pool) in
  check_bool "capacity allocs succeed" true (List.for_all Option.is_some rest);
  check_bool "the next one fails" true (Option.is_none (Mempool.alloc pool));
  check_int "one failure" 1 (Mempool.stat_failures pool);
  Mbuf.decref m;
  Mempool.set_alloc_gate pool (Some (fun () -> false));
  check_bool "a closed gate fails with a buffer free" true (Option.is_none (Mempool.alloc pool));
  check_int "the gate's failure is counted" 2 (Mempool.stat_failures pool);
  Mempool.set_alloc_gate pool None;
  check_bool "the free buffer is handed out" true (Option.get (Mempool.alloc pool) == m)

let prop_mempool_no_leak =
  QCheck.Test.make ~name:"mempool conserves objects over random alloc/free" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let pool = Mempool.create ~capacity:32 ~name:"p" () in
      let held = ref [] in
      List.iter
        (fun alloc ->
          if alloc then begin
            match Mempool.alloc pool with
            | Some m -> held := m :: !held
            | None -> ()
          end
          else begin
            match !held with
            | [] -> ()
            | m :: rest ->
                held := rest;
                Mbuf.decref m
          end)
        ops;
      Mempool.live_count pool = List.length !held)

(* ---------------- Iovec ---------------- *)

let test_iovec_total_sub () =
  let iov = Iovec.of_string "hello world" in
  check_int "total sums slices" 22 (Iovec.total [ iov; iov ]);
  let sub = Iovec.sub iov 6 5 in
  let out = Bytes.create 5 in
  Iovec.blit sub ~src_off:0 ~dst:out ~dst_off:0 ~len:5;
  Alcotest.(check string) "sub slice" "world" (Bytes.to_string out)

let test_iovec_sub_bounds () =
  let iov = Iovec.of_string "abc" in
  Alcotest.check_raises "sub out of range" (Invalid_argument "Iovec.sub")
    (fun () -> ignore (Iovec.sub iov 1 3))

(* ---------------- Iov_deque ---------------- *)

(* Two deques against a reference that models each as the list of the
   strings it holds, consumed from the front.  An op is (code, a, b, s):
   0 pushes a suffix of [s] (by [push_substring], or by [push] of an
   [Iovec] when [b] is odd), 1 transfers up to [b] bytes to the other
   deque (splitting a slice when [b] falls inside one), 2 drops up to
   [b] bytes, 3 compares a [blit_to] window; [a] picks the deque.
   After every op both deques must hold exactly their model's bytes. *)
let prop_iov_deque_matches_reference =
  let rec drop n = function
    | [] -> []
    | s :: rest ->
        let l = String.length s in
        if l <= n then drop (n - l) rest else String.sub s n (l - n) :: rest
  in
  let rec take n = function
    | [] -> []
    | s :: rest ->
        let l = String.length s in
        if n = 0 then [] else if l <= n then s :: take (n - l) rest else [ String.sub s 0 n ]
  in
  QCheck.Test.make ~name:"iov_deque matches a list-of-strings reference" ~count:500
    QCheck.(
      list_of_size Gen.(0 -- 60)
        (quad (int_bound 3) (int_bound 40) (int_bound 40) (string_of_size Gen.(0 -- 12))))
    (fun ops ->
      let q = [| Iov_deque.create (); Iov_deque.create () |] in
      let model = [| []; [] |] in
      let holds i =
        let c = String.concat "" model.(i) in
        let out = Bytes.create (String.length c) in
        Iov_deque.blit_to q.(i) ~skip:0 ~dst:out ~dst_off:0 ~len:(String.length c);
        Iov_deque.bytes q.(i) = String.length c
        && Iov_deque.is_empty q.(i) = (c = "")
        && Bytes.to_string out = c
      in
      List.for_all
        (fun (code, a, b, s) ->
          let i = a land 1 in
          let bytes = Iov_deque.bytes q.(i) in
          let ok =
            match code with
            | 0 ->
                let off = Int.min a (String.length s) in
                let piece = String.sub s off (String.length s - off) in
                if b land 1 = 1 then
                  Iov_deque.push q.(i) (Iovec.sub (Iovec.of_string s) off (String.length piece))
                else Iov_deque.push_substring q.(i) s off (String.length piece);
                if piece <> "" then model.(i) <- model.(i) @ [ piece ];
                true
            | 1 ->
                let j = 1 - i in
                let moved = Iov_deque.transfer ~src:q.(i) ~dst:q.(j) ~max_bytes:b in
                model.(j) <- model.(j) @ take moved model.(i);
                model.(i) <- drop moved model.(i);
                moved = Int.min b bytes
            | 2 ->
                let n = Int.min b bytes in
                Iov_deque.drop_front q.(i) n;
                model.(i) <- drop n model.(i);
                true
            | _ ->
                let skip = if bytes = 0 then 0 else a mod (bytes + 1) in
                let len = Int.min b (bytes - skip) in
                let out = Bytes.make len '.' in
                Iov_deque.blit_to q.(i) ~skip ~dst:out ~dst_off:0 ~len;
                Bytes.to_string out = String.sub (String.concat "" model.(i)) skip len
          in
          ok && holds 0 && holds 1)
        ops)

(* The per-packet pattern: take a buffer, drop its last reference. *)
let test_mempool_cycle_allocates_nothing () =
  let pool = Mempool.create ~capacity:64 ~name:"steady" () in
  let cycle () =
    match Mempool.alloc pool with
    | Some mbuf -> Mbuf.decref mbuf
    | None -> Alcotest.fail "pool exhausted"
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  Alloc_gate.none "words over 10k alloc/release" (fun () ->
      for _ = 1 to 10_000 do
        cycle ()
      done);
  check_int "every buffer returned" 0 (Mempool.live_count pool)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ( "mbuf",
        [
          Alcotest.test_case "append/payload" `Quick test_mbuf_append_payload;
          Alcotest.test_case "prepend/adjust" `Quick test_mbuf_prepend_adjust;
          Alcotest.test_case "headroom bound" `Quick test_mbuf_headroom_exhaustion;
          Alcotest.test_case "tailroom bound" `Quick test_mbuf_tailroom_exhaustion;
          Alcotest.test_case "refcount & double free" `Quick test_mbuf_refcount;
        ] );
      ( "mempool",
        [
          Alcotest.test_case "alloc/free cycle" `Quick test_mempool_alloc_free_cycle;
          Alcotest.test_case "exhaustion & recovery" `Quick test_mempool_exhaustion;
          Alcotest.test_case "statistics" `Quick test_mempool_stats;
          Alcotest.test_case "alloc/release allocates nothing" `Quick
            test_mempool_cycle_allocates_nothing;
          Alcotest.test_case "buffers created on demand" `Quick test_mempool_on_demand;
          qt prop_mempool_no_leak;
        ] );
      ( "iovec",
        [
          Alcotest.test_case "total and sub" `Quick test_iovec_total_sub;
          Alcotest.test_case "sub bounds checked" `Quick test_iovec_sub_bounds;
        ] );
      ("deque", [ qt prop_iov_deque_matches_reference ]);
    ]
