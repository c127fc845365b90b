(* The zero-allocation gates' shared check.  [Gc.minor_words] alone
   misses what is allocated straight on the major heap — any block over
   256 words, such as a pool's arrays doubling — so the count here adds
   the direct major words: major minus promoted, from [Gc.counters]. *)

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Run [f], fail unless it allocated no word, minor or direct major, and
   return its result.  [Gc.counters] boxes its result, so it is read
   outside the minor-heap window. *)
let none msg f =
  let major0 = direct_major_words () in
  let minor0 = Gc.minor_words () in
  let result = f () in
  let minor1 = Gc.minor_words () in
  let major1 = direct_major_words () in
  Alcotest.(check (float 0.)) msg 0. (minor1 -. minor0 +. (major1 -. major0));
  result
