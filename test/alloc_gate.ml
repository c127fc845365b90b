(* The zero-allocation gates' shared check.  [Gc.minor_words] alone
   misses what is allocated straight on the major heap — any block over
   256 words, such as a pool's arrays doubling — so the count here adds
   the direct major words: major minus promoted, from [Gc.counters]. *)

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* Run [f] and return its result with the words it allocated, minor
   and direct major.  [Gc.counters] boxes its result, so it is read
   outside the minor-heap window. *)
let counted f =
  let major0 = direct_major_words () in
  let minor0 = Gc.minor_words () in
  let result = f () in
  let minor1 = Gc.minor_words () in
  let major1 = direct_major_words () in
  (result, minor1 -. minor0 +. (major1 -. major0))

(* The words [f ()] allocated. *)
let words f = snd (counted f)

(* Run [f], fail unless it allocated no word, and return its result. *)
let none msg f =
  let result, words = counted f in
  Alcotest.(check (float 0.)) msg 0. words;
  result
