(* Rejection-inversion sampling for the Zipf distribution
   (Hörmann & Derflinger 1996), as used by YCSB-style generators. *)

type t = {
  count : int;
  theta : float;
  h_x1 : float;
  h_n : float;
  s : float;
}

(* [h] and [h_inv] are inlined into [sample], so a draw keeps every
   intermediate float unboxed and allocates nothing. *)
let[@inline] h t x =
  (* Integral of 1/x^theta. *)
  if t.theta = 1.0 then log x else (x ** (1.0 -. t.theta)) /. (1.0 -. t.theta)

let[@inline] h_inv t y =
  if t.theta = 1.0 then exp y else ((1.0 -. t.theta) *. y) ** (1.0 /. (1.0 -. t.theta))

let create ~n ~theta =
  assert (n >= 1);
  assert (theta > 0. && theta <> 1.0 || theta = 1.0);
  let t = { count = n; theta; h_x1 = 0.; h_n = 0.; s = 0. } in
  let h_x1 = h t 1.5 -. 1.0 in
  let h_n = h t (float_of_int n +. 0.5) in
  let s = 2.0 -. h_inv t (h t 2.5 -. (0.5 ** theta)) in
  { t with h_x1; h_n; s }

let rec sample t rng =
  let u = t.h_x1 +. (Engine.Rng.float rng 1.0 *. (t.h_n -. t.h_x1)) in
  let x = h_inv t u in
  let k = Float.round x in
  let k = if k < 1. then 1. else if k > float_of_int t.count then float_of_int t.count else k in
  if k -. x <= t.s then int_of_float k
  else if u >= h t (k +. 0.5) -. (k ** -.t.theta) then int_of_float k
  else sample t rng
