type t = int

let zero = 0
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let of_float_us x = int_of_float (Float.round (x *. 1_000.))
let to_float_us t = float_of_int t /. 1_000.
let to_float_s t = float_of_int t /. 1_000_000_000.
let add = ( + )
let max = Int.max

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (to_float_us t)
  else if t < 1_000_000_000 then
    Format.fprintf fmt "%.3fms" (float_of_int t /. 1_000_000.)
  else Format.fprintf fmt "%.3fs" (to_float_s t)
