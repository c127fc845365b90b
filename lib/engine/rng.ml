(* The SplitMix64 state lives in an 8-byte [Bytes] read and written as
   a raw 64-bit word, not in a [mutable state : int64] field: a write to
   such a field boxes a fresh Int64 on every draw.  The draw functions
   are inlined into their callers, so the mixed word and the [float] a
   caller reads stay unboxed too. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (mix64 (int64 t))

let[@inline] int t bound =
  assert (bound > 0);
  (* Drop two bits so the value fits OCaml's 63-bit nonnegative range. *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let[@inline] float t bound =
  (* 53 uniformly random mantissa bits scaled into [0, bound). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let[@inline] bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let uniform_range t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)
