type t = {
  buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable refcount : int;
  mutable on_free : t -> unit;
  id : int;
}

let default_size = 2048
let headroom = 128

(* Debug/accounting ids only — an [Atomic.t] keeps allocation safe when
   independent sims fill pools from concurrent domains.  Ids are
   unique but their numeric values depend on domain interleaving, so
   nothing behavioural may key off them. *)
let next_id = Atomic.make 0

let create ?(size = default_size) () =
  {
    buf = Bytes.create size;
    off = headroom;
    len = 0;
    refcount = 1;
    on_free = ignore;
    id = 1 + Atomic.fetch_and_add next_id 1;
  }

let reset t =
  t.off <- headroom;
  t.len <- 0;
  t.refcount <- 1

let incref t = t.refcount <- t.refcount + 1

let decref t =
  if t.refcount <= 0 then invalid_arg "Mbuf.decref: refcount already zero";
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then t.on_free t

let tailroom t = Bytes.length t.buf - (t.off + t.len)

let append_bytes t src src_off src_len =
  if src_len > tailroom t then invalid_arg "Mbuf.append_bytes: no tailroom";
  Bytes.blit src src_off t.buf (t.off + t.len) src_len;
  t.len <- t.len + src_len

let append t s =
  if String.length s > tailroom t then invalid_arg "Mbuf.append: no tailroom";
  Bytes.blit_string s 0 t.buf (t.off + t.len) (String.length s);
  t.len <- t.len + String.length s

let prepend t n =
  if n > t.off then invalid_arg "Mbuf.prepend: no headroom";
  t.off <- t.off - n;
  t.len <- t.len + n;
  t.off

let adjust t n =
  if n > t.len then invalid_arg "Mbuf.adjust: beyond payload";
  t.off <- t.off + n;
  t.len <- t.len - n

let payload t = Bytes.sub_string t.buf t.off t.len
