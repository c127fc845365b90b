type op = Get | Set

type request = { op : op; reqid : int; key : string; value : string }
type response = { status : int; reqid : int; value : string }

let hit = 0
let miss = 1
let stored = 2

let request_header = 11
let response_header = 9

(* 32-bit fields are written/read as two 16-bit halves: the Int32
   spellings box a fresh Int32 per call, and these run on every
   simulated request and response. *)
let set_u32 buf off v =
  Bytes.set_uint16_be buf off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be buf (off + 2) (v land 0xFFFF)

let encode_request r =
  let keylen = String.length r.key and vallen = String.length r.value in
  let buf = Bytes.create (request_header + keylen + vallen) in
  Bytes.set_uint8 buf 0 (match r.op with Get -> 0 | Set -> 1);
  set_u32 buf 1 r.reqid;
  Bytes.set_uint16_be buf 5 keylen;
  set_u32 buf 7 vallen;
  Bytes.blit_string r.key 0 buf request_header keylen;
  Bytes.blit_string r.value 0 buf (request_header + keylen) vallen;
  Bytes.unsafe_to_string buf

let encode_response r =
  let vallen = String.length r.value in
  let buf = Bytes.create (response_header + vallen) in
  Bytes.set_uint8 buf 0 r.status;
  set_u32 buf 1 r.reqid;
  set_u32 buf 5 vallen;
  Bytes.blit_string r.value 0 buf response_header vallen;
  Bytes.unsafe_to_string buf

let max_key_len = 1 lsl 16
let max_value_len = 1 lsl 20

module Parser = struct
  (* A rolling buffer: compacted when the consumed prefix grows large.
     A length field outside protocol bounds (negative or oversized)
     poisons the stream: a real server would reset the connection. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable stop : int;
    mutable corrupt : bool;
  }

  let create () = { buf = Bytes.create 4096; start = 0; stop = 0; corrupt = false }
  let buffered t = t.stop - t.start

  let compact t =
    if t.start > 0 then begin
      Bytes.blit t.buf t.start t.buf 0 (buffered t);
      t.stop <- buffered t;
      t.start <- 0
    end

  let feed t data =
    let len = String.length data in
    if t.stop + len > Bytes.length t.buf then begin
      compact t;
      if t.stop + len > Bytes.length t.buf then begin
        let size = max (2 * Bytes.length t.buf) (t.stop + len) in
        let bigger = Bytes.create size in
        Bytes.blit t.buf 0 bigger 0 t.stop;
        t.buf <- bigger
      end
    end;
    Bytes.blit_string data 0 t.buf t.stop len;
    t.stop <- t.stop + len

  let u8 t off = Bytes.get_uint8 t.buf (t.start + off)
  let u16 t off = Bytes.get_uint16_be t.buf (t.start + off)

  (* Unsigned 32-bit read without boxing an Int32.  A negative length
     written by a hostile peer reads back as a value above the protocol
     maxima, so the corruption checks below still poison the stream. *)
  let i32 t off = (u16 t off lsl 16) lor u16 t (off + 2)
  let str t off len = Bytes.sub_string t.buf (t.start + off) len

  let next_request t =
    if t.corrupt || buffered t < request_header then None
    else begin
      let keylen = u16 t 5 and vallen = i32 t 7 in
      if keylen > max_key_len || vallen < 0 || vallen > max_value_len then begin
        t.corrupt <- true;
        None
      end
      else begin
      let total = request_header + keylen + vallen in
      if buffered t < total then None
      else begin
        let r =
          {
            op = (if u8 t 0 = 0 then Get else Set);
            reqid = i32 t 1;
            key = str t request_header keylen;
            value = str t (request_header + keylen) vallen;
          }
        in
        t.start <- t.start + total;
        if t.start = t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end;
        Some r
      end
      end
    end

  let next_response t =
    if t.corrupt || buffered t < response_header then None
    else begin
      let vallen = i32 t 5 in
      if vallen < 0 || vallen > max_value_len then begin
        t.corrupt <- true;
        None
      end
      else begin
      let total = response_header + vallen in
      if buffered t < total then None
      else begin
        let r = { status = u8 t 0; reqid = i32 t 1; value = str t response_header vallen } in
        t.start <- t.start + total;
        if t.start = t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end;
        Some r
      end
      end
    end
end
