let default_max_frame = 16 * 1024 * 1024

type read_result =
  | Frame of string
  | Closed
  | Truncated
  | Oversized of int
  | Stopped

let no_stop () = false

(* The bytes [lo, hi) of [buf] are received but not yet consumed.  One
   [Unix.read] asks for all the free room at the end of [buf], so it
   takes every frame the peer has already sent (a request's [accepted],
   [result] and [done] usually arrive together), and the next reads are
   served from memory. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

(* [Unix.read] moves at most this much per call. *)
let buffer_size = 65536

let reader fd = { fd; buf = Bytes.create buffer_size; lo = 0; hi = 0 }

(* One read into [buf] at [off]: the bytes read, 0 at end of stream, -1
   when [stop] said to give up.  A receive timeout on the fd surfaces as
   EAGAIN/EWOULDBLOCK: consult [stop] and keep reading while it says
   false — this is how a server reader stays cancellable even when a
   peer stalls in the middle of a frame. *)
let rec read_into fd buf off len stop =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd buf off len stop
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    if stop () then -1 else read_into fd buf off len stop

(* One read into the free end of the buffer. *)
let fill r stop =
  let n = read_into r.fd r.buf r.hi (Bytes.length r.buf - r.hi) stop in
  if n > 0 then r.hi <- r.hi + n;
  n

(* Buffers at least [need] ([<= buffer_size]) unconsumed bytes, moving
   the unconsumed tail to the front when the room behind it is short. *)
let rec ensure r need stop =
  if r.hi - r.lo >= need then `Ok
  else begin
    if r.lo + need > Bytes.length r.buf then begin
      Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    match fill r stop with
    | 0 -> `Eof
    | -1 -> `Stop
    | _ -> ensure r need stop
  end

let consume r n =
  r.lo <- r.lo + n;
  if r.lo = r.hi then begin
    r.lo <- 0;
    r.hi <- 0
  end

(* A payload larger than the buffer: the buffered head, then the rest
   read straight into the payload. *)
let read_large r stop len =
  let payload = Bytes.create len in
  let head = r.hi - r.lo in
  Bytes.blit r.buf r.lo payload 0 head;
  consume r head;
  let rec loop off =
    if off >= len then Frame (Bytes.unsafe_to_string payload)
    else
      match read_into r.fd payload off (len - off) stop with
      | 0 -> Truncated
      | -1 -> Stopped
      | n -> loop (off + n)
  in
  loop head

(* End of stream inside a frame: its bytes can never complete. *)
let truncated r =
  consume r (r.hi - r.lo);
  Truncated

let read ?(max_frame = default_max_frame) ?(stop = no_stop) r =
  match ensure r 4 stop with
  | `Eof -> if r.hi = r.lo then Closed else truncated r
  | `Stop -> Stopped
  | `Ok -> (
    let len =
      (Bytes.get_uint16_be r.buf r.lo lsl 16)
      lor Bytes.get_uint16_be r.buf (r.lo + 2)
    in
    if len > max_frame then begin
      consume r 4;
      Oversized len
    end
    else if 4 + len > buffer_size then begin
      consume r 4;
      read_large r stop len
    end
    else
      match ensure r (4 + len) stop with
      | `Eof -> truncated r
      | `Stop -> Stopped
      | `Ok ->
        let payload = Bytes.sub_string r.buf (r.lo + 4) len in
        consume r (4 + len);
        Frame payload)

let really_write fd buf len =
  let rec loop off =
    if off < len then
      match Unix.write fd buf off (len - off) with
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  loop 0

let write fd payload =
  let len = String.length payload in
  if len > 0xFFFF_FFFF then invalid_arg "Serve.Framing.write: payload too large";
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set buf 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf (4 + len)

let write_json fd json = write fd (Obs.Json.to_string json)

let rec discard ?(stop = no_stop) r n =
  let buffered = r.hi - r.lo in
  if n <= buffered then begin
    consume r n;
    true
  end
  else begin
    consume r buffered;
    match fill r stop with
    | 0 | -1 -> false
    | _ -> discard ~stop r (n - buffered)
  end
