open Ppp_simmem

type t = { buf : Ibuf.t; mutable head : int }

let create ~heap ~capacity =
  if capacity <= 0 then invalid_arg "Packet_store.create";
  { buf = Ibuf.create heap capacity; head = 0 }

let capacity t = Ibuf.length t.buf
let head t = t.head

let readable t ~off ~len =
  len >= 0 && off >= 0 && off + len <= t.head && off >= t.head - capacity t

(* The range's bytes go in at most two physical chunks: from [off mod
   capacity] to the end of the ring or of the range, then, if the range
   wraps, the rest from physical 0 ([len <= capacity] holds for both
   callers). An explicit chunk loop rather than a per-chunk callback, so an
   append (once per packet) and a read (once per match) allocate
   nothing. *)
let append t b ~fn src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Packet_store.append: range";
  if len > capacity t then invalid_arg "Packet_store.append: larger than store";
  let start = t.head in
  let cap = capacity t in
  let done_ = ref 0 in
  while !done_ < len do
    let phys = (start + !done_) mod cap in
    let n = min (len - !done_) (cap - phys) in
    Bytes.blit src (pos + !done_) (Ibuf.bytes t.buf) phys n;
    Ibuf.touch_write t.buf b ~fn ~pos:phys ~len:n;
    done_ := !done_ + n
  done;
  t.head <- t.head + len;
  start

let read t b ~fn ~off ~len dst ~dst:dpos =
  if not (readable t ~off ~len) then invalid_arg "Packet_store.read: stale";
  if dpos < 0 || dpos + len > Bytes.length dst then
    invalid_arg "Packet_store.read: dst range";
  let cap = capacity t in
  let done_ = ref 0 in
  while !done_ < len do
    let phys = (off + !done_) mod cap in
    let n = min (len - !done_) (cap - phys) in
    Bytes.blit (Ibuf.bytes t.buf) phys dst (dpos + !done_) n;
    Ibuf.touch_read t.buf b ~fn ~pos:phys ~len:n;
    done_ := !done_ + n
  done

let byte_at t off =
  if not (readable t ~off ~len:1) then invalid_arg "Packet_store.byte_at";
  Bytes.get (Ibuf.bytes t.buf) (off mod capacity t)
