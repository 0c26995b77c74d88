type t = {
  store : Packet_store.t;
  table : Fingerprint_table.t;
  sample_mask : int;
  scratch : Bytes.t;
  mutable fps : int array;
      (* Window fingerprints of the payload being encoded or absorbed,
         filled once per payload by [fingerprints]. *)
  mutable packets : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable matches : int;
  mutable match_bytes : int;
}

type stats = {
  packets : int;
  bytes_in : int;
  bytes_out : int;
  matches : int;
  match_bytes : int;
}

let magic = 0xFE
let esc_literal = 0x00
let esc_token = 0x01
let token_bytes = 9 (* magic, esc_token, 5B offset, 2B length *)
let max_match = 0xFFFF

let create ~heap ~store_bytes ~table_entries ?(sample_mask = 31) () =
  {
    store = Packet_store.create ~heap ~capacity:store_bytes;
    table = Fingerprint_table.create ~heap ~entries:table_entries;
    sample_mask;
    scratch = Bytes.make 128 '\000';
    fps = [||];
    packets = 0;
    bytes_in = 0;
    bytes_out = 0;
    matches = 0;
    match_bytes = 0;
  }

let stats (t : t) : stats =
  {
    packets = t.packets;
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
    matches = t.matches;
    match_bytes = t.match_bytes;
  }

(* Compare store content at [off] with [b] at [i], up to [max_len] bytes;
   returns the matching prefix length. Reads go through the instrumented
   store in line-sized chunks. *)
let match_length t builder ~fn ~off b ~i ~max_len =
  let matched = ref 0 in
  let continue_ = ref true in
  while !continue_ && !matched < max_len do
    let chunk = min 64 (max_len - !matched) in
    let o = off + !matched in
    if not (Packet_store.readable t.store ~off:o ~len:chunk) then
      continue_ := false
    else begin
      Packet_store.read t.store builder ~fn ~off:o ~len:chunk t.scratch ~dst:0;
      let k = ref 0 in
      while
        !k < chunk
        && Bytes.get t.scratch !k = Bytes.get b (i + !matched + !k)
      do
        incr k
      done;
      matched := !matched + !k;
      if !k < chunk then continue_ := false
    end
  done;
  !matched

(* Fingerprint every window of [pos, pos+len) into [t.fps] (grown to the
   largest payload seen, so the steady state allocates nothing). *)
let fingerprints t b ~pos ~len =
  if Array.length t.fps < len then t.fps <- Array.make (max len 2048) 0;
  Rabin.fill b ~pos ~len t.fps

(* Winnowing: a position is sampled when its fingerprint's low bits under
   [sample_mask] vanish. Tested once per payload byte, so it stays here
   rather than behind a call into another module. *)
let[@inline] sampled t fp = fp land t.sample_mask = 0

(* Find greedy non-overlapping matches in [pos, pos+len); [t.fps] holds the
   payload's fingerprints. *)
let find_matches t builder ~fn b ~pos ~len =
  let window = Rabin.window in
  let matches = ref [] in
  let stop = pos + len in
  let i = ref pos in
  while !i + window <= stop do
    let fp = t.fps.(!i - pos) in
    let matched =
      if sampled t fp then begin
        Ppp_hw.Trace.Builder.compute builder ~fn 20;
        match Fingerprint_table.lookup t.table builder ~fn ~fp with
        | None -> 0
        | Some off ->
            let max_len = min (stop - !i) max_match in
            let m = match_length t builder ~fn ~off b ~i:!i ~max_len in
            if m >= window then begin
              matches := (!i, off, m) :: !matches;
              m
            end
            else 0
      end
      else 0
    in
    i := !i + if matched > 0 then matched else 1
  done;
  List.rev !matches

(* Append payload to the store and index its sampled fingerprints, which
   [t.fps] must hold. *)
let absorb t builder ~fn b ~pos ~len =
  let base = Packet_store.append t.store builder ~fn b ~pos ~len in
  if len >= Rabin.window then begin
    Ppp_hw.Trace.Builder.compute builder ~fn (2 * len);
    for k = 0 to len - Rabin.window do
      let fp = t.fps.(k) in
      if sampled t fp then
        Fingerprint_table.insert t.table builder ~fn ~fp ~off:(base + k)
    done
  end

let put_token out ~at ~off ~len =
  Bytes.set out at (Char.chr magic);
  Bytes.set out (at + 1) (Char.chr esc_token);
  for k = 0 to 4 do
    Bytes.set out (at + 2 + k) (Char.chr ((off lsr (8 * (4 - k))) land 0xFF))
  done;
  Bytes.set out (at + 7) (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set out (at + 8) (Char.chr (len land 0xFF))

(* Copy [b] from [i] to [stop) into [out] at [o], escaping each magic byte
   as (magic, esc_literal); returns the new output offset. *)
let emit_literals b ~i ~stop out ~o =
  let o = ref o in
  for i = i to stop - 1 do
    let c = Bytes.get b i in
    if Char.code c = magic then begin
      Bytes.set out !o (Char.chr magic);
      Bytes.set out (!o + 1) (Char.chr esc_literal);
      o := !o + 2
    end
    else begin
      Bytes.set out !o c;
      incr o
    end
  done;
  !o

(* Emit literals with escaping, replacing matched regions by tokens. *)
let rec emit (t : t) b ~i ~stop out ~o = function
  | [] -> emit_literals b ~i ~stop out ~o
  | (mstart, off, mlen) :: rest ->
      let o = emit_literals b ~i ~stop:mstart out ~o in
      put_token out ~at:o ~off ~len:mlen;
      t.matches <- t.matches + 1;
      t.match_bytes <- t.match_bytes + mlen;
      emit t b ~i:(mstart + mlen) ~stop out ~o:(o + token_bytes) rest

let encode t builder ~fn b ~pos ~len ~out =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Re.encode: range";
  if Bytes.length out < (2 * len) + 16 then invalid_arg "Re.encode: out too small";
  fingerprints t b ~pos ~len;
  let matches = find_matches t builder ~fn b ~pos ~len in
  Ppp_hw.Trace.Builder.compute builder ~fn (2 * len);
  absorb t builder ~fn b ~pos ~len;
  let o = emit t b ~i:pos ~stop:(pos + len) out ~o:0 matches in
  t.packets <- t.packets + 1;
  t.bytes_in <- t.bytes_in + len;
  t.bytes_out <- t.bytes_out + o;
  o

let decode t builder ~fn b ~pos ~len ~out =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Re.decode: range";
  let o = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  while !i < stop do
    let c = Char.code (Bytes.get b !i) in
    if c <> magic then begin
      Bytes.set out !o (Char.chr c);
      incr o;
      incr i
    end
    else begin
      if !i + 1 >= stop then failwith "Re.decode: truncated escape";
      match Char.code (Bytes.get b (!i + 1)) with
      | x when x = esc_literal ->
          Bytes.set out !o (Char.chr magic);
          incr o;
          i := !i + 2
      | x when x = esc_token ->
          if !i + token_bytes > stop then failwith "Re.decode: truncated token";
          let off = ref 0 in
          for k = 0 to 4 do
            off := (!off lsl 8) lor Char.code (Bytes.get b (!i + 2 + k))
          done;
          let mlen =
            (Char.code (Bytes.get b (!i + 7)) lsl 8)
            lor Char.code (Bytes.get b (!i + 8))
          in
          if not (Packet_store.readable t.store ~off:!off ~len:mlen) then
            failwith "Re.decode: reference to evicted content";
          Packet_store.read t.store builder ~fn ~off:!off ~len:mlen out ~dst:!o;
          o := !o + mlen;
          i := !i + token_bytes
      | _ -> failwith "Re.decode: bad escape"
    end
  done;
  Ppp_hw.Trace.Builder.compute builder ~fn (2 * !o);
  fingerprints t out ~pos:0 ~len:!o;
  absorb t builder ~fn out ~pos:0 ~len:!o;
  t.packets <- t.packets + 1;
  !o
