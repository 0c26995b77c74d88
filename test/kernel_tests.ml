(* The host-side packet kernels behind VPNEncrypt and REEncode: the
   table-driven AES and the one-pass Rabin fingerprinting must compute
   exactly what the byte-wise originals did (Ref_aes, Rabin.init/roll),
   emit exactly the traces they did (the RE pin), and stay off the
   allocator on the per-packet path. *)

open Ppp_apps

(* --- AES against the byte-wise FIPS-197 reference --- *)

let key16 = QCheck.(string_of_size (Gen.return 16))

let prop_aes_encrypt_matches_ref =
  QCheck.Test.make ~count:200 ~name:"AES encrypt_block = reference"
    QCheck.(pair key16 key16)
    (fun (k, pt) ->
      let b = Bytes.of_string pt and r = Bytes.of_string pt in
      Aes.encrypt_block (Aes.expand_key k) b ~src:0 ~dst:0;
      Ref_aes.encrypt_block (Ref_aes.expand_key k) r ~src:0 ~dst:0;
      Bytes.equal b r)

let prop_aes_decrypt_matches_ref =
  QCheck.Test.make ~count:200 ~name:"AES decrypt_block = reference"
    QCheck.(pair key16 key16)
    (fun (k, ct) ->
      let b = Bytes.of_string ct and r = Bytes.of_string ct in
      Aes.decrypt_block (Aes.expand_key k) b ~src:0 ~dst:0;
      Ref_aes.decrypt_block (Ref_aes.expand_key k) r ~src:0 ~dst:0;
      Bytes.equal b r)

(* Non-zero [src]/[dst], distinct and overlapping: the block functions read
   the whole source block before writing the destination. *)
let prop_aes_block_offsets =
  QCheck.Test.make ~count:100 ~name:"AES block offsets = reference"
    QCheck.(triple key16 (string_of_size (Gen.return 48)) (pair (int_bound 32) (int_bound 32)))
    (fun (k, s, (src, dst)) ->
      let key = Aes.expand_key k and rkey = Ref_aes.expand_key k in
      let b = Bytes.of_string s and r = Bytes.of_string s in
      Aes.encrypt_block key b ~src ~dst;
      Ref_aes.encrypt_block rkey r ~src ~dst;
      let enc_ok = Bytes.equal b r in
      Aes.decrypt_block key b ~src:dst ~dst:src;
      Ref_aes.decrypt_block rkey r ~src:dst ~dst:src;
      enc_ok && Bytes.equal b r)

let prop_ctr_matches_ref =
  QCheck.Test.make ~count:200 ~name:"AES-CTR = reference"
    QCheck.(
      pair
        (triple key16 (string_of_size (Gen.return 8)) (int_bound ((1 lsl 40) - 1)))
        (pair (int_bound 40) (string_of_size Gen.(int_range 0 300))))
    (fun ((k, nonce, counter), (pos, body)) ->
      let s = String.make pos '\x5A' ^ body ^ "tail" in
      let len = String.length body in
      let b = Bytes.of_string s and r = Bytes.of_string s in
      Aes.ctr_transform (Aes.expand_key k) ~nonce ~counter b ~pos ~len;
      Ref_aes.ctr_transform (Ref_aes.expand_key k) ~nonce ~counter r ~pos ~len;
      Bytes.equal b r)

(* --- Rabin: the one-pass fill against the one-shot and rolling forms --- *)

let prop_rabin_fill =
  QCheck.Test.make ~count:200 ~name:"rabin fill = fingerprint = init/roll"
    QCheck.(pair (int_bound 20) (string_of_size Gen.(int_range 0 300)))
    (fun (pos, s) ->
      let b = Bytes.of_string (String.make pos '\x07' ^ s) in
      let len = String.length s in
      let n = len - Rabin.window + 1 in
      let fps = Array.make (max 1 (len + 1)) (-1) in
      Rabin.fill b ~pos ~len fps;
      let ok = ref true in
      if n > 0 then begin
        let st = ref (Rabin.init b ~pos) in
        for i = 0 to n - 1 do
          if i > 0 then st := Rabin.roll !st b ~pos:(pos + i);
          let fp = Rabin.fingerprint b ~pos:(pos + i) in
          if fps.(i) <> fp || Rabin.value !st <> fp then ok := false
        done
      end;
      (* Slots past the last window are left alone. *)
      for i = max 0 n to Array.length fps - 1 do
        if fps.(i) <> -1 then ok := false
      done;
      !ok)

(* --- RE trace pin --- *)

(* A fixed 200-packet stream with cross-packet redundancy: each payload is a
   random prefix, a slice of one of eight shared corpus buffers, and a
   random suffix, with the escape byte sprinkled in. *)
let re_stream () =
  let rng = Ppp_util.Rng.create ~seed:0x5EED13 in
  let corpus =
    Array.init 8 (fun _ ->
        let c = Bytes.create 1500 in
        Ppp_util.Rng.fill_bytes rng c ~pos:0 ~len:1500;
        c)
  in
  List.init 200 (fun _ ->
      let pre = Ppp_util.Rng.int rng 200 in
      let mid = Ppp_util.Rng.int rng 900 in
      let post = Ppp_util.Rng.int rng 200 in
      let b = Bytes.create (pre + mid + post) in
      Ppp_util.Rng.fill_bytes rng b ~pos:0 ~len:(pre + mid + post);
      let src = corpus.(Ppp_util.Rng.int rng 8) in
      Bytes.blit src (Ppp_util.Rng.int rng (1500 - mid)) b pre mid;
      if Ppp_util.Rng.int rng 4 = 0 then
        Bytes.set b (Ppp_util.Rng.int rng (Bytes.length b)) '\xFE';
      b)

(* Digest of every op (kind and payload: addresses, instruction counts)
   both endpoints emit over the stream, plus each encoded length. Function
   and element tags are left out: they are process-wide registration ids. *)
let re_trace_digest () =
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let mk () =
    Re.create ~heap ~store_bytes:32768 ~table_entries:2048 ~sample_mask:7 ()
  in
  let encoder = mk () and decoder = mk () in
  let b = Ppp_hw.Trace.Builder.create () in
  let fn = Ppp_hw.Fn.none in
  let out = Bytes.create 4096 and dec = Bytes.create 4096 in
  let acc = Buffer.create (1 lsl 20) in
  let dump () =
    Ppp_hw.Trace.iter (Ppp_hw.Trace.Builder.finish b) (fun k _ p ->
        Buffer.add_char acc
          (match k with
          | Compute -> 'c'
          | Read -> 'r'
          | Write -> 'w'
          | Stall -> 's'
          | Dma -> 'd');
        Buffer.add_string acc (string_of_int p));
    Ppp_hw.Trace.Builder.clear b
  in
  List.iter
    (fun payload ->
      let len = Bytes.length payload in
      let enc_len = Re.encode encoder b ~fn payload ~pos:0 ~len ~out in
      dump ();
      Buffer.add_string acc (Printf.sprintf "|%d|" enc_len);
      let dec_len = Re.decode decoder b ~fn out ~pos:0 ~len:enc_len ~out:dec in
      dump ();
      if dec_len <> len || not (Bytes.equal (Bytes.sub dec 0 len) payload) then
        Alcotest.fail "RE stream does not round-trip")
    (re_stream ());
  let s = Re.stats encoder in
  (Digest.to_hex (Digest.string (Buffer.contents acc)), s.Re.matches)

(* Recorded from the byte-wise, record-per-byte Rabin implementation. *)
let pinned_re_digest = "307a980a8c15277014cf8a41da3c9901"

let test_re_trace_pin () =
  let digest, matches = re_trace_digest () in
  Alcotest.(check bool) "the stream exercises matches" true (matches > 100);
  Alcotest.(check string) "encode+decode trace digest" pinned_re_digest digest

(* --- Allocation on the VPN and RE flow paths --- *)

(* Average bytes allocated per packet by a flow's Engine source over 2,000
   packets, after a warm-up that fills the RE store and grows any scratch
   buffer to its steady size. The full major collection before the window
   keeps the runtime's own accounting out of it: without one, the next
   minor collection can credit ~1 MB to the window. *)
let bytes_per_packet kind =
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed:11 in
  let flow = App.flow kind ~heap ~rng ~scale:128 () in
  let source = Ppp_click.Flow.source flow in
  let run n =
    let packets = ref 0 in
    while !packets < n do
      match source 0 with
      | Ppp_hw.Engine.Packet _ | Reordered _ -> incr packets
      | Idle _ -> ()
    done
  in
  run 500;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  run 2000;
  (Gc.allocated_bytes () -. a0) /. 2000.0

(* Before the table-driven cipher the VPN flow allocated ~13.7 KB per
   packet (a state copy per AES round); now nothing at all. *)
let test_vpn_allocation () =
  let b = bytes_per_packet App.VPN in
  Alcotest.(check bool) (Printf.sprintf "VPN %.1f B/packet <= 1" b) true (b <= 1.0)

(* Before the one-pass fingerprints the RE flow allocated ~30 KB per packet
   (a state record per payload byte, twice). What is left is per packet:
   the store append's closure, and per match: its tuple, two list cells,
   the table hit's option and the store read's closure -- about 60 B at
   this flow's match rate. *)
let test_re_allocation () =
  let b = bytes_per_packet App.RE in
  Alcotest.(check bool) (Printf.sprintf "RE %.1f B/packet <= 256" b) true (b <= 256.0)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_aes_encrypt_matches_ref;
    QCheck_alcotest.to_alcotest prop_aes_decrypt_matches_ref;
    QCheck_alcotest.to_alcotest prop_aes_block_offsets;
    QCheck_alcotest.to_alcotest prop_ctr_matches_ref;
    QCheck_alcotest.to_alcotest prop_rabin_fill;
    Alcotest.test_case "RE trace pin" `Quick test_re_trace_pin;
    Alcotest.test_case "VPN flow allocation" `Quick test_vpn_allocation;
    Alcotest.test_case "RE flow allocation" `Quick test_re_allocation;
  ]
