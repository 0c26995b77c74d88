(* The byte-wise FIPS-197 AES-128 that lib/apps/aes.ml used before its
   T-table rewrite, kept verbatim as a reference oracle: the kernel tests
   check that the table-driven cipher, its CTR mode and its inverse agree
   with this one on random keys, blocks, nonces, counters and ranges. Do not
   "improve" this file; its value is that it does not change. *)

(* GF(2^8) arithmetic with the AES polynomial x^8 + x^4 + x^3 + x + 1. *)
let xtime a =
  let a = a lsl 1 in
  if a land 0x100 <> 0 then (a lxor 0x1B) land 0xFF else a

let gmul a b =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go acc (xtime a) (b lsr 1)
  in
  go 0 a b

(* S-box built from the multiplicative inverse plus the affine transform. *)
let sbox, inv_sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for a = 0 to 255 do
    let x = inv.(a) in
    let v = x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63 in
    s.(a) <- v;
    si.(v) <- a
  done;
  (s, si)

type key = int array array (* 11 round keys of 16 bytes *)

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes.expand_key: need 16 bytes";
  let w = Array.make 44 0 in
  (* 32-bit words, big-endian byte order within the word *)
  for i = 0 to 3 do
    w.(i) <-
      (Char.code k.[4 * i] lsl 24)
      lor (Char.code k.[(4 * i) + 1] lsl 16)
      lor (Char.code k.[(4 * i) + 2] lsl 8)
      lor Char.code k.[(4 * i) + 3]
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xFF) lsl 24)
    lor (sbox.((x lsr 16) land 0xFF) lsl 16)
    lor (sbox.((x lsr 8) land 0xFF) lsl 8)
    lor sbox.(x land 0xFF)
  in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF in
  let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |] in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then sub_word (rot_word temp) lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  Array.init 11 (fun r ->
      Array.init 16 (fun b ->
          let word = w.((r * 4) + (b / 4)) in
          (word lsr (8 * (3 - (b mod 4)))) land 0xFF))

let add_round_key st rk =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.(i)
  done

let sub_bytes st tbl =
  for i = 0 to 15 do
    st.(i) <- tbl.(st.(i))
  done

(* State layout: st.(4*c + r) = column-major as in FIPS-197 input order. *)
let shift_rows st =
  let old = Array.copy st in
  for c = 0 to 3 do
    for r = 1 to 3 do
      st.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r)
    done
  done

let inv_shift_rows st =
  let old = Array.copy st in
  for c = 0 to 3 do
    for r = 1 to 3 do
      st.((4 * ((c + r) mod 4)) + r) <- old.((4 * c) + r)
    done
  done

let mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
    let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    st.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    st.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    st.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let inv_mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) in
    let a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    st.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    st.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    st.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let encrypt_state key st =
  add_round_key st key.(0);
  for round = 1 to 9 do
    sub_bytes st sbox;
    shift_rows st;
    mix_columns st;
    add_round_key st key.(round)
  done;
  sub_bytes st sbox;
  shift_rows st;
  add_round_key st key.(10)

let decrypt_state key st =
  add_round_key st key.(10);
  for round = 9 downto 1 do
    inv_shift_rows st;
    sub_bytes st inv_sbox;
    add_round_key st key.(round);
    inv_mix_columns st
  done;
  inv_shift_rows st;
  sub_bytes st inv_sbox;
  add_round_key st key.(0)

let load st b src =
  for i = 0 to 15 do
    st.(i) <- Char.code (Bytes.get b (src + i))
  done

let store st b dst =
  for i = 0 to 15 do
    Bytes.set b (dst + i) (Char.chr st.(i))
  done

let encrypt_block key b ~src ~dst =
  let st = Array.make 16 0 in
  load st b src;
  encrypt_state key st;
  store st b dst

let decrypt_block key b ~src ~dst =
  let st = Array.make 16 0 in
  load st b src;
  decrypt_state key st;
  store st b dst

let blocks_for len = (len + 15) / 16

let ctr_transform key ~nonce ~counter b ~pos ~len =
  if String.length nonce <> 8 then invalid_arg "Aes.ctr_transform: 8-byte nonce";
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Aes.ctr_transform: range";
  let st = Array.make 16 0 in
  let keystream = Array.make 16 0 in
  let nblocks = blocks_for len in
  for blk = 0 to nblocks - 1 do
    for i = 0 to 7 do
      st.(i) <- Char.code nonce.[i]
    done;
    let ctr = counter + blk in
    for i = 0 to 7 do
      st.(8 + i) <- (ctr lsr (8 * (7 - i))) land 0xFF
    done;
    encrypt_state key st;
    Array.blit st 0 keystream 0 16;
    let first = pos + (blk * 16) in
    let last = min (first + 15) (pos + len - 1) in
    for i = first to last do
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor keystream.(i - first)))
    done
  done
