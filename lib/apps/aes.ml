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

(* The state is four 32-bit column words, big-endian within the word:
   block byte [4c + r] is row [r] of column [c] (FIPS-197 input order). *)
let mask32 = 0xFFFFFFFF
let ror8 w = ((w lsr 8) lor (w lsl 24)) land mask32

(* Encryption T-tables. [te0.(x)] is the MixColumns image of the column
   (S(x), 0, 0, 0): bytes (2·S(x), S(x), S(x), 3·S(x)). [te1..te3] are its
   byte rotations, for the rows ShiftRows brings in from the next three
   columns. A full round on one column is then four lookups and four XORs. *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))

let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

(* Indices below are 8-bit masked, so the unchecked loads stay in range. *)
let[@inline] t0 w = Array.unsafe_get te0 (w lsr 24)
let[@inline] t1 w = Array.unsafe_get te1 ((w lsr 16) land 0xFF)
let[@inline] t2 w = Array.unsafe_get te2 ((w lsr 8) land 0xFF)
let[@inline] t3 w = Array.unsafe_get te3 (w land 0xFF)

(* Substitute each byte through [tbl], taking row [r] from word [wr]: the
   SubBytes+ShiftRows of a final round (and its inverse), and SubWord. *)
let[@inline] sub_rows tbl w0 w1 w2 w3 =
  (Array.unsafe_get tbl (w0 lsr 24) lsl 24)
  lor (Array.unsafe_get tbl ((w1 lsr 16) land 0xFF) lsl 16)
  lor (Array.unsafe_get tbl ((w2 lsr 8) land 0xFF) lsl 8)
  lor Array.unsafe_get tbl (w3 land 0xFF)

let[@inline] get_word b i =
  (Char.code (Bytes.get b i) lsl 24)
  lor (Char.code (Bytes.get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.get b (i + 2)) lsl 8)
  lor Char.code (Bytes.get b (i + 3))

type key = int array (* 44 round-key words: round r is words 4r..4r+3 *)

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes.expand_key: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- get_word (Bytes.unsafe_of_string k) (4 * i)
  done;
  let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |] in
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        (* SubWord (RotWord temp) *)
        let r = ((temp lsl 8) lor (temp lsr 24)) land mask32 in
        sub_rows sbox r r r r lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* Write the first [n] bytes of the block (o0, o1, o2, o3) at [at], or XOR
   them into what is there. *)
let emit b ~at ~n ~xor o0 o1 o2 o3 =
  for k = 0 to n - 1 do
    let w = match k lsr 2 with 0 -> o0 | 1 -> o1 | 2 -> o2 | _ -> o3 in
    let v = (w lsr (24 - (8 * (k land 3)))) land 0xFF in
    let i = at + k in
    let v = if xor then v lxor Char.code (Bytes.get b i) else v in
    Bytes.set b i (Char.unsafe_chr v)
  done

(* The forward cipher on one block given as column words: the single
   encryption path behind [encrypt_block] and the CTR keystream. Word-sized
   state in locals — no per-round allocation. *)
let cipher ek s0 s1 s2 s3 b ~at ~n ~xor =
  let s0 = ref (s0 lxor ek.(0)) and s1 = ref (s1 lxor ek.(1)) in
  let s2 = ref (s2 lxor ek.(2)) and s3 = ref (s3 lxor ek.(3)) in
  for r = 1 to 9 do
    let k = 4 * r in
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := t0 a0 lxor t1 a1 lxor t2 a2 lxor t3 a3 lxor Array.unsafe_get ek k;
    s1 := t0 a1 lxor t1 a2 lxor t2 a3 lxor t3 a0 lxor Array.unsafe_get ek (k + 1);
    s2 := t0 a2 lxor t1 a3 lxor t2 a0 lxor t3 a1 lxor Array.unsafe_get ek (k + 2);
    s3 := t0 a3 lxor t1 a0 lxor t2 a1 lxor t3 a2 lxor Array.unsafe_get ek (k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  emit b ~at ~n ~xor
    (sub_rows sbox a0 a1 a2 a3 lxor ek.(40))
    (sub_rows sbox a1 a2 a3 a0 lxor ek.(41))
    (sub_rows sbox a2 a3 a0 a1 lxor ek.(42))
    (sub_rows sbox a3 a0 a1 a2 lxor ek.(43))

(* InvMixColumns on one column word. *)
let inv_mix w =
  let a0 = w lsr 24 and a1 = (w lsr 16) land 0xFF in
  let a2 = (w lsr 8) land 0xFF and a3 = w land 0xFF in
  let row m0 m1 m2 m3 = gmul a0 m0 lxor gmul a1 m1 lxor gmul a2 m2 lxor gmul a3 m3 in
  (row 14 11 13 9 lsl 24) lor (row 9 14 11 13 lsl 16) lor (row 13 9 14 11 lsl 8)
  lor row 11 13 9 14

let check_block b i =
  if i < 0 || i + 16 > Bytes.length b then invalid_arg "Aes: block out of range"

let encrypt_block ek b ~src ~dst =
  check_block b src;
  check_block b dst;
  cipher ek (get_word b src) (get_word b (src + 4)) (get_word b (src + 8))
    (get_word b (src + 12)) b ~at:dst ~n:16 ~xor:false

(* The FIPS-197 inverse cipher: InvShiftRows+InvSubBytes take row [r] of
   column [c] from column [c - r]. Not on any packet path. *)
let decrypt_block ek b ~src ~dst =
  check_block b src;
  check_block b dst;
  let s0 = ref (get_word b src lxor ek.(40)) in
  let s1 = ref (get_word b (src + 4) lxor ek.(41)) in
  let s2 = ref (get_word b (src + 8) lxor ek.(42)) in
  let s3 = ref (get_word b (src + 12) lxor ek.(43)) in
  let round k =
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := sub_rows inv_sbox a0 a3 a2 a1 lxor ek.(k);
    s1 := sub_rows inv_sbox a1 a0 a3 a2 lxor ek.(k + 1);
    s2 := sub_rows inv_sbox a2 a1 a0 a3 lxor ek.(k + 2);
    s3 := sub_rows inv_sbox a3 a2 a1 a0 lxor ek.(k + 3)
  in
  for r = 9 downto 1 do
    round (4 * r);
    s0 := inv_mix !s0;
    s1 := inv_mix !s1;
    s2 := inv_mix !s2;
    s3 := inv_mix !s3
  done;
  round 0;
  emit b ~at:dst ~n:16 ~xor:false !s0 !s1 !s2 !s3

let blocks_for len = (len + 15) / 16

let ctr_transform ek ~nonce ~counter b ~pos ~len =
  if String.length nonce <> 8 then invalid_arg "Aes.ctr_transform: 8-byte nonce";
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Aes.ctr_transform: range";
  let n0 = get_word (Bytes.unsafe_of_string nonce) 0 in
  let n1 = get_word (Bytes.unsafe_of_string nonce) 4 in
  for blk = 0 to blocks_for len - 1 do
    let ctr = counter + blk in
    let at = pos + (blk * 16) in
    let rest = pos + len - at in
    cipher ek n0 n1 ((ctr lsr 32) land mask32) (ctr land mask32) b ~at
      ~n:(if rest < 16 then rest else 16)
      ~xor:true
  done
