let window = 32

(* Mersenne prime 2^31 - 1: operand products fit in OCaml's 63-bit ints, so
   modular arithmetic needs no splitting. Fingerprints are 31 bits; matches
   are verified byte-for-byte, so collisions only cost a failed probe. *)
let modulus = (1 lsl 31) - 1
let base = 263

(* 2^31 = 1 (mod p), so folding the bits above 31 onto the low ones keeps
   the residue without a division: for x < 2^42 the result is below 2p. *)
let[@inline] fold x = (x land modulus) + (x lsr 31)
let[@inline] canon x = if x >= modulus then x - modulus else x

(* A fingerprint is an immediate int: rolling allocates nothing. *)
type state = int

(* [drop.(c)] = p - (c + 1) * base^(window-1) mod p: adding it removes the
   byte [c] leaving the window, and keeps the sum non-negative. *)
let drop =
  let top = ref 1 in
  for _ = 1 to window - 1 do
    top := canon (fold (fold (!top * base)))
  done;
  Array.init 256 (fun c -> modulus - canon (fold (fold ((c + 1) * !top))))

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i) + 1

(* The rolling step, shared by [roll] and [fill]: slide the window to start
   at [pos]. Takes and returns residues below 2p (canonical or not), so the
   loop-carried chain is one add, one multiply and one fold; callers
   canonicalise what they publish and have checked the range. *)
let[@inline] step x b pos =
  let x = x + Array.unsafe_get drop (Char.code (Bytes.unsafe_get b (pos - 1))) in
  fold ((x * base) + byte b (pos + window - 1))

let[@inline] first b pos =
  let x = ref 0 in
  for i = pos to pos + window - 1 do
    x := fold ((!x * base) + byte b i)
  done;
  canon !x

let init b ~pos =
  if pos < 0 || pos + window > Bytes.length b then invalid_arg "Rabin.init";
  first b pos

let roll st b ~pos =
  if pos < 1 || pos + window > Bytes.length b then invalid_arg "Rabin.roll";
  canon (step st b pos)

let fill b ~pos ~len fps =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Rabin.fill: range";
  let n = len - window + 1 in
  if n > Array.length fps then invalid_arg "Rabin.fill: array too short";
  if n > 0 then begin
    let x = ref (first b pos) in
    Array.unsafe_set fps 0 !x;
    for i = 1 to n - 1 do
      x := step !x b (pos + i);
      Array.unsafe_set fps i (canon !x)
    done
  end

let value st = st
let fingerprint b ~pos = init b ~pos
