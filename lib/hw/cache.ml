type geometry = { size_bytes : int; ways : int; line_bytes : int }

(* Packed layout: set [s] is the contiguous block
   [data.(s * stride) .. data.(s * stride + stride - 1)] holding

     [ tags (ways) | LRU stamps (ways) | aux lsl 1 lor dirty (ways) | mru ]

   so a lookup reads one contiguous block instead of five parallel
   arrays. A slot is the index of its tag word: its stamp lives
   [ways] words later and its aux/dirty word [2 * ways] words later. A tag
   of -1 marks an invalid way (line numbers are non-negative). [mru] holds
   the slot of the set's last hit or fill — way prediction for [probe].
   Purely an accelerator: a stale entry just falls through to the full
   scan, so it never changes what a lookup returns. *)
type t = {
  geo : geometry;
  nsets : int;
  ways : int;
  stride : int; (* 3 * ways + 1 words per set *)
  set_mask : int;
  line_shift : int;
  data : int array;
  mutable tick : int;
  mutable valid : int;
}

let none = -1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

(* Offsets from a slot (tag word) to its other words, and from a set's
   base to its mru word. *)
let[@inline] stamp_ix t i = i + t.ways
let[@inline] meta_ix t i = i + (2 * t.ways)
let[@inline] mru_ix t b = b + (3 * t.ways)

let reset_sets t =
  for s = 0 to t.nsets - 1 do
    let b = s * t.stride in
    Array.fill t.data b t.ways (-1);
    Array.fill t.data (b + t.ways) (2 * t.ways) 0;
    t.data.(mru_ix t b) <- b
  done

let create geo =
  if not (is_pow2 geo.line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if geo.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if geo.size_bytes mod (geo.ways * geo.line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways * line_bytes";
  let nsets = geo.size_bytes / (geo.ways * geo.line_bytes) in
  if not (is_pow2 nsets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let stride = (3 * geo.ways) + 1 in
  let t =
    {
      geo;
      nsets;
      ways = geo.ways;
      stride;
      set_mask = nsets - 1;
      line_shift = log2 geo.line_bytes;
      data = Array.make (nsets * stride) 0;
      tick = 0;
      valid = 0;
    }
  in
  reset_sets t;
  t

let geometry t = t.geo
let sets t = t.nsets
let lines t = t.nsets * t.ways
let line_of_addr t addr = addr lsr t.line_shift
let[@inline] base t line = (line land t.set_mask) * t.stride

(* The simulator's innermost loop ends here: every replayed memory op probes
   one to three of these way scans. Sentinel returns (no option box), unsafe
   reads, and a flat while-loop (a local recursive function would cost a
   closure per probe without flambda) keep the hit path allocation-free;
   indices are in range by construction (base + stride <= nsets * stride).
   [probe] and the slot accessors are [@inline]: the default (release)
   build compiles without -opaque, so they inline into [Hierarchy] too.

   The per-set way prediction resolves the common re-hit — packet
   processing touches the same handful of lines over and over — in one
   compare instead of a scan. A mispredict falls through to the scan, so
   prediction state can never change a result. *)
let[@inline] probe t line =
  let d = t.data in
  let b = base t line in
  let m = mru_ix t b in
  let p = Array.unsafe_get d m in
  if Array.unsafe_get d p = line then p
  else begin
    let last = b + t.ways - 1 in
    let i = ref b in
    while !i <= last && Array.unsafe_get d !i <> line do incr i done;
    if !i <= last then begin
      Array.unsafe_set d m !i;
      !i
    end
    else none
  end

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.data (stamp_ix t i) t.tick

let[@inline] find t line =
  let i = probe t line in
  if i >= 0 then touch t i;
  i

let[@inline] dirty t i = Array.unsafe_get t.data (meta_ix t i) land 1 <> 0

let[@inline] set_dirty t i d =
  let m = meta_ix t i in
  let w = Array.unsafe_get t.data m in
  Array.unsafe_set t.data m (if d then w lor 1 else w land lnot 1)

let[@inline] aux t i = Array.unsafe_get t.data (meta_ix t i) asr 1

let[@inline] set_aux t i v =
  let m = meta_ix t i in
  Array.unsafe_set t.data m ((v lsl 1) lor (Array.unsafe_get t.data m land 1))

let[@inline] line t i = Array.unsafe_get t.data i
let[@inline] slot_valid t i = Array.unsafe_get t.data i <> -1

(* Two-step insert protocol: [victim_slot] picks the way [fill] will
   overwrite — an invalid way if the set has one, else its LRU way — so the
   caller reads the victim's line/dirty/aux in place and handles writeback
   before filling. No eviction record is ever allocated. *)
let victim_slot t line =
  let d = t.data in
  let b = base t line in
  let victim = ref (-1) in
  let lru = ref b in
  let lru_stamp = ref (Array.unsafe_get d (stamp_ix t b)) in
  for i = b to b + t.ways - 1 do
    let tag = Array.unsafe_get d i in
    if tag = line then invalid_arg "Cache.victim_slot: line already resident";
    if tag = -1 && !victim = -1 then victim := i;
    let s = Array.unsafe_get d (stamp_ix t i) in
    if s < !lru_stamp then begin
      lru := i;
      lru_stamp := s
    end
  done;
  if !victim >= 0 then !victim else !lru

(* [find] and [victim_slot] in one pass over the set, for lookups that
   always need one or the other (every level of the hierarchy's miss
   path): a hit behaves exactly like [find] (touch, way prediction); a miss
   returns the way [fill] must overwrite, encoded as [-2 - slot] to keep
   the result an immediate int. The victim choice — first invalid way,
   else first-scanned LRU way — replicates [victim_slot] decision for
   decision. *)
let find_or_victim t line =
  let d = t.data in
  let b = base t line in
  let m = mru_ix t b in
  let p = Array.unsafe_get d m in
  if Array.unsafe_get d p = line then begin
    touch t p;
    p
  end
  else begin
    let hit = ref (-1) in
    let invalid = ref (-1) in
    let lru = ref b in
    let lru_stamp = ref (Array.unsafe_get d (stamp_ix t b)) in
    let i = ref b in
    let last = b + t.ways - 1 in
    while !hit < 0 && !i <= last do
      let tag = Array.unsafe_get d !i in
      if tag = line then hit := !i
      else begin
        if tag = -1 && !invalid = -1 then invalid := !i;
        let st = Array.unsafe_get d (stamp_ix t !i) in
        if st < !lru_stamp then begin
          lru := !i;
          lru_stamp := st
        end
      end;
      incr i
    done;
    if !hit >= 0 then begin
      Array.unsafe_set d m !hit;
      touch t !hit;
      !hit
    end
    else -2 - (if !invalid >= 0 then !invalid else !lru)
  end

let fill t ~slot ~dirty ~aux line =
  let d = t.data in
  if Array.unsafe_get d slot = -1 then t.valid <- t.valid + 1;
  Array.unsafe_set d slot line;
  Array.unsafe_set d (meta_ix t slot) ((aux lsl 1) lor Bool.to_int dirty);
  (* Point the set's way prediction at the freshly inserted line. *)
  Array.unsafe_set d (mru_ix t (base t line)) slot;
  touch t slot

let invalidate_slot t i =
  let d = t.data in
  if Array.unsafe_get d i <> -1 then begin
    Array.unsafe_set d i (-1);
    Array.unsafe_set d (stamp_ix t i) 0;
    Array.unsafe_set d (meta_ix t i) 0;
    t.valid <- t.valid - 1
  end

let invalidate t line =
  let i = probe t line in
  if i >= 0 then begin
    invalidate_slot t i;
    true
  end
  else false

let resident t line = probe t line >= 0
let occupancy t = t.valid

let fold_resident t ~init f =
  let acc = ref init in
  for s = 0 to t.nsets - 1 do
    let b = s * t.stride in
    for i = b to b + t.ways - 1 do
      if t.data.(i) <> -1 then
        acc := f !acc t.data.(i) ~dirty:(dirty t i) ~aux:(aux t i)
    done
  done;
  !acc

let clear t =
  reset_sets t;
  t.tick <- 0;
  t.valid <- 0
