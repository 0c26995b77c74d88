(** A set-associative cache with true-LRU replacement.

    The cache tracks line residency and dirtiness only (simulation is
    timing-directed; data lives in the instrumented OCaml structures). Each
    resident line carries an auxiliary integer usable by the owner: the
    shared L3 stores directory presence bits there, private caches store an
    exclusivity flag.

    This is the innermost data structure of the simulator, so its lookup
    surface is allocation-free by design: probes return a plain [int] slot
    or the {!none} sentinel instead of an option, and insertion is a
    two-step [victim_slot]/[fill] protocol instead of an eviction record.
    Slots are transient handles — valid until the next [fill], [invalidate]
    or [clear] on the same cache — and are meaningless across caches.
    Internally each set is one contiguous block of a single int array
    (tags, LRU stamps, aux/dirty words, way prediction). *)

type t

type geometry = {
  size_bytes : int;
  ways : int;
  line_bytes : int;  (** must be a power of two *)
}

val create : geometry -> t
(** Raises [Invalid_argument] if the geometry is inconsistent (sizes not
    divisible by ways*line, set count not a power of two). *)

val geometry : t -> geometry
val sets : t -> int

val lines : t -> int
(** Total capacity in lines. *)

val line_of_addr : t -> int -> int
(** The line (block) number an address falls in. *)

val none : int
(** The miss sentinel ([-1]): {!find}/{!probe} return it when the line is
    not resident. Every non-negative return is a valid slot. *)

val find : t -> int -> int
(** [find t line] probes for [line]; on a hit, promotes it to MRU and
    returns its slot, else {!none}. Allocation-free. *)

val probe : t -> int -> int
(** Like {!find} but without promoting LRU state (for directory snoops). *)

val dirty : t -> int -> bool
(** Slot accessors are unchecked: passing {!none} or a stale slot is a
    programming error (reads/writes the wrong way's state). *)

val set_dirty : t -> int -> bool -> unit
val aux : t -> int -> int
val set_aux : t -> int -> int -> unit

val line : t -> int -> int
(** The line number resident in a slot ([-1] if the slot is empty) — how
    the owner reads a victim's identity before {!fill} overwrites it. *)

val slot_valid : t -> int -> bool
(** Whether the slot currently holds a line. *)

val victim_slot : t -> int -> int
(** [victim_slot t line] is the slot {!fill} should use to make [line]
    resident: an invalid way of its set if one exists, else the set's LRU
    way. The caller inspects the victim in place ({!slot_valid}, {!line},
    {!dirty}, {!aux}) and performs any writeback before filling. [line]
    must not already be resident (checked). *)

val find_or_victim : t -> int -> int
(** {!find} and {!victim_slot} in a single scan of the set, for paths that
    always need one or the other (every lookup of [Hierarchy.access]). A hit acts
    exactly like {!find} (LRU promotion) and returns the slot; a miss
    returns [-2 - v] where [v] is the slot {!victim_slot} would pick — the
    line's LRU state is untouched, matching a plain missed {!find}. *)

val fill : t -> slot:int -> dirty:bool -> aux:int -> int -> unit
(** [fill t ~slot ~dirty ~aux line] makes [line] resident in [slot] as MRU,
    overwriting whatever the slot held. [slot] should come from
    {!victim_slot} or a missed {!find_or_victim} for [line] (same set;
    unchecked). *)

val invalidate_slot : t -> int -> unit
(** Empties a slot (no-op if already empty). *)

val invalidate : t -> int -> bool
(** [invalidate t line] removes [line]; [true] if it was resident. Callers
    that need the victim's dirty/aux state probe first and read the slot
    before invalidating it. *)

val resident : t -> int -> bool

val occupancy : t -> int
(** Number of valid lines (for tests: never exceeds {!lines}). *)

val fold_resident :
  t -> init:'a -> ('a -> int -> dirty:bool -> aux:int -> 'a) -> 'a
(** Folds over resident lines in slot order (an internal, deterministic
    order — not recency). *)

val clear : t -> unit
