(** The RE fingerprint table: maps content fingerprints to packet-store
    offsets. Direct-mapped with tag verification; an insert simply
    overwrites (newest content wins, as in [26]). Sized at millions of
    entries, it is the second large RE structure that defeats caching. *)

type t

val create : heap:Ppp_simmem.Heap.t -> entries:int -> t
(** [entries] rounded up to a power of two; 8 simulated bytes per entry. *)

val capacity : t -> int

val insert :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> fp:int -> off:int -> unit
(** Record that content with fingerprint [fp] lives at store offset [off]. *)

val lookup :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> fp:int -> int
(** The store offset last recorded for [fp] if the slot's tag matches, else
    [-1] (offsets are non-negative; a sentinel rather than an option keeps
    the per-match lookup allocation-free). *)
