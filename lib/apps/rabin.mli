(** Rabin-Karp rolling fingerprints over byte windows, as used by
    protocol-independent redundancy elimination (Spring & Wetherall, the
    paper's RE application [26]). *)

val window : int
(** Fingerprint window in bytes (32). *)

type state [@@immediate]
(** A fingerprint; an unboxed [int], so rolling allocates nothing. *)

val init : Bytes.t -> pos:int -> state
(** Fingerprint of the window starting at [pos] (requires [window] bytes). *)

val roll : state -> Bytes.t -> pos:int -> state
(** [roll st b ~pos] slides the window one byte: [pos] is the new start
    position; byte [pos-1] leaves, byte [pos+window-1] enters. *)

val fill : Bytes.t -> pos:int -> len:int -> int array -> unit
(** [fill b ~pos ~len fps] stores the fingerprint of every window inside
    [\[pos, pos+len)] in one pass: [fps.(i)] is [fingerprint b ~pos:(pos+i)]
    for [0 <= i <= len - window]; the rest of [fps] is left alone. Nothing
    is stored when [len < window]. Raises [Invalid_argument] on a range
    outside [b] or an [fps] shorter than [len - window + 1]. *)

val value : state -> int
(** The current fingerprint (non-negative, < modulus). *)

val fingerprint : Bytes.t -> pos:int -> int
(** One-shot fingerprint (= [value (init b ~pos)]). *)
