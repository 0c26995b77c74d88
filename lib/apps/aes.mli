(** AES-128 (FIPS-197), implemented from scratch.

    Used by the VPN application to really encrypt packet payloads (the
    paper's CPU-intensive flow type). Block encryption/decryption plus CTR
    mode; validated against the FIPS-197 and NIST SP 800-38A vectors in the
    test suite. Encryption is table-driven (32-bit T-tables over column
    words) and allocates nothing. *)

type key
(** An expanded AES-128 key schedule. *)

val expand_key : string -> key
(** [expand_key k] for a 16-byte key string. *)

val encrypt_block : key -> Bytes.t -> src:int -> dst:int -> unit
(** Encrypts the 16-byte block at offset [src] into offset [dst] (may
    alias). *)

val decrypt_block : key -> Bytes.t -> src:int -> dst:int -> unit

val ctr_transform :
  key -> nonce:string -> counter:int -> Bytes.t -> pos:int -> len:int -> unit
(** CTR-mode encryption/decryption in place over [pos, pos+len): byte [i] is
    XORed with the keystream of block [counter + i/16]. [nonce] is 8 bytes.
    Involutive: applying it twice restores the input. *)

val blocks_for : int -> int
(** Number of 16-byte blocks covering [len] bytes. *)
