(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), computed incrementally
    so shard writers and readers can checksum streams without buffering
    them.  The byte loop is a C stub (slicing-by-8) that allocates
    nothing; it is self-contained — no external compression library. *)

type t

(** A fresh accumulator (initial remainder [0xFFFFFFFF]). *)
val create : unit -> t

(** Fold [len] bytes of [b] starting at [pos] into the checksum. *)
val update : t -> bytes -> pos:int -> len:int -> unit

val update_string : t -> string -> unit

(** The finalized checksum of everything folded in so far (does not
    invalidate [t]; more updates may follow). *)
val value : t -> int32

(** One-shot checksum of a whole byte string. *)
val digest : bytes -> int32
