(** The one byte form of a DistArray slice — wire regions and journals
    ([lib/net]), buffered shadows, checkpoints ([lib/store]) — and the
    primitives every packed codec is built from.

    A part ({!Dist_array.partition}) is its array's name, dims, default
    and storage kind, then ascending linearized keys as varint deltas
    (sparse) or run-length ranges (dense), and their values as raw or
    run-length encoded IEEE bits, each whichever is smaller.  Integers
    are unsigned LEB128 varints; floats are 8 little-endian bytes of
    their bits, so round trips are bitwise.

    Decoders check the bytes left before each read, and each count
    against them (a part's also against its dims' cells) before
    allocating: a malformed payload raises {!Decode_error}, never
    another exception. *)

(** [offset] is the byte where decoding failed. *)
exception Decode_error of { offset : int; reason : string }

val decode_error : int -> ('a, unit, string, 'b) format4 -> 'a

(** A read position in a payload that may end before its bytes do (a
    span of a larger frame, decoded in place). *)
type cursor = { c_bytes : bytes; mutable c_pos : int; c_end : int }

(** The [len] bytes (default: to the end) at [pos] (default 0). *)
val cursor : ?pos:int -> ?len:int -> bytes -> cursor

(** [need c pos n what]: [n] bytes of [what] must remain at [pos]. *)
val need : cursor -> int -> int -> string -> unit

val put_varint : Stdlib.Buffer.t -> int -> unit
val get_varint : cursor -> int
val put_int64 : Stdlib.Buffer.t -> int64 -> unit
val get_int64 : cursor -> int64
val put_float : Stdlib.Buffer.t -> float -> unit
val get_float : cursor -> float
val put_string : Stdlib.Buffer.t -> string -> unit
val get_string : cursor -> string

type key_mode = [ `Sparse | `Dense ]

(** Ascending, distinct keys in [mode], default whichever is smaller;
    returns the mode written. *)
val put_keys : Stdlib.Buffer.t -> ?mode:key_mode -> int array -> key_mode

(** [n] keys, each below [cells]. *)
val get_keys : cursor -> n:int -> cells:int -> int array

val put_values : Stdlib.Buffer.t -> float array -> unit
val get_values : cursor -> n:int -> float array

(** Append a part; returns its key mode ([None]: no entries). *)
val put_part :
  Stdlib.Buffer.t -> ?mode:key_mode -> Dist_array.partition -> key_mode option

val get_part : cursor -> Dist_array.partition

val encode_part :
  ?mode:key_mode -> Dist_array.partition -> bytes * key_mode option

(** The part filling exactly the [len] bytes (default: to the end) at
    [pos] (default 0). *)
val decode_part : ?pos:int -> ?len:int -> bytes -> Dist_array.partition
