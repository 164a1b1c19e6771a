(** Length-prefixed binary framing: 4-byte big-endian payload length,
    then the payload.  The layout only: {!Transport} reads and writes
    frames. *)

exception Frame_error of string

val max_frame_bytes : int

(** The length prefix's size: 4. *)
val header_bytes : int

(** A fresh length prefix for a payload of [len] bytes.
    @raise Frame_error when [len] is negative or over {!max_frame_bytes} *)
val header : int -> bytes

(** Fill the first {!header_bytes} of [frame], a buffer built with
    that slot free, with the length of the rest: the buffer is then
    one whole frame.
    @raise Frame_error when the rest is over {!max_frame_bytes} *)
val seal : bytes -> unit

(** The payload length a received prefix announces.
    @raise Frame_error when it is negative or over {!max_frame_bytes} *)
val length : bytes -> int
