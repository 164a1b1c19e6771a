(** Length-prefixed binary framing: every frame is a 4-byte big-endian
    payload length followed by the payload.  {!Transport} does the I/O;
    this module owns the layout. *)

exception Frame_error of string

(* generous ceiling so a corrupted header fails fast instead of
   attempting a multi-gigabyte allocation *)
let max_frame_bytes = 256 * 1024 * 1024

let header_bytes = 4

let check_length len =
  if len < 0 || len > max_frame_bytes then
    raise (Frame_error (Printf.sprintf "bad frame length: %d" len))

let set_length buf pos len =
  check_length len;
  Bytes.set_int32_be buf pos (Int32.of_int len)

let header len =
  let b = Bytes.create header_bytes in
  set_length b 0 len;
  b

let seal frame = set_length frame 0 (Bytes.length frame - header_bytes)

let length hdr =
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  check_length len;
  len
