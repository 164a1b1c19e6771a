(* CRC-32 (IEEE 802.3), bit-identical to zlib's crc32().  The byte loop
   is a C stub (crc32_stubs.c): carry-less multiply folding, 64 bytes a
   step, where the CPU has PCLMULQDQ, and slicing-by-8 for short
   buffers, tails and other CPUs.  The remainder lives in the low 32
   bits of a native int, so an update neither boxes nor allocates. *)

external init_tables : unit -> unit = "orion_crc32_init"

external fold : int -> bytes -> int -> int -> int = "orion_crc32_update"
[@@noalloc]

let () = init_tables ()

type t = { mutable crc : int }

let create () = { crc = 0xFFFFFFFF }

let update t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: out of range";
  t.crc <- fold t.crc b pos len

let update_string t s =
  update t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let value t = Int32.of_int (t.crc lxor 0xFFFFFFFF)

let digest b =
  let t = create () in
  update t b ~pos:0 ~len:(Bytes.length b);
  value t
