(* CRC-32 (IEEE 802.3), table-driven, reflected, init/xorout 0xFFFFFFFF
   — bit-identical to zlib's crc32().  The remainder lives in the low
   32 bits of a native int, so the loops neither box nor call into
   Int32.  Slicing-by-8: eight tables fold eight bytes per step, and a
   byte loop takes the tail.  The tables are built once at module
   initialization. *)

(* [tables.(k * 256 + n)] is the remainder of byte [n] followed by [k]
   zero bytes; [k = 0] is the classic one-byte table *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

type t = { mutable crc : int }

let create () = { crc = 0xFFFFFFFF }

(* four little-endian bytes as an unsigned int: two 32-bit reads per
   step, since a 64-bit read through [Int64.to_int] would drop bit 63 *)
let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let update t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: out of range";
  let tb = tables in
  let c = ref t.crc in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let one = u32 b !i lxor !c in
    let two = u32 b (!i + 4) in
    c :=
      Array.unsafe_get tb ((7 * 256) + (one land 0xFF))
      lxor Array.unsafe_get tb ((6 * 256) + ((one lsr 8) land 0xFF))
      lxor Array.unsafe_get tb ((5 * 256) + ((one lsr 16) land 0xFF))
      lxor Array.unsafe_get tb ((4 * 256) + (one lsr 24))
      lxor Array.unsafe_get tb ((3 * 256) + (two land 0xFF))
      lxor Array.unsafe_get tb ((2 * 256) + ((two lsr 8) land 0xFF))
      lxor Array.unsafe_get tb (256 + ((two lsr 16) land 0xFF))
      lxor Array.unsafe_get tb (two lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := Array.unsafe_get tb ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  t.crc <- !c

let update_string t s =
  update t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let value t = Int32.of_int (t.crc lxor 0xFFFFFFFF)

let digest b =
  let t = create () in
  update t b ~pos:0 ~len:(Bytes.length b);
  value t
