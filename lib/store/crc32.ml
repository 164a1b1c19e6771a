(* CRC-32 (IEEE 802.3), table-driven, reflected, init/xorout 0xFFFFFFFF
   — bit-identical to zlib's crc32().  The remainder lives in the low
   32 bits of a native int, so the byte loop neither boxes nor calls
   into Int32.  The table is built once at module initialization. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

type t = { mutable crc : int }

let create () = { crc = 0xFFFFFFFF }

let update t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update: out of range";
  let c = ref t.crc in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    c := Array.unsafe_get table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  t.crc <- !c

let update_string t s =
  update t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let value t = Int32.of_int (t.crc lxor 0xFFFFFFFF)

let digest b =
  let t = create () in
  update t b ~pos:0 ~len:(Bytes.length b);
  value t
