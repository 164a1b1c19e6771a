(* The packed layout (see [codec.mli]):

   {v
   part     := namelen name ndims dim* default sparse nentries
               [keymode keys valmode values]   (absent when nentries = 0)
   keys     := k0 delta*                     (keymode 0: sparse)
             | nruns (gap len)*              (keymode 1: dense runs)
   values   := bits*                         (valmode 0: raw)
             | nruns (count bits)*           (valmode 1: RLE)
   v} *)

(* [Buffer] in this library is the DSM's write buffer *)
module Buffer = Stdlib.Buffer

exception Decode_error of { offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Decode_error { offset; reason } ->
        Some (Printf.sprintf "decode error at byte %d: %s" offset reason)
    | _ -> None)

let decode_error offset fmt =
  Printf.ksprintf (fun reason -> raise (Decode_error { offset; reason })) fmt

type cursor = { c_bytes : bytes; mutable c_pos : int; c_end : int }

let cursor ?(pos = 0) ?len b =
  let len = Option.value len ~default:(Bytes.length b - pos) in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    decode_error (max 0 pos) "span [%d, +%d) outside %d bytes" pos len
      (Bytes.length b);
  { c_bytes = b; c_pos = pos; c_end = pos + len }

let need c pos n what =
  if n > c.c_end - pos then
    decode_error pos "truncated %s: %d bytes needed, %d left" what n
      (c.c_end - pos)

(* [n] items of at least [size] bytes each must remain: checked by
   division, so a corrupt count cannot overflow the product *)
let need_items c n size what =
  if n > (c.c_end - c.c_pos) / size then
    decode_error c.c_pos "%d %s cannot fit in %d bytes" n what
      (c.c_end - c.c_pos)

(* ------------------------------------------------------------------ *)
(* Varints, floats, strings                                            *)
(* ------------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Codec: negative varint";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max 0 n) 1

let get_varint c =
  let rec go n shift =
    let pos = c.c_pos in
    if pos >= c.c_end then decode_error pos "truncated varint";
    let b = Bytes.get_uint8 c.c_bytes pos in
    (* the ninth byte holds an int's last 6 bits and ends the varint *)
    if shift = 56 && b > 0x3f then decode_error pos "varint overflows an int";
    c.c_pos <- pos + 1;
    let n = n lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then n else go n (shift + 7)
  in
  go 0 0

let put_int64 buf v = Buffer.add_int64_le buf v
let put_float buf v = put_int64 buf (Int64.bits_of_float v)

let get_int64 c =
  need c c.c_pos 8 "8-byte word";
  let v = Bytes.get_int64_le c.c_bytes c.c_pos in
  c.c_pos <- c.c_pos + 8;
  v

let get_float c = Int64.float_of_bits (get_int64 c)

let get_byte c what =
  need c c.c_pos 1 what;
  let b = Bytes.get_uint8 c.c_bytes c.c_pos in
  c.c_pos <- c.c_pos + 1;
  b

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string c =
  let n = get_varint c in
  need c c.c_pos n "string";
  let s = Bytes.sub_string c.c_bytes c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Key and value sections                                              *)
(* ------------------------------------------------------------------ *)

type key_mode = [ `Sparse | `Dense ]

let put_keys buf ?mode (keys : int array) : key_mode =
  let n = Array.length keys in
  let delta i = if i = 0 then keys.(0) else keys.(i) - keys.(i - 1) - 1 in
  let run_end i =
    let j = ref (i + 1) in
    while !j < n && keys.(!j) = keys.(!j - 1) + 1 do
      incr j
    done;
    !j
  in
  (* runs as (gap from the previous run's end, length) *)
  let iter_runs f =
    let prev_end = ref (-1) and i = ref 0 in
    while !i < n do
      let j = run_end !i in
      f (keys.(!i) - !prev_end - 1) (j - !i);
      prev_end := keys.(j - 1);
      i := j
    done
  in
  let mode =
    match mode with
    | Some m -> m
    | None ->
        let sparse = ref 0 in
        for i = 0 to n - 1 do
          sparse := !sparse + varint_len (delta i)
        done;
        let dense = ref 0 and nruns = ref 0 in
        iter_runs (fun gap len ->
            incr nruns;
            dense := !dense + varint_len gap + varint_len len);
        if varint_len !nruns + !dense < !sparse then `Dense else `Sparse
  in
  (match mode with
  | `Sparse ->
      Buffer.add_char buf '\000';
      for i = 0 to n - 1 do
        put_varint buf (delta i)
      done
  | `Dense ->
      Buffer.add_char buf '\001';
      let nruns = ref 0 in
      iter_runs (fun _ _ -> incr nruns);
      put_varint buf !nruns;
      iter_runs (fun gap len ->
          put_varint buf gap;
          put_varint buf len));
  mode

let get_keys c ~n ~cells =
  let mode_at = c.c_pos in
  match get_byte c "key mode" with
  | 0 ->
      need_items c n 1 "sparse keys";
      let keys = Array.make n 0 and next = ref 0 in
      for i = 0 to n - 1 do
        let pos = c.c_pos in
        let d = get_varint c in
        if d >= cells - !next then
          decode_error pos "key %d + %d outside %d cells" !next d cells;
        keys.(i) <- !next + d;
        next := keys.(i) + 1
      done;
      keys
  | 1 ->
      let nruns = get_varint c in
      need_items c nruns 2 "key runs";
      (* the runs are checked to hold exactly [n] keys inside the cells
         before the keys are allocated, then walked again to store them *)
      let runs = c.c_pos in
      let walk store =
        c.c_pos <- runs;
        let next = ref 0 and i = ref 0 in
        for _ = 1 to nruns do
          let pos = c.c_pos in
          let gap = get_varint c in
          let len = get_varint c in
          if gap > cells - !next || len > cells - !next - gap || len > n - !i
          then decode_error pos "key run (+%d, %d) outside %d cells or %d keys"
              gap len cells n;
          store !i (!next + gap) len;
          i := !i + len;
          next := !next + gap + len
        done;
        if !i <> n then decode_error c.c_pos "key runs hold %d of %d keys" !i n
      in
      walk (fun _ _ _ -> ());
      let keys = Array.make n 0 in
      walk (fun i start len ->
          for j = 0 to len - 1 do
            keys.(i + j) <- start + j
          done);
      keys
  | m -> decode_error mode_at "bad key mode %d" m

(* Raw or RLE, whichever is smaller for these values: one pass sizes
   the runs, a second writes them only when they win. *)
let put_values buf (values : float array) =
  let n = Array.length values in
  let same i j =
    Int64.equal
      (Int64.bits_of_float values.(i))
      (Int64.bits_of_float values.(j))
  in
  let run_end i =
    let j = ref (i + 1) in
    while !j < n && same i !j do
      incr j
    done;
    !j
  in
  let nruns = ref 0 and rle_size = ref 0 and i = ref 0 in
  while !i < n do
    let j = run_end !i in
    incr nruns;
    rle_size := !rle_size + varint_len (j - !i) + 8;
    i := j
  done;
  if varint_len !nruns + !rle_size < n * 8 then begin
    Buffer.add_char buf '\001';
    put_varint buf !nruns;
    let i = ref 0 in
    while !i < n do
      let j = run_end !i in
      put_varint buf (j - !i);
      put_float buf values.(!i);
      i := j
    done
  end
  else begin
    Buffer.add_char buf '\000';
    Array.iter (put_float buf) values
  end

let get_values c ~n =
  let mode_at = c.c_pos in
  match get_byte c "value mode" with
  | 0 ->
      need_items c n 8 "values";
      let b = c.c_bytes and p = c.c_pos in
      c.c_pos <- p + (8 * n);
      Array.init n (fun i ->
          Int64.float_of_bits (Bytes.get_int64_le b (p + (8 * i))))
  | 1 ->
      let nruns = get_varint c in
      need_items c nruns 9 "value runs";
      let values = Array.create_float n and i = ref 0 in
      for _ = 1 to nruns do
        let pos = c.c_pos in
        let count = get_varint c in
        let v = get_float c in
        if count > n - !i then
          decode_error pos "value runs hold more than %d values" n;
        Array.fill values !i count v;
        i := !i + count
      done;
      if !i <> n then
        decode_error c.c_pos "value runs hold %d of %d values" !i n;
      values
  | m -> decode_error mode_at "bad value mode %d" m

(* ------------------------------------------------------------------ *)
(* Parts                                                               *)
(* ------------------------------------------------------------------ *)

let put_part buf ?mode (p : Dist_array.partition) =
  put_string buf p.pt_array;
  put_varint buf (Array.length p.pt_dims);
  Array.iter (put_varint buf) p.pt_dims;
  put_float buf p.pt_default;
  Buffer.add_char buf (if p.pt_sparse then '\001' else '\000');
  let n = Array.length p.pt_keys in
  put_varint buf n;
  if n = 0 then None
  else begin
    let mode = put_keys buf ?mode p.pt_keys in
    put_values buf p.pt_values;
    Some mode
  end

let get_part c : Dist_array.partition =
  let pt_array = get_string c in
  let dims_at = c.c_pos in
  let ndims = get_varint c in
  need_items c ndims 1 "dims";
  let pt_dims = Array.init ndims (fun _ -> get_varint c) in
  let cells =
    Array.fold_left
      (fun acc d ->
        if d > 0 && acc > Sys.max_array_length / d then
          decode_error dims_at "dims of %S exceed an array" pt_array;
        acc * d)
      1 pt_dims
  in
  let pt_default = get_float c in
  let pt_sparse =
    match get_byte c "storage kind" with
    | 0 -> false
    | 1 -> true
    | k -> decode_error (c.c_pos - 1) "bad storage kind %d" k
  in
  let count_at = c.c_pos in
  let n = get_varint c in
  if n > cells then
    decode_error count_at "%d entries in %d cells of %S" n cells pt_array;
  let pt_keys, pt_values =
    if n = 0 then ([||], [||])
    else
      let keys = get_keys c ~n ~cells in
      (keys, get_values c ~n)
  in
  { pt_array; pt_dims; pt_default; pt_sparse; pt_keys; pt_values }

let encode_part ?mode (p : Dist_array.partition) =
  let buf = Buffer.create (64 + (9 * Array.length p.pt_keys)) in
  let mode = put_part buf ?mode p in
  (Buffer.to_bytes buf, mode)

let decode_part ?pos ?len b =
  let c = cursor ?pos ?len b in
  let p = get_part c in
  if c.c_pos <> c.c_end then
    decode_error c.c_pos "%d bytes after the part" (c.c_end - c.c_pos);
  p
