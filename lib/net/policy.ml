(** The wire encoding of DistArray state: see [policy.mli] for the
    model.

    Layout of the packed codecs (all integers are unsigned LEB128
    varints, float values are 8 little-endian bytes of IEEE-754 bits,
    so round trips are bitwise):

    {v
    entries  := ngroups group*
    group    := namelen name pass block nwrites keymode keys valmode values
    part     := namelen name ndims dim* default sparse keymode nentries
                keys valmode values
    keys     := k0 delta*                     (keymode 0: sparse)
              | nruns (gap len)*              (keymode 1: dense runs)
    values   := bits*                         (valmode 0: raw)
              | nruns (count bits)*           (valmode 1: RLE)
    v}

    Keys are ascending linearized (row-major) element indices; both
    ends rebuild identical arrays from the same registry, so indices
    agree across processes. *)

module Dist_array = Orion_dsm.Dist_array

(* ------------------------------------------------------------------ *)
(* Varints and float bits                                              *)
(* ------------------------------------------------------------------ *)

let put_varint buf n =
  if n < 0 then invalid_arg "Policy: negative varint";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max 0 n) 1

let get_varint bytes pos =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= Bytes.length bytes then failwith "Policy: truncated varint";
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !n

let put_float buf v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let get_float bytes pos =
  if !pos + 8 > Bytes.length bytes then failwith "Policy: truncated float";
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits
        (Int64.shift_left
           (Int64.of_int (Char.code (Bytes.get bytes (!pos + i))))
           (8 * i))
  done;
  pos := !pos + 8;
  Int64.float_of_bits !bits

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let get_string bytes pos =
  let n = get_varint bytes pos in
  if !pos + n > Bytes.length bytes then failwith "Policy: truncated string";
  let s = Bytes.sub_string bytes !pos n in
  pos := !pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Key and value sections                                              *)
(* ------------------------------------------------------------------ *)

(* [keys] ascending and distinct. *)
let put_keys buf ~(mode : [ `Sparse | `Dense ]) (keys : int array) =
  match mode with
  | `Sparse ->
      Buffer.add_char buf '\000';
      Array.iteri
        (fun i k -> put_varint buf (if i = 0 then k else k - keys.(i - 1) - 1))
        keys
  | `Dense ->
      (* runs of consecutive keys: (gap from previous run's end, length) *)
      Buffer.add_char buf '\001';
      let runs = ref [] in
      Array.iter
        (fun k ->
          match !runs with
          | (start, len) :: tl when k = start + len -> runs := (start, len + 1) :: tl
          | _ -> runs := (k, 1) :: !runs)
        keys;
      let runs = List.rev !runs in
      put_varint buf (List.length runs);
      let prev_end = ref (-1) in
      List.iter
        (fun (start, len) ->
          put_varint buf (start - !prev_end - 1);
          put_varint buf len;
          prev_end := start + len - 1)
        runs

let get_keys bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      let keys = Array.make n 0 in
      let prev = ref (-1) in
      for i = 0 to n - 1 do
        let d = get_varint bytes pos in
        keys.(i) <- (if i = 0 then d else !prev + 1 + d);
        prev := keys.(i)
      done;
      keys
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let keys = Array.make n 0 in
      let i = ref 0 and prev_end = ref (-1) in
      for _ = 1 to nruns do
        let gap = get_varint bytes pos in
        let len = get_varint bytes pos in
        let start = !prev_end + 1 + gap in
        for j = 0 to len - 1 do
          if !i >= n then failwith "Policy: key runs overflow count";
          keys.(!i) <- start + j;
          incr i
        done;
        prev_end := start + len - 1
      done;
      if !i <> n then failwith "Policy: key runs underflow count";
      keys
  | _ -> failwith "Policy: bad key mode"

(* Raw or RLE, whichever is smaller for these values. *)
let put_values buf (values : float array) =
  let n = Array.length values in
  let runs = ref [] in
  Array.iter
    (fun v ->
      match !runs with
      | (v0, c) :: tl when Int64.bits_of_float v0 = Int64.bits_of_float v ->
          runs := (v0, c + 1) :: tl
      | _ -> runs := (v, 1) :: !runs)
    values;
  let runs = List.rev !runs in
  let rle_size =
    List.fold_left (fun acc (_, c) -> acc + varint_len c + 8) (varint_len (List.length runs)) runs
  in
  if rle_size < n * 8 then begin
    Buffer.add_char buf '\001';
    put_varint buf (List.length runs);
    List.iter
      (fun (v, c) ->
        put_varint buf c;
        put_float buf v)
      runs
  end
  else begin
    Buffer.add_char buf '\000';
    Array.iter (put_float buf) values
  end

let get_values bytes pos ~n =
  match Char.code (Bytes.get bytes !pos) with
  | 0 ->
      incr pos;
      Array.init n (fun _ -> get_float bytes pos)
  | 1 ->
      incr pos;
      let nruns = get_varint bytes pos in
      let values = Array.make n 0.0 in
      let i = ref 0 in
      for _ = 1 to nruns do
        let c = get_varint bytes pos in
        let v = get_float bytes pos in
        for _ = 1 to c do
          if !i >= n then failwith "Policy: value runs overflow count";
          values.(!i) <- v;
          incr i
        done
      done;
      if !i <> n then failwith "Policy: value runs underflow count";
      values
  | _ -> failwith "Policy: bad value mode"

(* ------------------------------------------------------------------ *)
(* Partition codec                                                     *)
(* ------------------------------------------------------------------ *)

let encode_part ~mode (p : Wire.part) : bytes =
  let buf = Buffer.create 256 in
  put_string buf p.Dist_array.pt_array;
  put_varint buf (Array.length p.Dist_array.pt_dims);
  Array.iter (put_varint buf) p.Dist_array.pt_dims;
  put_float buf p.Dist_array.pt_default;
  Buffer.add_char buf (if p.Dist_array.pt_sparse then '\001' else '\000');
  let n = Array.length p.Dist_array.pt_entries in
  put_varint buf n;
  if n > 0 then begin
    put_keys buf ~mode (Array.map fst p.Dist_array.pt_entries);
    put_values buf (Array.map snd p.Dist_array.pt_entries)
  end;
  Buffer.to_bytes buf

let decode_part (b : bytes) : Wire.part =
  let pos = ref 0 in
  let name = get_string b pos in
  let ndims = get_varint b pos in
  let dims = Array.init ndims (fun _ -> get_varint b pos) in
  let default = get_float b pos in
  let sparse = Char.code (Bytes.get b !pos) = 1 in
  incr pos;
  let n = get_varint b pos in
  let entries =
    if n = 0 then [||]
    else
      let keys = get_keys b pos ~n in
      let values = get_values b pos ~n in
      Array.init n (fun i -> (keys.(i), values.(i)))
  in
  {
    Dist_array.pt_array = name;
    pt_dims = dims;
    pt_default = default;
    pt_sparse = sparse;
    pt_entries = entries;
  }

let part_mode (p : Wire.part) : [ `Sparse | `Dense ] =
  let cells = Array.fold_left (fun a d -> a * d) 1 p.Dist_array.pt_dims in
  let cells = if Array.length p.Dist_array.pt_dims = 0 then 0 else cells in
  if
    cells > 0
    && float_of_int (Array.length p.Dist_array.pt_entries)
       /. float_of_int cells
       >= 0.5
  then `Dense
  else `Sparse

let prepare_parts (parts : Wire.part list) :
    Wire.part_payload list * (string * float * float) list =
  List.split
    (List.map
       (fun (p : Wire.part) ->
         let b = encode_part ~mode:(part_mode p) p in
         ( b,
           ( p.Dist_array.pt_array,
             float_of_int (Bytes.length b),
             float_of_int (Dist_array.partition_size_bytes p) ) ))
       parts)

let decode_parts (payloads : Wire.part_payload list) : Wire.part list =
  List.map decode_part payloads

(* ------------------------------------------------------------------ *)
(* Journal-entry codec                                                 *)
(* ------------------------------------------------------------------ *)

(* One encode group: the deduplicated writes of one (pass, block) to
   one array, ascending by linearized key. *)
type group = {
  g_array : string;
  g_pass : int;
  g_block : int;
  g_keys : int array;  (** linearized, ascending *)
  g_values : float array;
}

let encode_groups ~(mode_for : string -> [ `Sparse | `Dense ])
    (groups : group list) : bytes * (string * float) list =
  let buf = Buffer.create 512 in
  put_varint buf (List.length groups);
  let per_array = Hashtbl.create 8 in
  List.iter
    (fun g ->
      let before = Buffer.length buf in
      put_string buf g.g_array;
      put_varint buf g.g_pass;
      put_varint buf g.g_block;
      put_varint buf (Array.length g.g_keys);
      put_keys buf ~mode:(mode_for g.g_array) g.g_keys;
      put_values buf g.g_values;
      let sz = float_of_int (Buffer.length buf - before) in
      Hashtbl.replace per_array g.g_array
        (sz +. Option.value (Hashtbl.find_opt per_array g.g_array) ~default:0.0))
    groups;
  ( Buffer.to_bytes buf,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_array []) )

let decode_groups ~(delinearize : string -> int -> int array) (b : bytes) :
    Wire.block_writes list =
  let pos = ref 0 in
  let ngroups = get_varint b pos in
  let groups =
    List.init ngroups (fun _ ->
        let name = get_string b pos in
        let pass = get_varint b pos in
        let block = get_varint b pos in
        let n = get_varint b pos in
        let keys = if n = 0 then [||] else get_keys b pos ~n in
        let values = if n = 0 then [||] else get_values b pos ~n in
        let writes =
          Array.init n (fun i ->
              {
                Wire.w_array = name;
                w_key = delinearize name keys.(i);
                w_value = values.(i);
              })
        in
        (pass, block, writes))
  in
  (* merge adjacent groups of the same (pass, block) — the encoder
     emits one group per array, but the receiver must see one
     [block_writes] per block so relay (keyed by block) stays whole *)
  List.fold_left
    (fun acc (pass, block, writes) ->
      match acc with
      | { Wire.bw_pass; bw_block; bw_writes } :: tl
        when bw_pass = pass && bw_block = block ->
          { Wire.bw_pass; bw_block; bw_writes = Array.append bw_writes writes }
          :: tl
      | _ -> { Wire.bw_pass = pass; bw_block = block; bw_writes = writes } :: acc)
    [] groups
  |> List.rev

let decode_entries = decode_groups

(* ------------------------------------------------------------------ *)
(* The sender: dedup to the newest write, per-array key modes          *)
(* ------------------------------------------------------------------ *)

(* A deduplicated write. *)
type cand = {
  c_array : string;
  c_lin : int;
  c_value : float;
  c_pass : int;
  c_block : int;
  c_vpos : int;  (** natural-order position of [c_block] *)
}

type sender = {
  s_linearize : string -> int array -> int;
  s_pos : int -> int;
  (* per-array key-encoding decision, refreshed once per pass *)
  s_modes : (string, [ `Sparse | `Dense ]) Hashtbl.t;
}

let sender ~linearize ~pos =
  { s_linearize = linearize; s_pos = pos; s_modes = Hashtbl.create 8 }

let mode_label = function `Sparse -> "sparse" | `Dense -> "dense"

(* run-length keys pay off once most cells are populated; index/value
   wins below that *)
let note_pass s stats =
  List.iter
    (fun (name, (st : Dist_array.stats)) ->
      Hashtbl.replace s.s_modes name
        (if st.Dist_array.st_density >= 0.5 then `Dense else `Sparse))
    stats

let decisions s =
  Hashtbl.fold (fun name mode acc -> (name, mode_label mode) :: acc) s.s_modes []
  |> List.sort compare

let mode_for s name =
  Option.value (Hashtbl.find_opt s.s_modes name) ~default:`Sparse

(* The cost of one write in the per-write [Marshal] framing the v3
   runtime used: the before side of the bytes-saved accounting. *)
let full_write_bytes (w : Wire.write) =
  float_of_int (Bytes.length (Marshal.to_bytes (w.w_key, w.w_value) []))

let full_bytes_by_array (entries : Wire.block_writes list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (bw : Wire.block_writes) ->
      Array.iter
        (fun (w : Wire.write) ->
          Hashtbl.replace tbl w.Wire.w_array
            (full_write_bytes w
            +. Option.value (Hashtbl.find_opt tbl w.Wire.w_array) ~default:0.0))
        bw.bw_writes)
    entries;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let prepare s (entries : Wire.block_writes list) :
    Wire.entries_payload * (string * float * float) list =
  let full = full_bytes_by_array entries in
  (* -- dedup to the newest write per (array, element) --------------- *)
  let cands : (string * int, cand) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (bw : Wire.block_writes) ->
      Array.iter
        (fun (w : Wire.write) ->
          let lin = s.s_linearize w.Wire.w_array w.Wire.w_key in
          let c =
            {
              c_array = w.Wire.w_array;
              c_lin = lin;
              c_value = w.Wire.w_value;
              c_pass = bw.bw_pass;
              c_block = bw.bw_block;
              c_vpos = s.s_pos bw.bw_block;
            }
          in
          match Hashtbl.find_opt cands (c.c_array, lin) with
          | Some prev when (prev.c_pass, prev.c_vpos) > (c.c_pass, c.c_vpos) ->
              ()
          | _ -> Hashtbl.replace cands (c.c_array, lin) c)
        bw.bw_writes)
    entries;
  (* -- group by (pass, block, array), ascending --------------------- *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (a.c_pass, a.c_vpos, a.c_array, a.c_lin)
          (b.c_pass, b.c_vpos, b.c_array, b.c_lin))
      (Hashtbl.fold (fun _ c acc -> c :: acc) cands [])
  in
  let groups =
    List.fold_left
      (fun acc c ->
        match acc with
        | (p, blk, name, cs) :: tl
          when p = c.c_pass && blk = c.c_block && name = c.c_array ->
            (p, blk, name, c :: cs) :: tl
        | _ -> (c.c_pass, c.c_block, c.c_array, [ c ]) :: acc)
      [] sorted
    |> List.rev_map (fun (p, blk, name, cs) ->
           let cs = Array.of_list (List.rev cs) in
           {
             g_array = name;
             g_pass = p;
             g_block = blk;
             g_keys = Array.map (fun c -> c.c_lin) cs;
             g_values = Array.map (fun c -> c.c_value) cs;
           })
    |> List.rev
  in
  let bytes, per_array = encode_groups ~mode_for:(mode_for s) groups in
  (* dedup never drops an array outright, so [full] names every array
     that had traffic *)
  let accounts =
    List.map
      (fun (n, f) ->
        (n, Option.value (List.assoc_opt n per_array) ~default:0.0, f))
      full
  in
  (bytes, accounts)
